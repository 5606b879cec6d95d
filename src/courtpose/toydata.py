"""Small synthetic datasets for the toy mesh networks: one capsule body part
posed by the shared skeleton, with ground-truth posed vertices from LBS."""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .mesh import BodyMesh
from .meshnet import NetConfig, PartOps
from .model import forward_kinematics
from .skinning import SkinningWeights, lbs
from .synth import SceneConfig, canonical_body, random_pose_transforms

TOY_PART = "head"


def toy_part_dataset(seed: int = 0, count: int = 50):
    """(dataset, ops, config): `dataset` holds (pose, rest part, posed part)
    triplets in the root-relative frame; `ops` is the part's operator pyramid."""
    if count < 1:
        raise ValidationError(f"a toy dataset needs at least one sample, got {count}")
    if seed < 0:
        raise ValidationError(f"a toy dataset seed must be >= 0, got {seed}")
    skeleton, rest_body, weights = canonical_body(SceneConfig().voxel_res)
    rest_part = rest_body.part(TOY_PART)
    # LBS is per vertex, so the part is skinned alone, with its weight rows
    names = [p.part for p in rest_body.parts]
    start = sum(p.num_vertices for p in rest_body.parts[:names.index(TOY_PART)])
    part_body = BodyMesh((rest_part,))
    part_weights = SkinningWeights(weights.W[start:start + rest_part.num_vertices])
    config = NetConfig()
    ops = PartOps.build(rest_part, config)
    rng = np.random.default_rng(seed)
    dataset = []
    for _ in range(count):
        transforms = random_pose_transforms(skeleton, rng)
        pose = forward_kinematics(skeleton, transforms)
        posed = lbs(part_body, part_weights, transforms, skeleton).parts[0]
        dataset.append((pose, rest_part, posed))
    return dataset, ops, config
