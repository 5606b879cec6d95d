"""The head's ``PartOps`` bytes are pinned.

``data/partops_head.json`` holds the sha256 of every array of the toy
part's operator pyramid: the meshes of each level, the samplers' D and U
(``data``, ``indices``, ``indptr``) and each SC layer's spiral indices. The
toy network and its training curve read nothing else of the part, so a
faster builder must reproduce them bit for bit.

Regenerate it only with a change that means to move these operators, and
say so:

    PYTHONPATH=src python tests/test_partops_pin.py
"""
import hashlib
import json
from pathlib import Path

import numpy as np

from courtpose.meshnet import NetConfig, PartOps
from courtpose.synth import SceneConfig, canonical_body
from courtpose.toydata import TOY_PART

PINNED = Path(__file__).resolve().parent / "data" / "partops_head.json"


def partops_arrays(ops: PartOps) -> dict:
    """name -> array, for every array the operator pyramid holds."""
    out = {}
    for k, mesh in enumerate(ops.meshes):
        out[f"meshes.{k}.vertices"] = mesh.vertices
        out[f"meshes.{k}.faces"] = mesh.faces
    for k, op in enumerate(ops.samplers):
        for name in ("D", "U"):
            M = getattr(op, name)
            for attr in ("data", "indices", "indptr"):
                out[f"samplers.{k}.{name}.{attr}"] = getattr(M, attr)
    for group in ("spirals_enc", "spirals_dec"):
        for k, table in enumerate(getattr(ops, group)):
            out[f"{group}.{k}.indices"] = table.indices
    out["spirals_final.indices"] = ops.spirals_final.indices
    return out


def head_digests() -> dict:
    _, rest_body, _ = canonical_body(SceneConfig().voxel_res)
    ops = PartOps.build(rest_body.part(TOY_PART), NetConfig())
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in partops_arrays(ops).items()}


def test_head_partops_bytes_match_pinned():
    assert head_digests() == json.loads(PINNED.read_text())


if __name__ == "__main__":
    PINNED.write_text(json.dumps(head_digests(), indent=1, sort_keys=True) + "\n")
