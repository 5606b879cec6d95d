"""Toy spiral-convolution mesh networks.

Spiral orderings turn a mesh into fixed-length neighbor sequences; quadric
decimation builds the down/up-sampling pyramid; the TL assembly maps a pose
and a rest part to posed vertices. A short momentum-GD run overfits a small
dataset to show the machinery learning.
"""
import numpy as np

from courtpose.meshnet import (NetConfig, PartOps, build_spirals, init_params,
                               tl_forward)
from courtpose.meshnet.training import TrainConfig, eval_mesh_term, train_toy
from courtpose.toydata import toy_part_dataset

dataset, ops, cfg = toy_part_dataset(seed=0, count=12)
sp = build_spirals(dataset[0][1], length=7, dilation=1)
print(f"spiral at head vertex 40: {sp.indices[40].tolist()} "
      "(itself + its 6 neighbors, counterclockwise)")
print(f"part pyramid: {[m.num_vertices for m in ops.meshes]} vertices per level")

rng = np.random.default_rng(0)
params = init_params(cfg, ops, 35, rng)
pose, rest, posed = dataset[0]
out = tl_forward(pose, rest, params, ops, cfg)
print(f"tl_forward: Z_pred {out['Z_pred'].shape}, V_pred {out['V_pred'].shape}")

before = eval_mesh_term(dataset, params, ops, cfg)
params, curve = train_toy(dataset, params, ops, cfg,
                          TrainConfig(lr=3e-3, max_steps=120, epochs=200, seed=0))
after = eval_mesh_term(dataset, params, ops, cfg)
print(f"120 training steps: mesh term {before:.3f} -> {after:.3f} "
      f"({after / before:.0%} of the initial value)")
