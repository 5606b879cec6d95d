"""Momentum gradient-descent training loop for the toy TL network, plus the
sectioned binary parameter format."""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError, ValidationError
from . import autograd as ag
from .network import (DEFAULT_WMESH, DEFAULT_WZ, NetConfig, PartOps, decode, mesh_encode,
                      tl_training_forward)

MAGIC = b"CPNETP1\x00"
LR_DECAY = 0.99      # per epoch
MAX_GRAD_NORM = 5.0  # global-norm clip; keeps momentum stable


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 5e-5
    batch_size: int = 16
    epochs: int = 50
    momentum: float = 0.9
    seed: int = 0
    max_steps: int | None = None  # optional hard cap across epochs


def train_toy(dataset, params: dict, ops: PartOps, config: NetConfig = NetConfig(),
              train_cfg: TrainConfig = TrainConfig()):
    """Overfit the TL network on (pose, rest part, posed part) triplets.

    Both decoder paths are supervised: the mesh term is applied to the
    decode of Z_gt and to the decode of Z_pred, with the code-consistency
    term tying the two latents together; the terms carry the network's
    ``DEFAULT_WMESH`` and ``DEFAULT_WZ`` weights. Returns (params, loss
    curve) where the curve has one {"total", "mesh"} entry per step.
    """
    if not dataset:
        raise ValidationError("training dataset is empty")
    rng = np.random.default_rng(train_cfg.seed)
    velocity = {k: np.zeros_like(v.value) for k, v in params.items()}
    curve = []
    lr = train_cfg.lr
    steps = 0
    for _ in range(train_cfg.epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), train_cfg.batch_size):
            batch = [dataset[i] for i in order[start:start + train_cfg.batch_size]]
            losses = []
            mesh_term = 0.0
            for pose, rest_part, posed_part in batch:
                out = tl_training_forward(pose, rest_part, posed_part, params, ops,
                                          config, training=True, rng=rng)
                consistency = ag.scale(ag.l1_mean(out["Z_pred"], out["Z_gt"]),
                                       DEFAULT_WZ)
                mesh_gt = ag.scale(ag.l1_mean(out["V_from_gt"], out["V_posed"]),
                                   DEFAULT_WMESH)
                mesh_pred = ag.scale(ag.l1_mean(out["V_from_pred"], out["V_posed"]),
                                     DEFAULT_WMESH)
                losses.append(ag.add_scalars([consistency, mesh_gt, mesh_pred]))
                mesh_term += float(mesh_gt.value) / len(batch)
            total = ag.scale(ag.add_scalars(losses), 1.0 / len(batch))
            if not np.isfinite(total.value):
                raise NumericalError(
                    f"non-finite training loss at step {steps}: {total.value!r}")
            for v in params.values():
                v.zero_grad()
            ag.backward(total)
            gnorm = np.sqrt(sum(float(np.sum(v.grad ** 2)) for v in params.values()
                                if v.grad is not None))
            clip = MAX_GRAD_NORM / gnorm if gnorm > MAX_GRAD_NORM else 1.0
            for k, v in params.items():
                g = (v.grad if v.grad is not None else np.zeros_like(v.value)) * clip
                g = g + train_cfg.weight_decay * v.value
                velocity[k] = train_cfg.momentum * velocity[k] + g
                v.value = v.value - lr * velocity[k]
            curve.append({"total": float(total.value), "mesh": mesh_term})
            steps += 1
            if train_cfg.max_steps is not None and steps >= train_cfg.max_steps:
                return params, curve
        lr *= LR_DECAY
    return params, curve


def eval_mesh_term(dataset, params: dict, ops: PartOps,
                   config: NetConfig = NetConfig()) -> float:
    """Mean Z_gt-path mesh loss over a dataset (no dropout), weighted by
    ``DEFAULT_WMESH`` as in training. Only the ground-truth encoder and the
    decoder run: the pose path does not reach this term."""
    total = 0.0
    for _, _, posed_part in dataset:
        z_gt = mesh_encode(params, "enc_gt", ag.Var(posed_part.vertices), ops, config)
        v_from_gt = decode(params, z_gt, ops, config).value
        total += DEFAULT_WMESH * float(np.mean(np.abs(v_from_gt - posed_part.vertices)))
    return total / len(dataset)


# ---------------------------------------------------------------------------
# Parameter file: magic, tensor count, then per tensor
# (u16 name length, name utf-8, u8 ndim, u32 dims..., float64 LE payload)
# ---------------------------------------------------------------------------

def save_params(path, params: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.asarray(params[name].value, dtype="<f8")
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_params(path) -> dict:
    try:
        with open(path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise ValidationError(f"{path}: bad parameter-file magic")
            (count,) = struct.unpack("<I", fh.read(4))
            out = {}
            for _ in range(count):
                (nlen,) = struct.unpack("<H", fh.read(2))
                name = fh.read(nlen).decode()
                (ndim,) = struct.unpack("<B", fh.read(1))
                shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
                size = int(np.prod(shape)) if ndim else 1
                data = np.frombuffer(fh.read(8 * size), dtype="<f8").reshape(shape)
                out[name] = ag.Var(data.astype(float))
    except OSError as e:
        raise ValidationError(f"cannot read parameter file {path}: {e}") from e
    return out
