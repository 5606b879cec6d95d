"""Momentum gradient-descent training loop for the toy TL network, plus the
sectioned binary parameter format.

Each training step is one forward and one backward pass over the stacked
batch: the samples' vertex features are stacked sample-major and every fixed
mesh operator acts as its block-diagonal copy, built with its transpose once
per batch size and cached on the PartOps (see ``network``)."""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError, ValidationError
from . import autograd as ag
from .network import (NetConfig, PartOps, check_params, decode, mesh_encode,
                      tl_training_forward)

MAGIC = b"CPNETP1\x00"
LR_DECAY = 0.99      # per epoch
MAX_GRAD_NORM = 5.0  # global-norm clip; keeps momentum stable
WEIGHT_DECAY = 5e-5
BATCH_SIZE = 16
MOMENTUM = 0.9
DEFAULT_WZ = 5.0      # weight of the code-consistency term
DEFAULT_WMESH = 50.0  # weight of each mesh term


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 50
    seed: int = 0
    max_steps: int | None = None  # optional hard cap across epochs

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValidationError(f"max steps must be >= 1, got {self.max_steps}")
        if not self.lr >= 0:
            raise ValidationError(f"learning rate must be >= 0, got {self.lr}")
        if self.seed < 0:
            raise ValidationError(f"a training seed must be >= 0, got {self.seed}")


def tl_loss(out: dict):
    """(total, mesh) loss Vars of a ``tl_training_forward`` output.

    The total is the code-consistency term plus the mesh term on the decodes
    of Z_gt and of Z_pred, weighted by ``DEFAULT_WZ`` and ``DEFAULT_WMESH``;
    ``mesh`` is the weighted Z_gt-path term. Each mean runs over the stacked
    batch, which equals the average of the per-sample means.
    """
    mesh_gt = ag.scale(ag.l1_mean(out["V_from_gt"], out["V_posed"]), DEFAULT_WMESH)
    total = ag.add_scalars([
        ag.scale(ag.l1_mean(out["Z_pred"], out["Z_gt"]), DEFAULT_WZ),
        mesh_gt,
        ag.scale(ag.l1_mean(out["V_from_pred"], out["V_posed"]), DEFAULT_WMESH)])
    return total, mesh_gt


def train_toy(dataset, params: dict, ops: PartOps, config: NetConfig = NetConfig(),
              train_cfg: TrainConfig = TrainConfig()):
    """Overfit the TL network on (pose, rest part, posed part) triplets.

    Both decoder paths are supervised (see ``tl_loss``). Each step runs its
    batch of ``BATCH_SIZE`` samples through one ``tl_training_forward`` call
    and one backward pass, then takes a clipped momentum step (``MOMENTUM``,
    ``WEIGHT_DECAY``). Returns (params, loss curve) where the curve has one
    {"total", "mesh"} entry per step.
    """
    if not dataset:
        raise ValidationError("training dataset is empty")
    check_params(params, config, ops, dataset[0][0].num_joints)
    rng = np.random.default_rng(train_cfg.seed)
    velocity = {k: np.zeros_like(v.value) for k, v in params.items()}
    curve = []
    lr = train_cfg.lr
    steps = 0
    for _ in range(train_cfg.epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), BATCH_SIZE):
            poses, rests, posed = zip(*(dataset[i]
                                        for i in order[start:start + BATCH_SIZE]))
            out = tl_training_forward(poses, rests, posed, params, ops, config,
                                      training=True, rng=rng)
            total, mesh_gt = tl_loss(out)
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
                g = g + WEIGHT_DECAY * v.value
                velocity[k] = MOMENTUM * velocity[k] + g
                v.value = v.value - lr * velocity[k]
            curve.append({"total": float(total.value), "mesh": float(mesh_gt.value)})
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
    if not dataset:
        raise ValidationError("evaluation dataset is empty")
    check_params(params, config, ops, dataset[0][0].num_joints)
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
            file_size = os.fstat(fh.fileno()).st_size

            def read(n):
                if n > file_size - fh.tell():
                    raise ValidationError(
                        f"{path}: truncated parameter file (wanted {n} bytes at "
                        f"offset {fh.tell()}, file has {file_size})")
                return fh.read(n)

            if fh.read(len(MAGIC)) != MAGIC:
                raise ValidationError(f"{path}: bad parameter-file magic")
            (count,) = struct.unpack("<I", read(4))
            out = {}
            for _ in range(count):
                (nlen,) = struct.unpack("<H", read(2))
                try:
                    name = read(nlen).decode()
                except UnicodeDecodeError as e:
                    raise ValidationError(f"{path}: tensor name is not UTF-8") from e
                (ndim,) = struct.unpack("<B", read(1))
                shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
                data = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
                out[name] = ag.Var(data.astype(float))
    except OSError as e:
        raise ValidationError(f"cannot read parameter file {path}: {e}") from e
    return out
