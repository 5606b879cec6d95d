"""Toy-scale pose-to-mesh networks built from spiral convolutions.

The assembly mirrors the TL-embedding layout: a pose encoder (input linear,
two linear residual blocks, output linear) and a spiral-conv mesh encoder
(SC-ELU-DS x 4 + linear) both produce 32-d codes; their concatenation passes
through a fusion linear to give the predicted code; a shared spiral decoder
(linear + US-SC-ELU x 4 + SC) turns codes into part vertices. A second mesh
encoder embeds the ground-truth posed part during training, and the decoder
can run from either code.

Features of a batch of B samples are stacked sample-major: vertex features
are (B*N, C) with sample b on rows b*N .. b*N + N-1, codes are (B, Z) and
flattened poses (B, 3J). Each fixed mesh operator M then acts as its
block-diagonal copy kron(I_B, M), so one forward and one backward pass cover
the whole batch; a single sample is the case B = 1. The rest encoder runs
once per distinct rest part in the batch, not once per sample: a player's
part is trained on many poses, so a batch holds U <= B distinct rest parts,
often one, and each sample takes its part's code.

All math is float64 and flows through the local autograd tape so analytic
gradients are available for every parameter.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..errors import ValidationError
from ..mesh import PartMesh
from ..model import Pose3D
from . import autograd as ag
from .sampling import SamplingOperator, build_sampling, check_sampling_factor
from .spirals import SpiralIndices, build_spirals


# the TL network layout: four SC layers down, five up, the last one to XYZ
ENCODER_CHANNELS = (16, 32, 64, 64)
DECODER_CHANNELS = (64, 32, 16, 16, 3)
ENCODER_DILATIONS = (2, 2, 1, 1)
DECODER_DILATIONS = (1, 1, 2, 2, 2)
POSE_HIDDEN = 64  # width of the pose encoder's residual blocks
LATENT = 32       # width of the pose and mesh codes
DROPOUT = 0.5     # drop probability of the pose encoder's hidden units in training


@dataclass(frozen=True)
class NetConfig:
    spiral_length: int = 9
    ds_factors: tuple = (2, 2, 2, 1)

    def __post_init__(self):
        if len(self.ds_factors) != len(ENCODER_CHANNELS):
            raise ValidationError(f"ds_factors needs one factor per encoder SC layer "
                                  f"({len(ENCODER_CHANNELS)}), got {len(self.ds_factors)}")
        for f in self.ds_factors:
            check_sampling_factor(f)


class StackedOps(NamedTuple):
    """A PartOps' operators for B stacked samples: each entry is a
    ``(kron(I_B, M), its transpose)`` pair of CSR matrices."""

    enc: tuple    # spiral gathers per encoder SC layer
    down: tuple   # sampler D per level transition
    up: tuple     # sampler U per level transition
    dec: tuple    # spiral gathers per decoder SC layer
    final: tuple  # final decoder SC layer's gather


def _block_diagonal(M, batch: int) -> tuple:
    MB = sp.kron(sp.identity(batch, format="csr"), M, format="csr")
    return MB, MB.T.tocsr()


@dataclass(frozen=True)
class PartOps:
    """Per-part machinery: mesh pyramid, sampling operators, spiral tables.

    A decoder SC layer runs on the level and with the dilation of an encoder
    layer (``DECODER_DILATIONS`` is ``ENCODER_DILATIONS`` reversed, then the
    finest level's again), so the build makes one ``SpiralIndices`` per
    distinct (level, dilation) and the layers that share one hold the same
    object: 4 tables for 9 layers. ``stacked`` forms one block-diagonal pair
    per distinct table."""

    meshes: tuple
    samplers: tuple           # SamplingOperator per level transition
    spirals_enc: tuple        # per encoder SC layer (fine -> coarse)
    spirals_dec: tuple        # per decoder SC layer (coarse -> fine)
    spirals_final: SpiralIndices
    _stacked: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)  # batch size -> StackedOps

    @staticmethod
    def build(mesh: PartMesh, config: NetConfig = NetConfig()) -> "PartOps":
        meshes = [mesh]
        samplers = []
        for f in config.ds_factors:
            op = build_sampling(meshes[-1], f)
            samplers.append(op)
            meshes.append(op.coarse)
        tables = {}  # (level, dilation) -> SpiralIndices

        def spirals(level, dilation):
            if (level, dilation) not in tables:
                tables[level, dilation] = build_spirals(meshes[level], config.spiral_length,
                                                        dilation)
            return tables[level, dilation]

        L = len(config.ds_factors)
        spirals_enc = tuple(spirals(k, ENCODER_DILATIONS[k]) for k in range(L))
        spirals_dec = tuple(spirals(L - 1 - k, DECODER_DILATIONS[k]) for k in range(L))
        spirals_final = spirals(0, DECODER_DILATIONS[L])
        return PartOps(tuple(meshes), tuple(samplers), spirals_enc, spirals_dec,
                       spirals_final)

    @property
    def coarsest_vertices(self) -> int:
        return self.meshes[-1].num_vertices

    def stacked(self, batch: int) -> StackedOps:
        """The operators for ``batch`` stacked samples, built on first use and
        kept for the life of this PartOps."""
        out = self._stacked.get(batch)
        if out is None:
            pairs = {}  # id(table) -> its pair, one per distinct spiral table

            def gather(table):
                if id(table) not in pairs:
                    pairs[id(table)] = _block_diagonal(table.gather, batch)
                return pairs[id(table)]

            out = self._stacked[batch] = StackedOps(
                enc=tuple(gather(s) for s in self.spirals_enc),
                down=tuple(_block_diagonal(s.D, batch) for s in self.samplers),
                up=tuple(_block_diagonal(s.U, batch) for s in self.samplers),
                dec=tuple(gather(s) for s in self.spirals_dec),
                final=gather(self.spirals_final))
        return out


def _glorot(rng, fan_in, fan_out):
    s = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, s, size=(fan_in, fan_out))


def param_shapes(config: NetConfig, ops: PartOps, num_joints: int) -> dict:
    """Parameter layout (name -> shape), in initialisation order, of the TL
    network for one body part driven by a ``num_joints``-joint pose."""
    S, Z, h = config.spiral_length, LATENT, POSE_HIDDEN
    p = {}

    def lin(name, nin, nout):
        p[f"{name}.W"] = (nin, nout)
        p[f"{name}.b"] = (nout,)

    lin("pose.lin_in", 3 * num_joints, h)
    for blk in ("pose.res1", "pose.res2"):
        lin(f"{blk}.l1", h, h)
        lin(f"{blk}.l2", h, h)
    lin("pose.lin_out", h, Z)

    n4 = ops.coarsest_vertices
    for enc in ("enc_rest", "enc_gt"):
        cin = 3
        for k, cout in enumerate(ENCODER_CHANNELS):
            lin(f"{enc}.sc{k}", S * cin, cout)
            cin = cout
        lin(f"{enc}.lin", n4 * ENCODER_CHANNELS[-1], Z)

    lin("fuse", 2 * Z, Z)

    lin("dec.lin", Z, n4 * ENCODER_CHANNELS[-1])
    cin = ENCODER_CHANNELS[-1]
    for k, cout in enumerate(DECODER_CHANNELS[:-1]):
        lin(f"dec.sc{k}", S * cin, cout)
        cin = cout
    lin("dec.sc_final", S * cin, DECODER_CHANNELS[-1])
    return p


def init_params(config: NetConfig, ops: PartOps, num_joints: int,
                rng: np.random.Generator) -> dict:
    """Fresh parameter dict (name -> autograd Var) for one body part."""
    return {name: ag.Var(_glorot(rng, *shape) if name.endswith(".W") else np.zeros(shape))
            for name, shape in param_shapes(config, ops, num_joints).items()}


def check_params(params: dict, config: NetConfig, ops: PartOps, num_joints: int) -> None:
    """Raise ValidationError naming the first tensor of ``params`` that does
    not fit ``param_shapes(config, ops, num_joints)`` or holds a NaN or an
    infinity."""
    expected = param_shapes(config, ops, num_joints)
    for name, shape in expected.items():
        if name not in params:
            raise ValidationError(f"parameter {name} is missing")
        if params[name].shape != shape:
            raise ValidationError(
                f"parameter {name} has shape {params[name].shape}, expected {shape} "
                f"for a {num_joints}-joint pose and a "
                f"{ops.meshes[0].num_vertices}-vertex part")
        if not np.isfinite(params[name].value).all():
            raise ValidationError(f"parameter {name} has non-finite entries")
    extra = sorted(set(params) - set(expected))
    if extra:
        raise ValidationError(f"unexpected parameter {extra[0]}")


def _sc(x, gather, W, b):
    """Spiral conv of stacked (rows, C) features through a stacked gather
    (a ``(G, G.T)`` pair), as one tape node."""
    return ag.gather_linear(*gather, x, W, b)


_POSE_DROPOUT_LAYERS = 4  # two residual blocks of two linear layers


def pose_encode(params, pose_flat: ag.Var, training: bool = False, rng=None) -> ag.Var:
    masks = None
    if training and DROPOUT > 0:
        keep = 1.0 - DROPOUT
        # drawn sample by sample, then layer by layer: one sample's masks
        # are the same draws whatever batch it sits in
        draws = rng.random((pose_flat.shape[0], _POSE_DROPOUT_LAYERS, POSE_HIDDEN))
        masks = (draws < keep).astype(float) / keep
    x = ag.linear(pose_flat, params["pose.lin_in.W"], params["pose.lin_in.b"])
    layer = 0
    for blk in ("pose.res1", "pose.res2"):
        y = x
        for sub in ("l1", "l2"):
            y = ag.linear(y, params[f"{blk}.{sub}.W"], params[f"{blk}.{sub}.b"])
            y = ag.relu(y)
            if masks is not None:
                y = ag.dropout(y, masks[:, layer])
            layer += 1
        x = ag.add(x, y)
    return ag.linear(x, params["pose.lin_out.W"], params["pose.lin_out.b"])


def mesh_encode(params, prefix: str, verts: ag.Var, ops: PartOps,
                config: NetConfig) -> ag.Var:
    """(B*N, 3) stacked vertices -> (B, Z) codes."""
    batch = verts.shape[0] // ops.meshes[0].num_vertices
    stacked = ops.stacked(batch)
    x = verts
    for k in range(len(config.ds_factors)):
        x = _sc(x, stacked.enc[k], params[f"{prefix}.sc{k}.W"], params[f"{prefix}.sc{k}.b"])
        x = ag.elu(x)
        D, DT = stacked.down[k]
        x = ag.sparse_mm(D, x, DT)
    flat = ag.reshape(x, (batch, -1))
    return ag.linear(flat, params[f"{prefix}.lin.W"], params[f"{prefix}.lin.b"])


def decode(params, z: ag.Var, ops: PartOps, config: NetConfig) -> ag.Var:
    """(B, Z) codes -> (B*N, 3) stacked vertices."""
    batch = z.shape[0]
    stacked = ops.stacked(batch)
    x = ag.linear(z, params["dec.lin.W"], params["dec.lin.b"])
    x = ag.reshape(x, (batch * ops.coarsest_vertices, ENCODER_CHANNELS[-1]))
    L = len(config.ds_factors)
    for k in range(L):
        U, UT = stacked.up[L - 1 - k]
        x = ag.sparse_mm(U, x, UT)
        x = _sc(x, stacked.dec[k], params[f"dec.sc{k}.W"], params[f"dec.sc{k}.b"])
        x = ag.elu(x)
    return _sc(x, stacked.final, params["dec.sc_final.W"], params["dec.sc_final.b"])


def fuse(params, z_pose: ag.Var, z_rest: ag.Var) -> ag.Var:
    zc = ag.concat([z_pose, z_rest], axis=1)
    return ag.linear(zc, params["fuse.W"], params["fuse.b"])


def tl_graph(pose_positions: np.ndarray, rest_vertices: np.ndarray, params: dict,
             ops: PartOps, config: NetConfig, training: bool = False, rng=None):
    """Autograd graph of the test-time path: returns (Z_pred, V_pred) Vars.

    Takes one sample, a (J, 3) pose and (N, 3) rest vertices, or B stacked
    ones, (B, J, 3) poses and (B*N, 3) rest vertices. The rest encoder runs
    once per distinct rest part: samples whose (N, 3) blocks have the same
    bytes share one code, taken back to their rows by ``ag.take_rows``."""
    n = ops.meshes[0].num_vertices
    blocks = np.asarray(rest_vertices, dtype=float).reshape(-1, n, 3)
    batch = len(blocks)
    rows = {}  # block bytes -> row of its code, in order of first occurrence
    index = [rows.setdefault(block.tobytes(), len(rows)) for block in blocks]
    distinct = blocks[np.unique(index, return_index=True)[1]]
    pose_flat = ag.Var(np.asarray(pose_positions, dtype=float).reshape(batch, -1))
    z_pose = pose_encode(params, pose_flat, training, rng)
    z_codes = mesh_encode(params, "enc_rest", ag.Var(distinct.reshape(-1, 3)), ops, config)
    z_rest = ag.take_rows(z_codes, index)
    z_pred = fuse(params, z_pose, z_rest)
    v_pred = decode(params, z_pred, ops, config)
    return z_pred, v_pred


def tl_forward(pose: Pose3D, rest_part: PartMesh, params: dict, ops: PartOps,
               config: NetConfig = NetConfig()) -> dict:
    """Inference: pose + rest part -> predicted code and posed vertices."""
    if rest_part.num_vertices != ops.meshes[0].num_vertices:
        raise ValidationError("rest part does not match the operator pyramid")
    check_params(params, config, ops, pose.num_joints)
    z_pred, v_pred = tl_graph(pose.positions, rest_part.vertices, params, ops, config)
    return {"Z_pred": z_pred.value.ravel().copy(), "V_pred": v_pred.value.copy()}


def tl_training_forward(poses, rest_parts, posed_parts, params: dict, ops: PartOps,
                        config: NetConfig = NetConfig(), training: bool = True,
                        rng=None) -> dict:
    """Training path over a batch given as three equal-length sequences.

    Returns stacked Vars: both codes (B, Z), plus the decodes of Z_gt and
    Z_pred and the posed vertices, each (B*N, 3)."""
    if not len(poses) == len(rest_parts) == len(posed_parts) >= 1:
        raise ValidationError("a batch needs one pose, rest part and posed part "
                              "per sample, and at least one sample")
    n = ops.meshes[0].num_vertices
    if any(p.num_vertices != n for p in (*rest_parts, *posed_parts)):
        raise ValidationError("part does not match the operator pyramid")
    if len({p.num_joints for p in poses}) != 1:
        raise ValidationError("poses in a batch must share a joint count")
    z_pred, v_from_pred = tl_graph(np.stack([p.positions for p in poses]),
                                   np.concatenate([p.vertices for p in rest_parts]),
                                   params, ops, config, training, rng)
    posed = ag.Var(np.concatenate([p.vertices for p in posed_parts]))
    z_gt = mesh_encode(params, "enc_gt", posed, ops, config)
    v_from_gt = decode(params, z_gt, ops, config)
    return {"Z_pred": z_pred, "Z_gt": z_gt, "V_from_pred": v_from_pred,
            "V_from_gt": v_from_gt, "V_posed": posed}

