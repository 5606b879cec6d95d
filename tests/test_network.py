import re

import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.mesh import BodyMesh
from courtpose.meshnet import (NetConfig, PartOps, build_spirals, identity_offsets,
                               identity_offsets_loss, init_identity_params,
                               init_params, tl_forward)
from courtpose.meshnet import autograd as ag
from courtpose.meshnet import network
from courtpose.meshnet.network import (DECODER_DILATIONS, ENCODER_DILATIONS, decode,
                                       tl_graph)
from courtpose.model import Pose3D
from courtpose.primitives import capsule, tri_grid
from courtpose.synth import SceneConfig, canonical_body
from helpers import sum_all

CFG = NetConfig()


@pytest.fixture(scope="module")
def part_ops():
    mesh = capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms")
    return mesh, PartOps.build(mesh, CFG)


def random_pose(rng, joints=35):
    pos = rng.normal(scale=0.3, size=(joints, 3))
    pos[0] = 0
    return Pose3D(pos)


def numeric_grad(fn, var, idx, h=1e-5):
    old = var.value[idx]
    var.value[idx] = old + h
    fp = fn()
    var.value[idx] = old - h
    fm = fn()
    var.value[idx] = old
    return (fp - fm) / (2 * h)


@pytest.mark.parametrize("ds_factors", [(2, 2, 2), (2, 2, 2, 1, 1)])
def test_net_config_needs_one_ds_factor_per_encoder_layer(ds_factors):
    with pytest.raises(ValidationError, match=f"got {len(ds_factors)}"):
        NetConfig(ds_factors=ds_factors)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.5, 0, "2"])
def test_net_config_ds_factors_are_finite_numbers_of_at_least_one(factor):
    with pytest.raises(ValidationError, match=f"got {factor!r}"):
        NetConfig(ds_factors=(2, factor, 2, 1))


@pytest.mark.parametrize("dropout", [1.0, -0.5, 1.5, float("nan")])
def test_net_config_dropout_lies_in_zero_to_one(dropout):
    with pytest.raises(ValidationError, match=f"got {dropout!r}"):
        NetConfig(dropout=dropout)


@pytest.mark.parametrize("dropout", [0.0, 0.5, 0.999])
def test_net_config_accepts_dropout_below_one(dropout):
    assert NetConfig(dropout=dropout).dropout == dropout


# ---------------------------------------------------------------------------
# PartOps: one spiral table per distinct (level, dilation)
# ---------------------------------------------------------------------------

def body_parts():
    return canonical_body(SceneConfig().voxel_res)[1].parts


def assert_tables_match_per_layer_builds(mesh, config):
    """The oracle builds every SC layer's table on its own, one call per
    layer, on the layer's pyramid level."""
    ops = PartOps.build(mesh, config)
    L = len(config.ds_factors)
    per_layer = (
        [(ops.spirals_enc[k], ops.meshes[k], ENCODER_DILATIONS[k]) for k in range(L)]
        + [(ops.spirals_dec[k], ops.meshes[L - 1 - k], DECODER_DILATIONS[k])
           for k in range(L)]
        + [(ops.spirals_final, ops.meshes[0], DECODER_DILATIONS[L])])
    for table, level_mesh, dilation in per_layer:
        want = build_spirals(level_mesh, config.spiral_length, dilation)
        assert np.array_equal(table.indices, want.indices), mesh.part
        assert table.dilation == dilation


def test_partops_tables_match_per_layer_builds_on_body_parts():
    for mesh in body_parts():
        assert_tables_match_per_layer_builds(mesh, CFG)


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
def test_partops_tables_match_per_layer_builds_on_tri_grids(factor):
    assert_tables_match_per_layer_builds(tri_grid(12, 11),
                                         NetConfig(ds_factors=(factor, factor, 1, 1)))


def test_partops_layers_share_one_table_per_level_and_dilation(part_ops):
    _, ops = part_ops
    enc, dec = ops.spirals_enc, ops.spirals_dec
    assert [dec[k] is enc[3 - k] for k in range(4)] == [True] * 4
    assert ops.spirals_final is enc[0]
    assert len({id(t) for t in (*enc, *dec, ops.spirals_final)}) == 4
    stacked = ops.stacked(3)
    assert [stacked.dec[k] is stacked.enc[3 - k] for k in range(4)] == [True] * 4
    assert stacked.final is stacked.enc[0]
    assert ops.stacked(3) is stacked


def test_partops_build_calls_build_spirals_once_per_table(monkeypatch, part_ops):
    mesh, _ = part_ops
    calls = []

    def counting(m, length, dilation):
        calls.append(dilation)
        return build_spirals(m, length, dilation)

    monkeypatch.setattr(network, "build_spirals", counting)
    PartOps.build(mesh, CFG)
    assert sorted(calls) == [1, 1, 2, 2]


# ---------------------------------------------------------------------------
# autograd op-level checks
# ---------------------------------------------------------------------------

def test_autograd_elementary_ops():
    rng = np.random.default_rng(0)
    a = ag.Var(rng.normal(size=(4, 3)))
    b = ag.Var(rng.normal(size=(3, 5)))
    c = ag.Var(rng.normal(size=5))
    out = sum_all(ag.elu(ag.linear(a, b, c)))
    ag.backward(out)

    def f():
        return float(np.sum(np.where((a.value @ b.value + c.value) > 0,
                                     a.value @ b.value + c.value,
                                     np.exp(np.minimum(a.value @ b.value + c.value, 0)) - 1)))

    for var in (a, b, c):
        idx = tuple(rng.integers(0, s) for s in var.value.shape)
        fd = numeric_grad(f, var, idx)
        assert abs(fd - var.grad[idx]) / max(abs(fd), 1e-8) < 1e-4


def test_autograd_l1_mean():
    rng = np.random.default_rng(1)
    a = ag.Var(rng.normal(size=(6, 3)))
    b = ag.Var(rng.normal(size=(6, 3)))
    out = ag.l1_mean(a, b)
    ag.backward(out)
    idx = (2, 1)
    fd = numeric_grad(lambda: float(np.mean(np.abs(a.value - b.value))), a, idx)
    assert abs(fd - a.grad[idx]) < 1e-7


# ---------------------------------------------------------------------------
# network-level behavior
# ---------------------------------------------------------------------------

def test_zero_params_give_zero_output(part_ops):
    mesh, ops = part_ops
    rng = np.random.default_rng(0)
    params = init_params(CFG, ops, 35, rng)
    zeros = {k: ag.Var(np.zeros_like(v.value)) for k, v in params.items()}
    out = tl_forward(random_pose(rng), mesh, zeros, ops, CFG)
    assert np.abs(out["V_pred"]).max() == 0.0
    assert np.abs(out["Z_pred"]).max() == 0.0


def test_decoder_path_equivalence(part_ops):
    """Decoding Z_gt equals decoding Z_pred whenever the codes coincide."""
    mesh, ops = part_ops
    rng = np.random.default_rng(2)
    params = init_params(CFG, ops, 35, rng)
    z = ag.Var(rng.normal(size=(1, CFG.latent)))
    v1 = decode(params, z, ops, CFG)
    v2 = decode(params, ag.Var(z.value.copy()), ops, CFG)
    assert np.array_equal(v1.value, v2.value)


def test_tl_forward_deterministic(part_ops):
    mesh, ops = part_ops
    rng = np.random.default_rng(3)
    params = init_params(CFG, ops, 35, rng)
    pose = random_pose(rng)
    a = tl_forward(pose, mesh, params, ops, CFG)
    b = tl_forward(pose, mesh, params, ops, CFG)
    assert np.array_equal(a["V_pred"], b["V_pred"])


@pytest.mark.parametrize("pose_joints,param_joints", [(10, 35), (35, 20)])
def test_tl_forward_rejects_params_for_another_joint_count(part_ops, pose_joints,
                                                           param_joints):
    mesh, ops = part_ops
    rng = np.random.default_rng(11)
    params = init_params(CFG, ops, param_joints, rng)
    with pytest.raises(ValidationError, match=rf"pose\.lin_in\.W .* {pose_joints}-joint"):
        tl_forward(random_pose(rng, pose_joints), mesh, params, ops, CFG)


@pytest.mark.parametrize("edit,name", [
    (lambda p: p.update({"dec.sc3.W": ag.Var(np.zeros((5, 5)))}), "dec.sc3.W"),
    (lambda p: p.pop("fuse.b"), "fuse.b"),
    (lambda p: p.update({"extra.W": ag.Var(np.zeros(1))}), "extra.W"),
], ids=["misshapen", "missing", "unexpected"])
def test_tl_forward_names_the_tensor_that_does_not_fit(part_ops, edit, name):
    mesh, ops = part_ops
    rng = np.random.default_rng(12)
    params = init_params(CFG, ops, 35, rng)
    edit(params)
    with pytest.raises(ValidationError, match=re.escape(name)):
        tl_forward(random_pose(rng), mesh, params, ops, CFG)


def test_tl_forward_gradients_match_finite_differences(part_ops):
    mesh, ops = part_ops
    rng = np.random.default_rng(4)
    params = init_params(CFG, ops, 35, rng)
    pose = random_pose(rng)

    _, v = tl_graph(pose.positions, mesh.vertices, params, ops, CFG)
    loss = sum_all(v)
    for p in params.values():
        p.zero_grad()
    ag.backward(loss)

    def f():
        _, vv = tl_graph(pose.positions, mesh.vertices, params, ops, CFG)
        return float(vv.value.sum())

    for name in ("pose.lin_in.W", "pose.res2.l1.W", "enc_rest.sc1.W",
                 "enc_rest.lin.b", "fuse.W", "dec.lin.W", "dec.sc3.W",
                 "dec.sc_final.b"):
        var = params[name]
        for _ in range(2):
            idx = tuple(rng.integers(0, s) for s in var.value.shape)
            fd = numeric_grad(f, var, idx)
            an = var.grad[idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4, name


# ---------------------------------------------------------------------------
# identity offsets
# ---------------------------------------------------------------------------

def test_identity_offsets_zero_params_is_template():
    rng = np.random.default_rng(7)
    template = BodyMesh((capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms"),))
    params = init_identity_params(8, rng)
    zeros = {k: ag.Var(np.zeros_like(v.value)) for k, v in params.items()}
    out = identity_offsets(template, rng.normal(size=8), zeros)
    assert np.array_equal(out.merged()[0], template.merged()[0])


def test_identity_offsets_self_loss_zero():
    rng = np.random.default_rng(8)
    template = BodyMesh((capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms"),))
    params = init_identity_params(4, rng)
    feature = rng.normal(size=4)
    deformed = identity_offsets(template, feature, params)
    loss, _ = identity_offsets_loss(template, feature, params, deformed)
    assert loss == 0.0


def test_identity_offsets_gradients():
    rng = np.random.default_rng(9)
    template = BodyMesh((capsule((0, 0, 0), (0, 0.3, 0), 0.06, part="arms"),))
    params = init_identity_params(6, rng)
    feature = rng.normal(size=6)
    target = BodyMesh(tuple(
        p.with_vertices(p.vertices + rng.normal(scale=0.01, size=p.vertices.shape))
        for p in template.parts))
    _, grads = identity_offsets_loss(template, feature, params, target)

    def f():
        loss, _ = identity_offsets_loss(template, feature, params, target)
        return loss

    for name, var in params.items():
        idx = tuple(rng.integers(0, s) for s in var.value.shape)
        fd = numeric_grad(f, var, idx)
        an = grads[name][idx]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4, name


def test_identity_offsets_feature_dim_check():
    rng = np.random.default_rng(10)
    template = BodyMesh((capsule((0, 0, 0), (0, 0.3, 0), 0.06, part="arms"),))
    params = init_identity_params(6, rng)
    with pytest.raises(ValidationError):
        identity_offsets(template, rng.normal(size=3), params)
