import re

import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.meshnet import NetConfig, PartOps, build_spirals, init_params, tl_forward
from courtpose.meshnet import autograd as ag
from courtpose.meshnet import network
from courtpose.meshnet.network import (DECODER_DILATIONS, ENCODER_DILATIONS, decode,
                                       tl_graph)
from courtpose.model import Pose3D
from courtpose.primitives import capsule
from courtpose.synth import SceneConfig, canonical_body
from helpers import sum_all, tri_grid

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
    z = ag.Var(rng.normal(size=(1, network.LATENT)))
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
    (lambda p: p.update({"enc_rest.sc2.W": ag.Var(p["enc_rest.sc2.W"].value * np.nan)}),
     "enc_rest.sc2.W"),
    (lambda p: p.update({"dec.lin.b": ag.Var(p["dec.lin.b"].value - np.inf)}), "dec.lin.b"),
], ids=["misshapen", "missing", "unexpected", "nan", "infinite"])
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


def tl_graph_full_stack(pose_positions, rest_vertices, params, ops, config,
                        training=False, rng=None):
    """The oracle ``tl_graph``: the rest encoder runs on every sample's own
    copy of its rest part, shared or not."""
    rest = ag.Var(np.asarray(rest_vertices, dtype=float))
    batch = rest.shape[0] // ops.meshes[0].num_vertices
    pose_flat = ag.Var(np.asarray(pose_positions, dtype=float).reshape(batch, -1))
    z_pose = network.pose_encode(params, pose_flat, training, rng)
    z_rest = network.mesh_encode(params, "enc_rest", rest, ops, config)
    z_pred = network.fuse(params, z_pose, z_rest)
    return z_pred, decode(params, z_pred, ops, config)


def graph_and_grads(graph, poses, rests, params, ops, seed):
    """Values of (Z_pred, V_pred) and every parameter's gradient under fixed
    random upstream gradients, with dropout on."""
    rng = np.random.default_rng(seed)
    z, v = graph(np.stack([p.positions for p in poses]),
                 np.concatenate([r.vertices for r in rests]), params, ops, CFG,
                 training=True, rng=rng)
    upstream = np.random.default_rng(seed + 1)
    loss = ag.add_scalars([sum_all(ag.dropout(z, upstream.normal(size=z.shape))),
                           sum_all(ag.dropout(v, upstream.normal(size=v.shape)))])
    for p in params.values():
        p.zero_grad()
    ag.backward(loss)
    return z.value, v.value, {k: p.grad for k, p in params.items()}, rng.random()


def jittered(mesh, rng):
    return mesh.with_vertices(mesh.vertices + rng.normal(scale=1e-3, size=mesh.vertices.shape))


def test_distinct_rest_parts_give_the_full_stack_bit_for_bit(part_ops):
    """With every rest part distinct, the rest encoder runs on the whole
    stack as before: values, gradients and dropout draws are equal."""
    mesh, ops = part_ops
    rng = np.random.default_rng(13)
    params = init_params(CFG, ops, 35, rng)
    poses = [random_pose(rng) for _ in range(5)]
    rests = [mesh] + [jittered(mesh, rng) for _ in range(4)]
    z, v, grads, draw = graph_and_grads(tl_graph, poses, rests, params, ops, 14)
    z_ref, v_ref, grads_ref, draw_ref = graph_and_grads(tl_graph_full_stack, poses, rests,
                                                        params, ops, 14)
    assert np.array_equal(z, z_ref) and np.array_equal(v, v_ref) and draw == draw_ref
    assert grads["enc_rest.sc0.W"] is not None and grads["enc_gt.sc0.W"] is None
    for k, g in grads.items():
        assert (g is None) == (grads_ref[k] is None), k
        assert g is None or np.array_equal(g, grads_ref[k]), k


def test_rest_encoder_runs_once_per_distinct_rest_part(part_ops, monkeypatch):
    """[r1, r2, r1, r1, r2]: the rest encoder's first spiral conv sees r1's
    rows, then r2's (the step against the per-sample loop is in
    test_training)."""
    mesh, ops = part_ops
    rng = np.random.default_rng(15)
    params = init_params(CFG, ops, 35, rng)
    poses = [random_pose(rng) for _ in range(5)]
    r1, r2 = mesh, jittered(mesh, rng)
    rests = [r1, r2, r1, r1, r2]
    rows = []
    gather_linear = ag.gather_linear

    def recording(M, MT, x, W, b):
        if W is params["enc_rest.sc0.W"]:
            rows.append(x.value.copy())
        return gather_linear(M, MT, x, W, b)

    monkeypatch.setattr(ag, "gather_linear", recording)
    graph_and_grads(tl_graph, poses, rests, params, ops, 16)
    assert len(rows) == 1
    assert np.array_equal(rows[0], np.concatenate([r1.vertices, r2.vertices]))

