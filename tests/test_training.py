import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.meshnet import (NetConfig, PartOps, init_params, load_params, network,
                               save_params, training)
from courtpose.meshnet import autograd as ag
from courtpose.meshnet.training import (DEFAULT_WMESH, DEFAULT_WZ, TrainConfig,
                                        eval_mesh_term, tl_loss, tl_training_forward,
                                        train_toy)
from courtpose.model import Pose3D, forward_kinematics
from courtpose.primitives import capsule
from courtpose.skinning import lbs
from courtpose.synth import SceneConfig, canonical_body, random_pose_transforms
from courtpose.toydata import TOY_PART, toy_part_dataset


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = NetConfig(spiral_length=6, ds_factors=(2, 2, 1, 1))
    mesh = capsule((0, 0, 0), (0, 0.3, 0), 0.06, part="arms", n_seg=8,
                   cap_rings=2, shaft_rings=1)
    ops = PartOps.build(mesh, cfg)
    rng = np.random.default_rng(0)
    dataset = []
    for _ in range(4):
        pos = rng.normal(scale=0.3, size=(35, 3))
        pos[0] = 0
        posed = mesh.with_vertices(
            mesh.vertices + rng.normal(scale=0.02, size=mesh.vertices.shape))
        dataset.append((Pose3D(pos), mesh, posed))
    return cfg, ops, dataset


def test_empty_dataset_rejected(tiny_setup):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        train_toy([], params, ops, cfg)


def test_eval_mesh_term_rejects_an_empty_dataset(tiny_setup):
    cfg, ops, _ = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="empty"):
        eval_mesh_term([], params, ops, cfg)


@pytest.mark.parametrize("joints, drop, message", [
    (20, None, r"parameter pose\.lin_in\.W has shape \(60, 64\), expected \(105, 64\)"),
    (35, "fuse.b", r"parameter fuse\.b is missing"),
])
def test_training_entry_points_name_the_parameter_that_does_not_fit(
        tiny_setup, joints, drop, message):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, joints, np.random.default_rng(0))
    params.pop(drop, None)
    for run in (lambda: train_toy(dataset, params, ops, cfg, TrainConfig(max_steps=1)),
                lambda: eval_mesh_term(dataset, params, ops, cfg)):
        with pytest.raises(ValidationError, match=message):
            run()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_training_entry_points_reject_non_finite_parameters(tiny_setup, value):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(0))
    params["enc_gt.sc1.b"].value[-1] = value
    for run in (lambda: train_toy(dataset, params, ops, cfg, TrainConfig(max_steps=1)),
                lambda: eval_mesh_term(dataset, params, ops, cfg)):
        with pytest.raises(ValidationError, match=r"enc_gt\.sc1\.b has non-finite"):
            run()


def test_zero_learning_rate_leaves_params_unchanged(tiny_setup, monkeypatch):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(1))
    before = {k: v.value.copy() for k, v in params.items()}
    monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
    train_toy(dataset, params, ops, cfg, TrainConfig(lr=0.0, max_steps=5, epochs=5))
    for k, v in params.items():
        assert np.array_equal(v.value, before[k])


def test_loss_non_increasing_at_tiny_lr_full_batch(tiny_setup, monkeypatch):
    """Descent-lemma style check: full-batch steps at lr 1e-5 with no
    momentum, dropout or weight decay cannot increase the loss."""
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(2))
    monkeypatch.setattr(network, "DROPOUT", 0.0)
    monkeypatch.setattr(training, "MOMENTUM", 0.0)
    monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
    monkeypatch.setattr(training, "BATCH_SIZE", len(dataset))
    _, curve = train_toy(dataset, params, ops, cfg,
                         TrainConfig(lr=1e-5, epochs=30, max_steps=30))
    totals = [c["total"] for c in curve]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_short_training_reduces_loss_deterministically(tiny_setup):
    cfg, ops, dataset = tiny_setup
    tc = TrainConfig(lr=2e-3, max_steps=40, epochs=100, seed=3)

    params1 = init_params(cfg, ops, 35, np.random.default_rng(4))
    before = eval_mesh_term(dataset, params1, ops, cfg)
    _, curve1 = train_toy(dataset, params1, ops, cfg, tc)
    after = eval_mesh_term(dataset, params1, ops, cfg)
    assert after < before

    params2 = init_params(cfg, ops, 35, np.random.default_rng(4))
    _, curve2 = train_toy(dataset, params2, ops, cfg, tc)
    assert [c["total"] for c in curve1] == [c["total"] for c in curve2]
    for k in params1:
        assert np.array_equal(params1[k].value, params2[k].value)


def test_tl_loss_zero_and_weights():
    def loss(z_pred, z_gt, v_from_gt, v_from_pred, v_posed):
        total, mesh = tl_loss({"Z_pred": ag.Var(z_pred), "Z_gt": ag.Var(z_gt),
                               "V_from_gt": ag.Var(v_from_gt),
                               "V_from_pred": ag.Var(v_from_pred),
                               "V_posed": ag.Var(v_posed)})
        return float(total.value), float(mesh.value)

    rng = np.random.default_rng(5)
    z = rng.normal(size=(1, 32))
    v = rng.normal(size=(10, 3))
    assert loss(z, z, v, v, v) == (0.0, 0.0)

    # hand toy: 2 vertices, manual arithmetic
    z1 = np.array([[1.0, 2.0]])
    z2 = np.array([[1.5, 1.0]])
    v1 = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    v2 = np.array([[0.5, 0.0, 0.0], [1.0, 0.0, 1.0]])
    v3 = np.array([[0.5, 0.0, 0.75], [1.0, 0.0, 1.0]])
    mesh = 50.0 * (0.5 + 1.0) / 6
    manual = 5.0 * (0.5 + 1.0) / 2 + mesh + 50.0 * 0.75 / 6
    total, got_mesh = loss(z1, z2, v1, v3, v2)
    assert total == pytest.approx(manual, rel=1e-15)
    assert got_mesh == pytest.approx(mesh, rel=1e-15)


def test_eval_mesh_term_is_the_mean_gt_path_mesh_loss(tiny_setup):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(6))
    total = 0.0
    for pose, rest, posed in dataset:
        out = tl_training_forward([pose], [rest], [posed], params, ops, cfg,
                                  training=False)
        total += DEFAULT_WMESH * float(np.mean(np.abs(out["V_from_gt"].value
                                                      - posed.vertices)))
    assert eval_mesh_term(dataset, params, ops, cfg) == total / len(dataset)


def test_params_binary_round_trip(tmp_path, tiny_setup):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(5))
    path = tmp_path / "params.bin"
    save_params(path, params)
    back = load_params(path)
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(back[k].value, params[k].value)


def test_params_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTPARAMS")
    with pytest.raises(ValidationError):
        load_params(path)


# the first tensor, "dec.lin.W", starts after the magic (8 bytes) and the
# tensor count (4): name length (2), name (9), ndim (1), then its dimensions
@pytest.mark.parametrize("offset,patch,message", [
    (14, b"\xff", "not UTF-8"),
    (24, b"\xff\xff\xff\xff", "truncated"),  # 2**32 - 1 rows
], ids=["name", "dimension"])
def test_params_corrupt_tensor_header(tmp_path, tiny_setup, offset, patch, message):
    cfg, ops, _ = tiny_setup
    path = tmp_path / "params.bin"
    save_params(path, init_params(cfg, ops, 35, np.random.default_rng(5)))
    data = bytearray(path.read_bytes())
    data[offset:offset + len(patch)] = patch
    path.write_bytes(bytes(data))
    with pytest.raises(ValidationError, match=message):
        load_params(path)


@pytest.mark.parametrize("field,value,message", [
    ("epochs", 0, "epochs"), ("max_steps", 0, "max steps"),
    ("lr", -1e-3, "learning rate")])
def test_train_config_rejects_settings_that_cannot_train(field, value, message):
    with pytest.raises(ValidationError, match=message):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# The batched step against the per-sample loop it replaced
# ---------------------------------------------------------------------------

def per_sample_step(batch, params, ops, cfg, rng):
    """Reference: each sample on its own tape, one sample after another, the
    total the mean of the per-sample losses."""
    losses = []
    mesh_term = 0.0
    for pose, rest, posed in batch:
        out = tl_training_forward([pose], [rest], [posed], params, ops, cfg,
                                  training=True, rng=rng)
        consistency = ag.scale(ag.l1_mean(out["Z_pred"], out["Z_gt"]), DEFAULT_WZ)
        mesh_gt = ag.scale(ag.l1_mean(out["V_from_gt"], out["V_posed"]), DEFAULT_WMESH)
        mesh_pred = ag.scale(ag.l1_mean(out["V_from_pred"], out["V_posed"]),
                             DEFAULT_WMESH)
        losses.append(ag.add_scalars([consistency, mesh_gt, mesh_pred]))
        mesh_term += float(mesh_gt.value) / len(batch)
    return ag.scale(ag.add_scalars(losses), 1.0 / len(batch)), mesh_term


def batched_step(batch, params, ops, cfg, rng):
    poses, rests, posed = zip(*batch)
    total, mesh_gt = tl_loss(tl_training_forward(poses, rests, posed, params, ops, cfg,
                                                 training=True, rng=rng))
    return total, float(mesh_gt.value)


def run_step(step, batch, params, ops, cfg, seed):
    rng = np.random.default_rng(seed)
    for v in params.values():
        v.zero_grad()
    total, mesh = step(batch, params, ops, cfg, rng)
    ag.backward(total)
    return float(total.value), mesh, {k: v.grad for k, v in params.items()}, rng.random()


@pytest.mark.parametrize("batch_size", [16, 2])
def test_batched_step_matches_per_sample_loop(tiny_setup, batch_size):
    """A 16-sample batch and a final 2-sample one, with dropout on and rest
    and posed targets mixed: same loss, mesh term, gradients and rng draws."""
    cfg, ops, dataset = tiny_setup
    assert network.DROPOUT > 0
    rng = np.random.default_rng(7)
    batch = []
    for i in range(batch_size):
        pose, rest, posed = dataset[i % len(dataset)]
        pos = pose.positions + rng.normal(scale=0.05, size=pose.positions.shape)
        pos[0] = 0
        batch.append((Pose3D(pos), rest, rest if i % 3 == 0 else posed))
    params = init_params(cfg, ops, 35, np.random.default_rng(8))

    ref_total, ref_mesh, ref_grads, ref_next = run_step(per_sample_step, batch, params,
                                                        ops, cfg, seed=9)
    total, mesh, grads, next_draw = run_step(batched_step, batch, params, ops, cfg, seed=9)
    assert total == pytest.approx(ref_total, rel=1e-12, abs=0)
    assert mesh == pytest.approx(ref_mesh, rel=1e-12, abs=0)
    assert next_draw == ref_next
    assert set(grads) == set(ref_grads)
    for k, g in grads.items():
        # 1e-12 relative to the tensor's largest entry too: an entry summed
        # from cancelling terms carries their rounding, not its own size's
        np.testing.assert_allclose(g, ref_grads[k], rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_grads[k]).max(), err_msg=k)


def test_batch_of_two_interleaved_rest_parts_matches_per_sample_loop(tiny_setup):
    """Rest parts [r1, r2, r1, r1, r2]: the rest encoder runs on two parts,
    and the step still equals the per-sample loop."""
    cfg, ops, dataset = tiny_setup
    rng = np.random.default_rng(17)
    r1 = dataset[0][1]
    r2 = r1.with_vertices(r1.vertices + rng.normal(scale=0.01, size=r1.vertices.shape))
    batch = [(pose, rest, posed) for (pose, _, posed), rest
             in zip(dataset + dataset[:1], [r1, r2, r1, r1, r2])]
    params = init_params(cfg, ops, 35, np.random.default_rng(18))
    ref_total, ref_mesh, ref_grads, ref_next = run_step(per_sample_step, batch, params,
                                                        ops, cfg, seed=19)
    total, mesh, grads, next_draw = run_step(batched_step, batch, params, ops, cfg, seed=19)
    assert total == pytest.approx(ref_total, rel=1e-12, abs=0)
    assert mesh == pytest.approx(ref_mesh, rel=1e-12, abs=0)
    assert next_draw == ref_next
    for k, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[k], rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_grads[k]).max(), err_msg=k)


def test_toy_batch_encodes_its_one_rest_part_once(monkeypatch):
    """The toy dataset shares one rest part: on a 16-sample batch the rest
    encoder's first spiral conv sees the part's N rows, the posed-part
    encoder's 16 N."""
    dataset, ops, cfg = toy_part_dataset(seed=0, count=16)
    params = init_params(cfg, ops, 35, np.random.default_rng(0))
    rows = {}
    gather_linear = ag.gather_linear

    def recording(M, MT, x, W, b):
        for enc in ("enc_rest", "enc_gt"):
            if W is params[f"{enc}.sc0.W"]:
                rows[enc] = x.shape[0]
        return gather_linear(M, MT, x, W, b)

    monkeypatch.setattr(ag, "gather_linear", recording)
    tl_training_forward(*zip(*dataset), params, ops, cfg, rng=np.random.default_rng(1))
    n = ops.meshes[0].num_vertices
    assert rows == {"enc_rest": n, "enc_gt": 16 * n}


@pytest.mark.parametrize("batch_size", [1, 3, 4])
def test_step_makes_34_sparse_products_and_builds_no_transpose(tiny_setup, monkeypatch,
                                                                batch_size):
    """16 sampler products (sparse_mm) and 18 spiral convs, each one node
    holding its gather product (gather_linear), per step."""
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(10))
    monkeypatch.setattr(training, "BATCH_SIZE", batch_size)
    tc = TrainConfig(max_steps=1)
    train_toy(dataset, params, ops, cfg, tc)  # builds this batch size's operators

    calls, convs = [], []
    sparse_mm = ag.sparse_mm
    monkeypatch.setattr(ag, "sparse_mm", lambda *a: calls.append(a) or sparse_mm(*a))
    gather_linear = ag.gather_linear
    monkeypatch.setattr(ag, "gather_linear",
                        lambda *a: convs.append(a) or gather_linear(*a))
    transposes = []
    csr = type(ops.spirals_final.gather)
    transpose = csr.transpose
    monkeypatch.setattr(csr, "transpose",
                        lambda *a, **k: transposes.append(a) or transpose(*a, **k))
    train_toy(dataset, params, ops, cfg, tc)
    assert (len(calls), len(convs)) == (16, 18)
    assert transposes == []


def test_train_toy_makes_one_forward_call_per_step(tiny_setup, monkeypatch):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(11))
    calls = []
    forward = training.tl_training_forward
    monkeypatch.setattr(training, "tl_training_forward",
                        lambda *a, **k: calls.append(len(a[0])) or forward(*a, **k))
    monkeypatch.setattr(training, "BATCH_SIZE", 3)
    _, curve = train_toy(dataset, params, ops, cfg, TrainConfig(epochs=3, max_steps=5))
    assert len(curve) == 5
    assert calls == [3, 1, 3, 1, 3]


def test_training_forward_rejects_ragged_batches(tiny_setup):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(12))
    (pose, rest, posed), (pose2, _, _) = dataset[:2]
    short = Pose3D(pose.positions[:10])
    for poses, rests, posed_parts in (([pose, pose2], [rest], [posed, posed]),
                                      ([], [], []),
                                      ([pose, short], [rest, rest], [posed, posed])):
        with pytest.raises(ValidationError):
            tl_training_forward(poses, rests, posed_parts, params, ops, cfg)


@pytest.mark.parametrize("seed", [0, 7])
def test_toy_dataset_part_skinning_equals_full_body(seed):
    # the full-body path: skin all vertices, then keep the toy part's rows
    skeleton, rest_body, weights = canonical_body(SceneConfig().voxel_res)
    rng = np.random.default_rng(seed)
    dataset, _, _ = toy_part_dataset(seed=seed, count=50)
    assert len(dataset) == 50
    for pose, rest_part, posed in dataset:
        transforms = random_pose_transforms(skeleton, rng)
        assert np.array_equal(pose.positions,
                              forward_kinematics(skeleton, transforms).positions)
        full = lbs(rest_body, weights, transforms, skeleton).part(TOY_PART)
        assert rest_part is rest_body.part(TOY_PART)
        assert posed.part == TOY_PART and np.array_equal(posed.faces, full.faces)
        assert np.array_equal(posed.vertices, full.vertices)
