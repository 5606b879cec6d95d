import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.meshnet import (NetConfig, PartOps, init_params, load_params,
                               save_params)
from courtpose.meshnet.network import DEFAULT_WMESH
from courtpose.meshnet.training import (TrainConfig, eval_mesh_term, tl_training_forward,
                                        train_toy)
from courtpose.model import Pose3D
from courtpose.primitives import capsule


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


def test_zero_learning_rate_leaves_params_unchanged(tiny_setup):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(1))
    before = {k: v.value.copy() for k, v in params.items()}
    train_toy(dataset, params, ops, cfg,
              TrainConfig(lr=0.0, weight_decay=0.0, max_steps=5, epochs=5))
    for k, v in params.items():
        assert np.array_equal(v.value, before[k])


def test_loss_non_increasing_at_tiny_lr_full_batch(tiny_setup):
    """Descent-lemma style check: full-batch steps at lr 1e-5 with no
    momentum, dropout or weight decay cannot increase the loss."""
    cfg0, ops, dataset = tiny_setup
    cfg = NetConfig(spiral_length=cfg0.spiral_length, ds_factors=cfg0.ds_factors,
                    dropout=0.0)
    params = init_params(cfg, ops, 35, np.random.default_rng(2))
    _, curve = train_toy(dataset, params, ops, cfg,
                         TrainConfig(lr=1e-5, momentum=0.0, weight_decay=0.0,
                                     batch_size=len(dataset), epochs=30,
                                     max_steps=30))
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


def test_eval_mesh_term_is_the_mean_gt_path_mesh_loss(tiny_setup):
    cfg, ops, dataset = tiny_setup
    params = init_params(cfg, ops, 35, np.random.default_rng(6))
    total = 0.0
    for pose, rest, posed in dataset:
        out = tl_training_forward(pose, rest, posed, params, ops, cfg, training=False)
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
