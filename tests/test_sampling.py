import numpy as np
import pytest

from courtpose.collision import nearest_triangle_bruteforce, point_triangle_closest
from courtpose.errors import ValidationError
from courtpose.meshnet import build_sampling
from courtpose.primitives import capsule
from helpers import icosphere, plane_grid


def test_factor_one_is_identity():
    m = capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms")
    op = build_sampling(m, 1)
    n = m.num_vertices
    assert np.array_equal(op.D.toarray(), np.eye(n))
    assert np.array_equal(op.U.toarray(), np.eye(n))
    assert op.reached_target


def test_invalid_factor():
    m = icosphere(1.0, 1)
    with pytest.raises(ValidationError):
        build_sampling(m, 0.5)


def test_planar_grid_stays_planar():
    g = plane_grid(8, 8)
    op = build_sampling(g, 2)
    assert op.reached_target
    assert np.abs(op.coarse.vertices[:, 2]).max() == 0.0
    assert op.coarse.num_vertices <= g.num_vertices // 2


def test_down_up_identity_on_coarse_features():
    m = icosphere(1.0, 2, part="head")
    op = build_sampling(m, 4)
    nc = op.coarse.num_vertices
    DU = (op.D @ op.U).toarray()
    assert np.abs(DU - np.eye(nc)).max() < 1e-12
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(nc, 8))
    assert np.abs(op.D @ (op.U @ feats) - feats).max() < 1e-12


def test_upsampling_rows_are_barycentric():
    m = capsule((0, 0, 0), (0, 0.5, 0), 0.07, part="arms")
    op = build_sampling(m, 3)
    U = op.U.toarray()
    assert np.abs(U.sum(axis=1) - 1.0).max() < 1e-12
    assert U.min() >= -1e-12
    # kept vertices map to themselves
    D = op.D.toarray()
    kept = np.nonzero(D.sum(axis=0))[0]
    for row in kept:
        assert np.count_nonzero(U[row]) == 1


def test_d_rows_are_indicators():
    m = icosphere(1.0, 1)
    op = build_sampling(m, 2)
    D = op.D.toarray()
    assert np.all((D == 0) | (D == 1))
    assert np.all(D.sum(axis=1) == 1)


def test_upsampled_positions_approximate_fine_mesh():
    m = icosphere(1.0, 2, part="head")
    op = build_sampling(m, 2)
    rebuilt = op.U @ op.coarse.vertices
    err = np.linalg.norm(rebuilt - m.vertices, axis=1)
    assert err.max() < 0.35  # removed vertices land on a nearby kept triangle
    assert np.median(err) < 0.1


def test_extreme_factor_best_effort_flag():
    m = icosphere(1.0, 1)
    op = build_sampling(m, 1000)
    # cannot shrink a closed sphere to zero vertices; flag must say so
    assert not op.reached_target
    assert op.coarse.num_vertices >= 3
    assert op.coarse.num_faces >= 1


def test_upsampling_rows_match_bruteforce_nearest_triangle():
    m = icosphere(1.0, 2, part="head")
    op = build_sampling(m, 4)
    cv, cf = op.coarse.vertices, op.coarse.faces
    U = op.U.toarray()
    removed = np.nonzero(op.D.toarray().sum(axis=0) == 0)[0]
    assert removed.size > 0
    for i in removed:
        fi, _, _ = nearest_triangle_bruteforce(m.vertices[i], cv, cf)
        _, bary = point_triangle_closest(m.vertices[i], *cv[cf[fi]])
        expected = np.zeros(len(cv))
        expected[cf[fi]] = bary
        assert np.array_equal(U[i], expected)
