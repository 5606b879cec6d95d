import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.mesh import PartMesh, adjacency_lists, vertex_normals
from courtpose.meshnet import NetConfig, PartOps, build_spirals
from courtpose.meshnet import autograd as ag
from courtpose.meshnet.network import _block_diagonal, _sc
from courtpose.meshnet.spirals import PAD, SpiralIndices
from courtpose.synth import canonical_body
from courtpose.toydata import TOY_PART
from helpers import icosphere, sum_all, tri_grid


def hex_center(grid_rows=7, grid_cols=7):
    mesh = tri_grid(grid_rows, grid_cols)
    center = (grid_rows // 2) * grid_cols + grid_cols // 2
    return mesh, center


def ccw_ring_oracle(mesh, v, members):
    """Order `members` counterclockwise around +z starting from the angle of
    the reference (+x) direction, replicating the documented rule by hand."""
    d = mesh.vertices[members] - mesh.vertices[v]
    ang = np.arctan2(d[:, 1], d[:, 0])
    ang = np.where(ang < 0, ang + 2 * np.pi, ang)
    start = ang[np.argmin(np.minimum(ang, 2 * np.pi - ang))]
    order = np.argsort(np.round(ang - start, 12) % (2 * np.pi), kind="stable")
    return [members[k] for k in order]


def test_hex_grid_one_ring_fills_spiral():
    mesh, c = hex_center()
    sp = build_spirals(mesh, length=7, dilation=1)
    adj = adjacency_lists(mesh.num_vertices, mesh.faces)
    assert sp.indices[c, 0] == c
    assert sorted(sp.indices[c, 1:]) == adj[c]
    assert list(sp.indices[c, 1:]) == ccw_ring_oracle(mesh, c, adj[c])


def test_hex_grid_dilation_two_matches_ring_oracle():
    mesh, c = hex_center()
    sp = build_spirals(mesh, length=7, dilation=2)
    adj = adjacency_lists(mesh.num_vertices, mesh.faces)
    ring1 = ccw_ring_oracle(mesh, c, adj[c])
    ring2_members = sorted({u for r in ring1 for u in adj[r]} - set(ring1) - {c})
    ring2 = ccw_ring_oracle(mesh, c, ring2_members)
    full = [c] + ring1 + ring2
    assert list(sp.indices[c]) == full[::2][:7]


def test_spirals_deterministic():
    mesh = icosphere(1.0, 2, part="head")
    a = build_spirals(mesh, 9, 2)
    b = build_spirals(mesh, 9, 2)
    assert np.array_equal(a.indices, b.indices)


def test_isolated_vertex_all_padding():
    m = PartMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 9]],
                 [[0, 1, 2]], "head")
    sp = build_spirals(m, 5, 1)
    assert np.all(sp.indices[3] == PAD)


def test_boundary_vertex_pads_short_spiral():
    mesh = tri_grid(3, 3)
    sp = build_spirals(mesh, 12, 1)
    corner = 0
    row = sp.indices[corner]
    assert row[0] == corner
    assert PAD in row  # 3x3 patch cannot fill 12 entries from a corner


def spiral_conv(F, sp, W, b):
    """``network._sc`` on B stacked samples F (B, N, C) through the table's
    block-diagonal gather pair; returns (B, N, C_out)."""
    B, n, _ = F.shape
    out = _sc(ag.Var(F.reshape(B * n, -1)), _block_diagonal(sp.gather, B),
              ag.Var(W), ag.Var(b))
    return out.value.reshape(B, n, -1)


def test_spiral_conv_self_copy_identity():
    mesh, _ = hex_center()
    sp = build_spirals(mesh, 7, 1)
    rng = np.random.default_rng(0)
    W = np.zeros((7 * 5, 5))
    W[:5, :5] = np.eye(5)
    for batch in (1, 3):
        F = rng.normal(size=(batch, mesh.num_vertices, 5))
        assert np.array_equal(spiral_conv(F, sp, W, np.zeros(5)), F)


def test_spiral_conv_zero_weights_gives_bias():
    mesh, _ = hex_center()
    sp = build_spirals(mesh, 7, 1)
    b = np.array([1.0, -2.0, 0.5, 7.0])
    for batch in (1, 3):
        out = spiral_conv(np.ones((batch, mesh.num_vertices, 3)), sp, np.zeros((21, 4)), b)
        assert np.allclose(out, np.tile(b, (batch, mesh.num_vertices, 1)))


def test_spiral_conv_matches_naive_loop_oracle():
    mesh = icosphere(1.0, 1, part="head")
    sp = build_spirals(mesh, 9, 2)
    rng = np.random.default_rng(1)
    cin, cout = 4, 6
    W = rng.normal(size=(9 * cin, cout))
    b = rng.normal(size=cout)
    for batch in (1, 3):
        F = rng.normal(size=(batch, mesh.num_vertices, cin))
        out = spiral_conv(F, sp, W, b)
        for k in range(batch):
            for v in range(mesh.num_vertices):
                row = np.zeros(9 * cin)
                for s, idx in enumerate(sp.indices[v]):
                    if idx >= 0:
                        row[s * cin:(s + 1) * cin] = F[k, idx]
                expect = row @ W + b
                assert np.abs(out[k, v] - expect).max() < 1e-12


# -- the gather matrix against the hand-written gather it replaced -----------

def spiral_gather_oracle(a: ag.Var, indices: np.ndarray) -> ag.Var:
    """(N, C) features -> (N, S*C) spiral-concatenated; PAD (-1) gathers zero.
    Clip-and-mask forward, np.add.at scatter backward."""
    n, c = a.value.shape
    s = indices.shape[1]
    valid = indices >= 0
    safe = np.clip(indices, 0, n - 1)
    gathered = np.where(valid[:, :, None], a.value[safe], 0.0)
    out = ag.Var(gathered.reshape(n, s * c), (a,))
    def grad_fn(g):
        g3 = g.reshape(n, s, c) * valid[:, :, None]
        ga = np.zeros_like(a.value)
        np.add.at(ga, safe.ravel(), g3.reshape(-1, c))
        ag._accum(a, ga)
    out.grad_fn = grad_fn
    return out


@pytest.fixture(scope="module")
def gather_tables():
    """Every table of the toy part's default pyramid, plus padded tables:
    long spirals on a small grid, and an isolated vertex's all-PAD row."""
    ops = PartOps.build(canonical_body(22)[1].part(TOY_PART), NetConfig())
    tables = [(f"enc{k}", sp) for k, sp in enumerate(ops.spirals_enc)]
    tables += [(f"dec{k}", sp) for k, sp in enumerate(ops.spirals_dec)]
    tables.append(("final", ops.spirals_final))
    isolated = PartMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 9]],
                        [[0, 1, 2]], "head")
    return tables + [("long spirals", build_spirals(tri_grid(3, 3), 12, 1)),
                     ("isolated vertex", build_spirals(isolated, 5, 1))]


def test_gather_matrix_equals_hand_written_gather(gather_tables):
    rng = np.random.default_rng(10)
    for name, sp in gather_tables:
        n, c = sp.num_vertices, 5
        assert sp.gather.shape == (n * sp.length, n)
        F0 = rng.normal(size=(n, c))
        upstream = rng.normal(size=(n, sp.length * c))  # dL/d(gathered)
        grads, values = [], []
        GT = sp.gather.T.tocsr()
        for gather in (lambda F: ag.reshape(ag.sparse_mm(sp.gather, F, GT), (n, -1)),
                       lambda F: spiral_gather_oracle(F, sp.indices)):
            F = ag.Var(F0.copy())
            g = gather(F)
            ag.backward(sum_all(ag.dropout(g, upstream)))
            values.append(g.value)
            grads.append(F.grad)
        assert np.array_equal(values[0], values[1]), name
        assert np.array_equal(grads[0], grads[1]), name


def test_gather_matrix_rows():
    mesh = tri_grid(3, 3)
    sp = build_spirals(mesh, 12, 1)
    G = sp.gather.toarray()
    flat = sp.indices.ravel()
    assert np.array_equal(G.sum(axis=1), (flat != PAD).astype(float))
    rows = np.flatnonzero(flat != PAD)
    assert np.array_equal(G[rows, flat[rows]], np.ones(rows.size))


@pytest.mark.parametrize("bad", [[[0, 3], [1, 0], [2, 1]],
                                 [[0, -2], [1, 0], [2, 1]]])
def test_spiral_index_out_of_range_is_validation_error(bad):
    with pytest.raises(ValidationError):
        SpiralIndices(np.array(bad), 1)


@pytest.mark.parametrize("length, dilation, bad", [
    (2.5, 1, "length"), (9, 1.0, "dilation"), (0, 1, "length"), (9, 0, "dilation")])
def test_spiral_length_and_dilation_are_integers_of_at_least_one(length, dilation, bad):
    value = length if bad == "length" else dilation
    with pytest.raises(ValidationError, match=f"spiral {bad} .* got {value!r}"):
        build_spirals(tri_grid(3, 3), length, dilation)


def test_tangent_basis_second_axis_is_np_cross_bit_for_bit():
    """The second tangent axis, formed from components, is np.cross(n, e1)
    of the normalised normal and the first axis, bit for bit."""
    from courtpose.meshnet.spirals import _tangent_basis
    rng = np.random.default_rng(4)
    normals = [rng.normal(size=3) for _ in range(2000)]
    normals += [np.eye(3)[k] * s for k in range(3) for s in (1.0, -1.0)]
    normals += [np.zeros(3), np.array([1.0, 1e-10, 0.0]), np.array([-0.0, 0.0, -1.0])]
    for normal in normals:
        e1, e2 = _tangent_basis(normal)
        n = normal / np.linalg.norm(normal) if np.linalg.norm(normal) >= 1e-12 \
            else np.array([0.0, 0.0, 1.0])
        want = np.cross(n, e1)
        assert np.array_equal(e2, want) and np.array_equal(np.signbit(e2), np.signbit(want))
