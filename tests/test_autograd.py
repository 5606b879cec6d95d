"""The fused autograd ops against the separate nodes they replaced.

``linear`` was ``add(matmul(x, W), b)``, the spiral conv (``gather_linear``)
was ``sparse_mm`` + ``reshape`` + ``matmul`` + ``add``, and ``elu`` picked its
value and slope with ``np.where``. Those ops live on here as oracles, and
every value and gradient must equal theirs bit for bit, sign of zero and NaN
included. ``take_rows`` is held to a loop over its index the same way.
"""
import numpy as np
import pytest

from courtpose.meshnet import autograd as ag
from courtpose.meshnet import init_params
from courtpose.meshnet.network import _block_diagonal, _sc
from courtpose.meshnet.spirals import build_spirals
from courtpose.meshnet.training import TrainConfig, eval_mesh_term, train_toy
from courtpose.primitives import capsule
from courtpose.toydata import toy_part_dataset
from helpers import sum_all

# -- oracles: the separate-node ops ------------------------------------------


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def matmul_oracle(a, b):
    out = ag.Var(a.value @ b.value, (a, b))
    def grad_fn(g):
        ag._accum(a, g @ b.value.T)
        ag._accum(b, a.value.T @ g)
    out.grad_fn = grad_fn
    return out


def add_oracle(a, b):
    """Broadcasting sum: the bias add of the old dense layers."""
    out = ag.Var(a.value + b.value, (a, b))
    def grad_fn(g):
        ag._accum(a, _unbroadcast(g, a.value.shape))
        ag._accum(b, _unbroadcast(g, b.value.shape))
    out.grad_fn = grad_fn
    return out


def elu_oracle(a, alpha=1.0):
    pos = a.value > 0
    ex = np.exp(np.minimum(a.value, 0.0))
    out = ag.Var(np.where(pos, a.value, alpha * (ex - 1.0)), (a,))
    out.grad_fn = lambda g: ag._accum(a, g * np.where(pos, 1.0, alpha * ex))
    return out


def linear_oracle(x, W, b):
    return add_oracle(matmul_oracle(x, W), b)


def gather_linear_oracle(M, MT, x, W, b):
    gathered = ag.reshape(ag.sparse_mm(M, x, MT), (x.shape[0], -1))
    return add_oracle(matmul_oracle(gathered, W), b)


def take_rows_oracle(a, index):
    """``take_rows`` as a loop over the index, one row at a time."""
    out = ag.Var(np.stack([a.value[i] for i in index]), (a,))
    def grad_fn(g):
        ga = np.zeros_like(a.value)
        for k, i in enumerate(index):
            ga[i] += g[k]
        ag._accum(a, ga)
    out.grad_fn = grad_fn
    return out


# -- helpers -----------------------------------------------------------------

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                    5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                    -2.2250738585072014e-308, 1e-300, -1e-300, 1e-17, -1e-17,
                    0.5, -0.5, 1.0, -1.0, 36.0, -36.0, 37.5, -37.5, 709.0, -709.0,
                    745.2, -745.2, 800.0, -800.0, 1.7976931348623157e308,
                    -1.7976931348623157e308])


def assert_same(a, b, what):
    """Equal arrays, NaN where NaN, and the same sign bit everywhere."""
    assert a.shape == b.shape, what
    assert np.array_equal(a, b, equal_nan=True), what
    assert np.array_equal(np.signbit(a), np.signbit(b)), what


def run(op, arrays, upstream):
    """Value of ``op`` on fresh Vars of ``arrays`` and each input's gradient
    under the upstream gradient ``upstream``; inf and NaN inputs overflow
    and meet zeros on purpose."""
    vs = [ag.Var(a.copy()) for a in arrays]
    with np.errstate(over="ignore", invalid="ignore"):
        out = op(*vs)
        ag.backward(sum_all(ag.dropout(out, upstream)))
    return out.value, [v.grad for v in vs]


def assert_op_matches(op, oracle, arrays, upstream):
    value, grads = run(op, arrays, upstream)
    ref_value, ref_grads = run(oracle, arrays, upstream)
    assert_same(value, ref_value, "value")
    for k, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert_same(g, ref, f"gradient of input {k}")


# -- op-level equality -------------------------------------------------------


@pytest.mark.parametrize("rows", [1, 7, 82])
def test_elu_matches_the_where_oracle_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    a = rng.normal(scale=3.0, size=(rows, 16))
    a.flat[rng.choice(a.size, size=min(a.size, 3 * len(SPECIAL)), replace=False)] = \
        np.resize(SPECIAL, min(a.size, 3 * len(SPECIAL)))
    for upstream in (rng.normal(size=a.shape), np.ones(a.shape),
                     np.resize(SPECIAL[::-1], a.shape)):
        assert_op_matches(ag.elu, elu_oracle, [a], upstream)


def test_elu_special_values_one_by_one():
    a = SPECIAL.reshape(1, -1)
    assert_op_matches(ag.elu, elu_oracle, [a], np.ones(a.shape))
    assert_op_matches(ag.elu, elu_oracle, [a], np.full(a.shape, -0.0))
    value, (grad,) = run(ag.elu, [a], np.ones(a.shape))
    assert value[0, 0] == 0.0 and not np.signbit(value[0, 0])
    assert value[0, 2] == np.inf and value[0, 3] == -1.0 and grad[0, 2] == 1.0


@pytest.mark.parametrize("rows", [1, 16])
def test_linear_matches_add_of_matmul_bit_for_bit(rows):
    rng = np.random.default_rng(20 + rows)
    for nin, nout in ((3, 5), (64, 64), (105, 1)):
        x = rng.normal(size=(rows, nin))
        x[0, 0] = -0.0
        W = rng.normal(size=(nin, nout))
        b = rng.normal(size=nout)
        b[0] = -0.0
        for upstream in (rng.normal(size=(rows, nout)), np.zeros((rows, nout))):
            assert_op_matches(ag.linear, linear_oracle, [x, W, b], upstream)


def test_linear_carries_special_values_as_the_oracle_does():
    rng = np.random.default_rng(30)
    x = np.resize(SPECIAL, (4, len(SPECIAL) // 4))
    W = rng.normal(size=(x.shape[1], 3))
    b = np.array([np.inf, -0.0, np.nan])
    assert_op_matches(ag.linear, linear_oracle, [x, W, b], rng.normal(size=(4, 3)))


@pytest.mark.parametrize("batch", [1, 3])
def test_spiral_conv_node_matches_the_separate_nodes_bit_for_bit(batch):
    mesh = capsule((0, 0, 0), (0, 0.3, 0), 0.06, part="arms", n_seg=8,
                   cap_rings=2, shaft_rings=1)
    rng = np.random.default_rng(40 + batch)
    for length, dilation, cin, cout in ((9, 1, 3, 16), (6, 2, 16, 32), (9, 2, 5, 3)):
        gather = _block_diagonal(build_spirals(mesh, length, dilation).gather, batch)
        rows = batch * mesh.num_vertices
        x = rng.normal(size=(rows, cin))
        x[rng.integers(rows), 0] = -0.0
        W = rng.normal(size=(length * cin, cout))
        b = rng.normal(size=cout)
        special = x.copy()
        special.flat[rng.choice(x.size, size=len(SPECIAL), replace=False)] = SPECIAL
        for x in (x, special):
            assert_op_matches(lambda x, W, b: _sc(x, gather, W, b),
                              lambda x, W, b: gather_linear_oracle(*gather, x, W, b),
                              [x, W, b], rng.normal(size=(rows, cout)))


@pytest.mark.parametrize("index", [[0, 2, 0, 0, 2], [3, 1, 0, 2], [0, 1, 2, 3],
                                   [1] * 6, [2]],
                         ids=["repeated", "permuted", "identity", "one row", "single"])
def test_take_rows_matches_the_row_loop_bit_for_bit(index):
    rng = np.random.default_rng(50 + len(index))
    a = rng.normal(size=(4, 32))
    a[1, :len(SPECIAL)] = SPECIAL
    for upstream in (rng.normal(size=(len(index), 32)), np.full((len(index), 32), -0.0),
                     np.resize(SPECIAL[::-1], (len(index), 32))):
        assert_op_matches(lambda a: ag.take_rows(a, index),
                          lambda a: take_rows_oracle(a, index), [a], upstream)


def test_take_rows_leaves_untaken_rows_a_zero_gradient():
    a = ag.Var(np.arange(12.0).reshape(4, 3))
    out = ag.take_rows(a, [2, 2])
    ag.backward(sum_all(out))
    assert np.array_equal(out.value, [[6.0, 7.0, 8.0]] * 2)
    assert np.array_equal(a.grad, [[0.0] * 3, [0.0] * 3, [2.0] * 3, [0.0] * 3])


def test_add_rejects_unequal_shapes():
    with pytest.raises(ValueError, match="equal shapes"):
        ag.add(ag.Var(np.zeros((3, 2))), ag.Var(np.zeros(2)))


# -- training through the oracles --------------------------------------------


@pytest.fixture(scope="module")
def toy():
    return toy_part_dataset(seed=0, count=20)


def _train(toy):
    """8 steps: each epoch of the 20 samples is a 16- and a 4-sample batch."""
    dataset, ops, cfg = toy
    params = init_params(cfg, ops, 35, np.random.default_rng(3))
    params, curve = train_toy(dataset, params, ops, cfg,
                              TrainConfig(lr=3e-3, seed=0, max_steps=8))
    return params, curve, eval_mesh_term(dataset[:4], params, ops, cfg)


def test_eight_training_steps_equal_the_separate_node_network(toy, monkeypatch):
    params, curve, mesh_term = _train(toy)
    with monkeypatch.context() as m:
        m.setattr(ag, "linear", linear_oracle)
        m.setattr(ag, "gather_linear", gather_linear_oracle)
        m.setattr(ag, "elu", elu_oracle)
        ref_params, ref_curve, ref_mesh_term = _train(toy)
    assert len(curve) == 8 and curve == ref_curve
    assert mesh_term == ref_mesh_term
    assert params.keys() == ref_params.keys()
    for k, v in params.items():
        assert np.array_equal(v.value, ref_params[k].value), k
