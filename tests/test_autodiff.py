"""Finite-difference oracles and contract tests for the tape engine."""

import numpy as np
import pytest

from astroseq import autodiff as ad
from astroseq.errors import (
    DomainError,
    InvalidArgumentError,
    ShapeError,
    TapeConsumedError,
)
from conftest import finite_diff_grad, rel_err

FD_TOL = 1e-6


def _weighted(fn_nodes, weights):
    """Scalar objective: sum(weights * op(inputs)), differentiable via seed."""

    def objective(arrays):
        nodes = [ad.constant(a) for a in arrays]
        return float(np.sum(weights * fn_nodes(nodes).value))

    return objective


def _check_op(fn_nodes, arrays, seed=0):
    """Compare tape gradients of sum(w * op) against central differences."""
    rng = np.random.default_rng(seed + 1000)
    with ad.Tape():
        leaves = [ad.leaf(a) for a in arrays]
        out = fn_nodes(leaves)
        weights = rng.standard_normal(out.value.shape)
        ad.backward(out, seed=weights)
    objective = _weighted(fn_nodes, weights)
    for i, lf in enumerate(leaves):
        fd = finite_diff_grad(objective, arrays, i)
        assert rel_err(lf.grad, fd) < FD_TOL, f"input {i} gradient mismatch"


@pytest.mark.parametrize("seed", range(3))
def test_add_subtract_hadamard_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    _check_op(lambda n: ad.add(n[0], n[1]), [a, b], seed)
    _check_op(lambda n: ad.subtract(n[0], n[1]), [a, b], seed)
    _check_op(lambda n: ad.hadamard(n[0], n[1]), [a, b], seed)


@pytest.mark.parametrize("seed", range(3))
def test_matmul_transpose_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((5, 2))
    _check_op(lambda n: ad.matmul(n[0], n[1]), [a, b], seed)
    _check_op(lambda n: ad.transpose(n[0]), [a], seed)


@pytest.mark.parametrize("seed", range(3))
def test_reduction_and_broadcast_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 3))
    col = rng.standard_normal((4, 1))
    row = rng.standard_normal((1, 3))
    _check_op(lambda n: ad.row_sum(n[0]), [a], seed)
    _check_op(lambda n: ad.col_sum(n[0]), [a], seed)
    _check_op(lambda n: ad.broadcast_col(n[0], 5), [col], seed)
    _check_op(lambda n: ad.broadcast_row(n[0], 4), [row], seed)
    _check_op(lambda n: ad.add_bias(n[0], n[1]), [a, row], seed)


@pytest.mark.parametrize("seed", range(3))
def test_nonlinear_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    positive = np.abs(rng.standard_normal((3, 4))) + 0.5
    _check_op(lambda n: ad.elu_plus_one(n[0]), [a], seed)
    _check_op(lambda n: ad.relu(n[0]), [a + 0.1], seed)
    _check_op(lambda n: ad.power(n[0], 0.25), [positive], seed)
    _check_op(lambda n: ad.reciprocal(n[0]), [positive], seed)
    _check_op(lambda n: ad.softmax_rows(n[0]), [a], seed)


@pytest.mark.parametrize("seed", range(3))
def test_scalar_mul_gradient(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 6))
    _check_op(lambda n: ad.scalar_mul(n[0], -1.7), [a], seed)


@pytest.mark.parametrize("seed", range(3))
def test_layer_norm_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 6))
    gain = rng.standard_normal((1, 6)) * 0.5 + 1.0
    bias = rng.standard_normal((1, 6)) * 0.1
    _check_op(lambda n: ad.layer_norm(n[0], n[1], n[2]), [x, gain, bias], seed)


@pytest.mark.parametrize("seed", range(3))
def test_structural_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 4))
    c = rng.standard_normal((3, 2))
    _check_op(lambda n: ad.concat_rows(n[0], n[1]), [a, b], seed)
    _check_op(lambda n: ad.concat_cols(n[0], n[1]), [a, c], seed)
    _check_op(lambda n: ad.slice_rows(n[0], 1, 3), [a], seed)
    _check_op(lambda n: ad.slice_cols(n[0], 0, 2), [a], seed)


@pytest.mark.parametrize("seed", range(3))
def test_embedding_gradient(seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((7, 5))
    ids = np.array([2, 0, 2, 6])
    _check_op(lambda n: ad.embedding_rows(n[0], ids), [table], seed)


@pytest.mark.parametrize("seed", range(3))
def test_loss_gradients(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    pred = rng.standard_normal((3, 4))
    target = rng.standard_normal((3, 4))
    _check_op(lambda n: ad.cross_entropy(n[0], labels), [logits], seed)
    _check_op(lambda n: ad.mse(n[0], target), [pred], seed)


def test_composed_chain_gradient():
    """A deeper composition exercising accumulation through shared nodes."""
    rng = np.random.default_rng(42)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 4))

    def build(nodes):
        h = ad.matmul(nodes[0], nodes[1])
        y = ad.add(ad.relu(h), ad.elu_plus_one(h))
        return ad.mse(y, np.zeros((3, 4)))

    _check_op(build, [x, w], seed=42)


# ---------------------------------------------------------------------------
# tape semantics


def test_no_tape_computes_values_only():
    x = ad.leaf(np.ones((2, 2)))
    y = ad.matmul(x, x)
    assert not y.requires_grad
    assert y._tape is None
    with pytest.raises(InvalidArgumentError):
        ad.backward(y)


def test_leaf_grad_zero_initialized():
    lf = ad.leaf(np.ones((2, 3)))
    assert np.array_equal(lf.grad, np.zeros((2, 3)))


def test_backward_accumulates_additively_with_retain():
    """A leaf shared by two tapes sums the gradients of both sweeps."""
    rng = np.random.default_rng(0)
    x = ad.leaf(rng.standard_normal((3, 3)))
    sweeps = []
    for _ in range(2):
        with ad.Tape():
            y = ad.hadamard(x, x)
        ad.backward(y)
        sweeps.append(x.grad.copy())
    assert np.allclose(sweeps[1], 2.0 * sweeps[0])


def test_second_backward_raises():
    with ad.Tape():
        x = ad.leaf(np.ones((2, 2)))
        y = ad.add(x, x)
    ad.backward(y)
    with pytest.raises(TapeConsumedError):
        ad.backward(y)


def test_operand_from_consumed_tape_raises():
    """A swept op node is not a leaf: reusing it on a new tape is an error."""
    x = ad.leaf(np.ones((1, 1)))
    with ad.Tape():
        y = ad.scalar_mul(x, 3.0)
    ad.backward(y)
    with ad.Tape():
        z = ad.scalar_mul(y, 2.0)
    assert not y.is_leaf
    with pytest.raises(TapeConsumedError):
        ad.backward(z)
    assert x.grad[0, 0] == 3.0


def test_operand_from_another_live_tape_rejected():
    x = ad.leaf(np.ones((1, 1)))
    with ad.Tape():
        y = ad.scalar_mul(x, 3.0)
        with ad.Tape():
            z = ad.scalar_mul(y, 2.0)
    with pytest.raises(InvalidArgumentError):
        ad.backward(z)


def test_two_objectives_share_intermediates_without_double_count():
    """One sweep from two roots equals two single-root sweeps added.

    Both objectives go through the same intermediate h, which the merged
    sweep visits once with the sum of both objectives' gradients.
    """
    rng = np.random.default_rng(3)
    xv = rng.standard_normal((3, 4))
    wv = rng.standard_normal((4, 4))
    seed2 = rng.standard_normal((3, 4))

    def run(*names):
        with ad.Tape():
            w = ad.leaf(wv)
            h = ad.matmul(ad.leaf(xv), w)
            roots = {
                "loss": (ad.mse(h, np.zeros((3, 4))), None),
                "out": (ad.scalar_mul(h, 2.0), seed2),
            }
        first, *more = (roots[name] for name in names)
        ad.backward(*first, more=more)
        return w.grad.copy()

    assert np.allclose(run("loss", "out"), run("loss") + run("out"), atol=1e-12)


def test_roots_on_different_tapes_rejected():
    x = ad.leaf(np.ones((2, 2)))
    with ad.Tape():
        y = ad.add(x, x)
    with ad.Tape():
        z = ad.add(x, x)
    with pytest.raises(InvalidArgumentError):
        ad.backward(y, more=[(z, None)])


def test_leaf_root_rejected():
    with ad.Tape():
        x = ad.leaf(np.ones((2, 2)))
        y = ad.add(x, x)
    with pytest.raises(InvalidArgumentError):
        ad.backward(x)
    with pytest.raises(InvalidArgumentError):
        ad.backward(y, more=[(x, None)])


def test_backward_is_bitwise_deterministic():
    rng = np.random.default_rng(9)
    xv = rng.standard_normal((4, 4))

    def run():
        with ad.Tape():
            x = ad.leaf(xv)
            h = ad.matmul(x, ad.transpose(x))
            y = ad.mse(ad.softmax_rows(h), np.zeros((4, 4)))
            ad.backward(y)
            return x.grad.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_gradient_map_returns_reached_leaves():
    """backward returns its peak transient floats; an unreached leaf keeps a zero grad."""
    with ad.Tape():
        x = ad.leaf(np.ones((2, 3)))
        unused = ad.leaf(np.ones((2, 3)))
        y = ad.hadamard(ad.scalar_mul(x, 2.0), ad.scalar_mul(x, 3.0))
    # The 6-float seed is freed as the two 6-float factor gradients appear.
    assert ad.backward(y) == 12
    assert np.allclose(x.grad, 12.0 * np.ones((2, 3)))
    assert not unused.grad.any()


def test_stored_floats_counts_intermediates_not_leaves():
    with ad.Tape() as tape:
        x = ad.leaf(np.ones((4, 4)))
        assert tape.stored_floats == 0
        y = ad.add(x, x)
        assert tape.stored_floats == 16
        ad.matmul(y, y)
        assert tape.stored_floats == 32


# ---------------------------------------------------------------------------
# error contracts


def test_shape_errors():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(a, a)
    with pytest.raises(ShapeError):
        ad.ValueNode(np.ones(3))
    with pytest.raises(ShapeError):
        ad.layer_norm(a, ad.constant(np.ones((1, 2))), ad.constant(np.ones((1, 3))))


def test_backward_seed_shape_checked():
    with ad.Tape():
        x = ad.leaf(np.ones((2, 2)))
        y = ad.add(x, x)
        with pytest.raises(ShapeError):
            ad.backward(y, seed=np.ones((3, 3)))


def test_domain_errors():
    with pytest.raises(DomainError):
        ad.power(ad.constant(np.array([[1.0, -0.5]])), 0.25)
    with pytest.raises(DomainError):
        ad.reciprocal(ad.constant(np.array([[1.0, 0.0]])))
    with pytest.raises(DomainError):
        ad.reciprocal(ad.constant(np.array([[-2.0]])))


def test_reciprocal_clamps_tiny_positive_inputs():
    tiny = 0.5 * ad.RECIPROCAL_FLOOR
    with ad.Tape():
        x = ad.leaf(np.array([[tiny, 2.0]]))
        y = ad.reciprocal(x)
        assert y.value[0, 0] == 1.0 / ad.RECIPROCAL_FLOOR
        assert y.value[0, 1] == 0.5
        ad.backward(y, seed=np.ones((1, 2)))
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == pytest.approx(-0.25)


def test_slice_range_errors():
    a = ad.constant(np.ones((3, 3)))
    with pytest.raises(InvalidArgumentError):
        ad.slice_rows(a, 2, 1)
    with pytest.raises(InvalidArgumentError):
        ad.slice_cols(a, 0, 5)


def test_slice_empty_range_allowed():
    a = ad.constant(np.ones((3, 3)))
    assert ad.slice_rows(a, 2, 2).value.shape == (0, 3)
    assert ad.slice_cols(a, 1, 1).value.shape == (3, 0)


def test_embedding_id_bounds_checked():
    table = ad.constant(np.ones((4, 2)))
    with pytest.raises(InvalidArgumentError):
        ad.embedding_rows(table, [0, 4])
