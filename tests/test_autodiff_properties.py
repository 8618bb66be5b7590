"""Property tests for the tape: a multi-root sweep is the sum of single-root
sweeps; every primitive matches central differences over random shapes,
stacked or not; a primitive on a stack equals one call per matrix; and the
shape ops, where they only re-index, are views."""

import numpy as np
import pytest

from astroseq import autodiff as ad
from conftest import finite_diff_grad, rel_err

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Root builders over h = x @ w, shape (r, k); each returns a node on the tape.
ROOTS = (
    lambda h, w: h,
    lambda h, w: ad.relu(h),
    lambda h, w: ad.elu_plus_one(h),
    lambda h, w: ad.matmul(h, ad.transpose(w)),
    lambda h, w: ad.row_sum(ad.hadamard(h, h)),
    lambda h, w: ad.mse(h, np.zeros(h.shape)),
)


def _sweep(xv, wv, picks, seeds):
    """Leaf gradients of one sweep from the picked roots (repeats allowed)."""
    with ad.Tape():
        x, w = ad.leaf(xv), ad.leaf(wv)
        h = ad.matmul(x, w)
        built = {i: ROOTS[i](h, w) for i in set(picks)}
    roots = [(built[i], seed) for i, seed in zip(picks, seeds)]
    ad.backward(*roots[0], more=roots[1:])
    return x.grad, w.grad


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(
    r=st.integers(1, 4),
    c=st.integers(1, 4),
    k=st.integers(1, 4),
    picks=st.lists(st.integers(0, len(ROOTS) - 1), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_root_sweep_equals_sum_of_single_sweeps(r, c, k, picks, seed):
    rng = np.random.default_rng(seed)
    xv = rng.standard_normal((r, c))
    wv = rng.standard_normal((c, k))
    h, w = ad.matmul(ad.constant(xv), ad.constant(wv)), ad.constant(wv)
    seeds = [rng.standard_normal(ROOTS[i](h, w).shape) for i in picks]

    merged = _sweep(xv, wv, picks, seeds)
    summed = [np.zeros_like(xv), np.zeros_like(wv)]
    for pick, root_seed in zip(picks, seeds):
        for total, g in zip(summed, _sweep(xv, wv, [pick], [root_seed])):
            total += g
    for got, want in zip(merged, summed):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# shape ops over random shapes

SIDE = st.integers(1, 5)


def _draw_range(data, size, label):
    """A drawn range [start, stop) within ``size``, possibly empty."""
    start = data.draw(st.integers(0, size), label=f"{label} start")
    return start, data.draw(st.integers(start, size), label=f"{label} stop")


def _shape_cases(r, c, data):
    """(name, op applied to the leaves, operand arrays) for every shape op."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.standard_normal((r, c))
    k, n = data.draw(SIDE, label="k"), data.draw(SIDE, label="n")
    (r0, r1), (c0, c1) = _draw_range(data, r, "rows"), _draw_range(data, c, "cols")
    return [
        ("concat_rows", lambda l: ad.concat_rows(l[0], l[1]), [a, rng.standard_normal((k, c))]),
        ("concat_cols", lambda l: ad.concat_cols(l[0], l[1]), [a, rng.standard_normal((r, k))]),
        ("slice_rows", lambda l: ad.slice_rows(l[0], r0, r1), [a]),
        ("slice_cols", lambda l: ad.slice_cols(l[0], c0, c1), [a]),
        ("row_sum", lambda l: ad.row_sum(l[0]), [a]),
        ("col_sum", lambda l: ad.col_sum(l[0]), [a]),
        ("broadcast_col", lambda l: ad.broadcast_col(l[0], n), [rng.standard_normal((r, 1))]),
        ("broadcast_row", lambda l: ad.broadcast_row(l[0], n), [rng.standard_normal((1, c))]),
        ("transpose", lambda l: ad.transpose(l[0]), [a]),
    ], rng


def _assert_match_finite_differences(cases, rng):
    """Each case's leaf gradients of sum(weights * op) against central
    differences, within 1e-6."""
    for name, build, arrays in cases:
        with ad.Tape():
            leaves = [ad.leaf(arr) for arr in arrays]
            out = build(leaves)
        weights = rng.standard_normal(out.shape)
        ad.backward(out, seed=weights)

        def objective(arrs):
            return float(np.sum(weights * build([ad.constant(arr) for arr in arrs]).value))

        for i, lf in enumerate(leaves):
            err = rel_err(lf.grad, finite_diff_grad(objective, arrays, i))
            assert err < 1e-6, f"{name}[{i}]: {err:.2e}"


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(r=SIDE, c=SIDE, data=st.data())
def test_shape_ops_match_finite_differences(r, c, data):
    _assert_match_finite_differences(*_shape_cases(r, c, data))


# ---------------------------------------------------------------------------
# arithmetic, nonlinear and loss primitives over random shapes


def _primitive_cases(lead, r, c, data):
    """(name, op applied to the leaves, operand arrays) for every arithmetic,
    nonlinear and loss primitive.  The first operand has the leading axes
    ``lead``; a second operand is 2-D beside it or stacked like it."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    k = data.draw(SIDE, label="k")
    shared = data.draw(st.booleans(), label="2-D second operand")

    def draw(*shape, stacked=True):
        return rng.standard_normal((lead if stacked else ()) + shape)

    def second(*shape):
        return draw(*shape, stacked=not shared)

    a = draw(r, c)
    positive = np.abs(a) + 0.5
    off_kink = np.where(np.abs(a) < 0.1, a + 0.2, a)
    labels = rng.integers(0, c, size=lead + (r,))
    target = draw(r, c)
    return [
        ("add", lambda l: ad.add(l[0], l[1]), [a, second(r, c)]),
        ("add, 2-D first", lambda l: ad.add(l[0], l[1]), [second(r, c), a]),
        ("hadamard", lambda l: ad.hadamard(l[0], l[1]), [a, second(r, c)]),
        ("hadamard, 2-D first", lambda l: ad.hadamard(l[0], l[1]), [second(r, c), a]),
        ("matmul", lambda l: ad.matmul(l[0], l[1]), [a, second(c, k)]),
        ("matmul, 2-D first", lambda l: ad.matmul(l[0], l[1]), [second(k, r), a]),
        ("scalar_mul", lambda l: ad.scalar_mul(l[0], -1.7), [a]),
        ("elu_plus_one", lambda l: ad.elu_plus_one(l[0]), [a]),
        ("relu", lambda l: ad.relu(l[0]), [off_kink]),
        ("power", lambda l: ad.power(l[0], 0.25), [positive]),
        ("reciprocal", lambda l: ad.reciprocal(l[0]), [positive]),
        ("layer_norm", lambda l: ad.layer_norm(l[0], l[1], l[2]),
         [a, rng.standard_normal((1, c)), rng.standard_normal((1, c))]),
        ("softmax_rows", lambda l: ad.softmax_rows(l[0]), [a]),
        ("mse", lambda l: ad.mse(l[0], target), [a]),
        ("cross_entropy", lambda l: ad.cross_entropy(l[0], labels), [a]),
    ], rng


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(lead=st.sampled_from([(), (1,), (3,)]), r=SIDE, c=SIDE, data=st.data())
def test_primitives_match_finite_differences(lead, r, c, data):
    _assert_match_finite_differences(*_primitive_cases(lead, r, c, data))


# ---------------------------------------------------------------------------
# a stack equals one call per matrix


def _pick(x, b):
    """The whole of a non-leaf argument for the stacked call (b is None),
    matrix b of it for the per-matrix calls."""
    return x if b is None else x[b]


def _stack_cases(B, r, c, data):
    """(name, op applied to the leaves and a matrix index, operand arrays,
    which operands are stacked) for every primitive; 2-D operands are shared
    by the whole stack."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    k = data.draw(SIDE, label="k")
    (r0, r1), (c0, c1) = _draw_range(data, r, "rows"), _draw_range(data, c, "cols")
    a, b2 = rng.standard_normal((B, r, c)), rng.standard_normal((B, r, c))
    positive = np.abs(a) + 0.5
    labels = rng.integers(0, c, size=(B, r))
    ids = rng.integers(0, 5, size=(B, r))
    target = rng.standard_normal((B, r, c))
    one, two = [True], [True, True]
    return [
        ("add", lambda l, i: ad.add(l[0], l[1]), [a, b2], two),
        ("add, shared", lambda l, i: ad.add(l[0], l[1]), [a, b2[0]], [True, False]),
        ("subtract", lambda l, i: ad.subtract(l[0], l[1]), [a, b2], two),
        ("hadamard", lambda l, i: ad.hadamard(l[0], l[1]), [a, b2], two),
        ("hadamard, shared", lambda l, i: ad.hadamard(l[0], l[1]), [b2[0], a], [False, True]),
        ("scalar_mul", lambda l, i: ad.scalar_mul(l[0], 0.3), [a], one),
        ("matmul", lambda l, i: ad.matmul(l[0], l[1]),
         [a, rng.standard_normal((B, c, k))], two),
        ("matmul, shared right", lambda l, i: ad.matmul(l[0], l[1]),
         [a, rng.standard_normal((c, k))], [True, False]),
        ("matmul, shared left", lambda l, i: ad.matmul(l[0], l[1]),
         [rng.standard_normal((k, r)), a], [False, True]),
        ("concat_rows, shared", lambda l, i: ad.concat_rows(l[0], l[1]),
         [a, rng.standard_normal((k, c))], [True, False]),
        ("concat_cols, shared", lambda l, i: ad.concat_cols(l[0], l[1]),
         [rng.standard_normal((r, k)), a], [False, True]),
        ("slice_rows", lambda l, i: ad.slice_rows(l[0], r0, r1), [a], one),
        ("slice_cols", lambda l, i: ad.slice_cols(l[0], c0, c1), [a], one),
        ("transpose", lambda l, i: ad.transpose(l[0]), [a], one),
        ("row_sum", lambda l, i: ad.row_sum(l[0]), [a], one),
        ("col_sum", lambda l, i: ad.col_sum(l[0]), [a], one),
        ("broadcast_col", lambda l, i: ad.broadcast_col(l[0], k),
         [rng.standard_normal((B, r, 1))], one),
        ("broadcast_row", lambda l, i: ad.broadcast_row(l[0], k),
         [rng.standard_normal((B, 1, c))], one),
        ("add_bias, shared", lambda l, i: ad.add_bias(l[0], l[1]),
         [a, rng.standard_normal((1, c))], [True, False]),
        ("embedding_rows, shared", lambda l, i: ad.embedding_rows(l[0], _pick(ids, i)),
         [rng.standard_normal((5, c))], [False]),
        ("elu_plus_one", lambda l, i: ad.elu_plus_one(l[0]), [a], one),
        ("relu", lambda l, i: ad.relu(l[0]), [a], one),
        ("power", lambda l, i: ad.power(l[0], 0.25), [positive], one),
        ("reciprocal", lambda l, i: ad.reciprocal(l[0]), [positive], one),
        ("layer_norm, shared", lambda l, i: ad.layer_norm(l[0], l[1], l[2]),
         [a, rng.standard_normal((1, c)), rng.standard_normal((1, c))], [True, False, False]),
        ("softmax_rows", lambda l, i: ad.softmax_rows(l[0]), [a], one),
        ("mse", lambda l, i: ad.mse(l[0], _pick(target, i)), [a], one),
        ("cross_entropy", lambda l, i: ad.cross_entropy(l[0], _pick(labels, i)), [a], one),
    ], rng


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(B=st.integers(1, 3), r=SIDE, c=SIDE, data=st.data())
def test_each_primitive_on_a_stack_equals_one_call_per_matrix(B, r, c, data):
    """Values and leaf gradients: a stacked operand's gradient is the
    per-matrix gradients stacked, a shared 2-D operand's is their sum."""
    cases, rng = _stack_cases(B, r, c, data)
    for name, build, arrays, stacked in cases:
        with ad.Tape():
            leaves = [ad.leaf(arr) for arr in arrays]
            out = build(leaves, None)
        assert out.shape[0] == B, name
        weights = rng.standard_normal(out.shape)
        ad.backward(out, seed=weights)
        expected = [np.zeros_like(arr) for arr in arrays]
        for b in range(B):
            with ad.Tape():
                mats = [ad.leaf(arr[b] if s else arr) for arr, s in zip(arrays, stacked)]
                single = build(mats, b)
            assert single.value.ndim == 2, name
            assert rel_err(out.value[b], single.value) <= 1e-12, name
            ad.backward(single, seed=weights[b])
            for total, mat, s in zip(expected, mats, stacked):
                if s:
                    total[b] = mat.grad
                else:
                    total += mat.grad
        for i, (lf, total) in enumerate(zip(leaves, expected)):
            assert lf.grad.shape == arrays[i].shape, f"{name}[{i}]"
            assert rel_err(lf.grad, total) <= 1e-12, f"{name}[{i}]"


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(r=SIDE, c=SIDE, recorded=st.booleans(), data=st.data())
def test_slices_and_transposes_are_views_that_store_nothing(r, c, recorded, data):
    (r0, r1), (c0, c1) = _draw_range(data, r, "rows"), _draw_range(data, c, "cols")
    with ad.Tape() as tape:
        x = ad.leaf(np.arange(float(r * c)).reshape(r, c))
        operand = ad.scalar_mul(x, 2.0) if recorded else x
        stored = tape.stored_floats
        views = [
            (ad.slice_rows(operand, r0, r1), operand.value[r0:r1]),
            (ad.slice_cols(operand, c0, c1), operand.value[:, c0:c1]),
            (ad.transpose(operand), operand.value.T),
            (ad.slice_cols(ad.slice_rows(operand, r0, r1), c0, c1), operand.value[r0:r1, c0:c1]),
            (ad.transpose(ad.slice_cols(operand, c0, c1)), operand.value[:, c0:c1].T),
        ]
        assert tape.stored_floats == stored
    for view, expected in views:
        assert view._tape is tape
        assert np.array_equal(view.value, expected)
        if expected.size:
            assert np.shares_memory(view.value, operand.value)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(
    vocab=st.integers(1, 6),
    d=SIDE,
    lead=st.lists(st.integers(1, 3), max_size=1),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_embedding_gradient_equals_the_add_at_scatter(vocab, d, lead, n, seed):
    """The embedding table's gradient is np.add.at's scatter of the rows'
    gradients, bit for bit, for (n,) and stacked (B, n) ids that repeat."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=(*lead, n))  # n > vocab forces repeats
    g = rng.standard_normal((*ids.shape, d))
    with ad.Tape():
        table = ad.leaf(rng.standard_normal((vocab, d)))
        out = ad.embedding_rows(table, ids)
    ad.backward(out, seed=g)
    expected = np.zeros((vocab, d))
    np.add.at(expected, ids.ravel(), g.reshape(-1, d))
    assert np.array_equal(table.grad, expected)
