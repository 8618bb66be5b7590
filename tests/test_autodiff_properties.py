"""Property tests for the tape: a multi-root sweep is the sum of single-root
sweeps, and the shape ops are exact and, where they only re-index, views."""

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


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(r=SIDE, c=SIDE, data=st.data())
def test_shape_ops_match_finite_differences(r, c, data):
    cases, rng = _shape_cases(r, c, data)
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
