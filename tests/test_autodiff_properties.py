"""Property tests for the tape: a multi-root sweep is the sum of single-root sweeps."""

import numpy as np
import pytest

from astroseq import autodiff as ad

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
