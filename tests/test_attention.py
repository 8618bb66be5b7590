"""Oracle and contract tests for the write/read attention mechanism.

The central oracle is a per-token loop: summaries accumulated one outer
product at a time, outputs computed one row at a time, all in plain numpy
with no tape.  The matrix implementation must match it to 1e-12.
"""

import numpy as np
import pytest

from astroseq import attention as at
from astroseq import autodiff as ad
from astroseq.errors import CapacityError, InvalidArgumentError, ShapeError
from conftest import finite_diff_grad, rel_err

ORACLE_TOL = 1e-12


def phi_np(z):
    return np.where(z >= 0, z + 1.0, np.exp(z))


def loop_reference(
    x,
    arrays,
    alpha=0.25,
    pos_scale=2.0,
    n_heads=1,
    mask=None,
):
    """Per-token transcription of the mechanism, one accumulation at a time."""
    n, d = x.shape
    m = arrays["w_key"].shape[1]
    mix = arrays["pos_mix"][:n, :n]
    read = arrays["pos_read"][:n]
    idx = np.arange(n, dtype=np.float64)
    profile = np.exp(-np.abs(idx[:, None] - idx[None, :]) * pos_scale)
    r_full = (mix @ profile @ mix.T) @ read
    k = x @ arrays["w_key"]
    q = x @ arrays["w_query"]
    v = x @ arrays["w_value"]
    valid = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    m_h, d_h = m // n_heads, d // n_heads
    heads = []
    for h in range(n_heads):
        ks = k[:, h * m_h : (h + 1) * m_h]
        qs = q[:, h * m_h : (h + 1) * m_h]
        vs = v[:, h * d_h : (h + 1) * d_h]
        rs = r_full[:, h * m_h : (h + 1) * m_h]
        hebb = np.zeros((m_h, d_h))
        hebb_pos = np.zeros((m_h, d_h))
        totals = np.zeros(m_h)
        for t in range(n):
            if valid[t] == 0:
                continue
            hebb += np.outer(phi_np(ks[t]), vs[t]) / m_h
            hebb_pos += np.outer(phi_np(rs[t]), vs[t]) / m_h
            totals += phi_np(ks[t])
        g = totals**alpha
        out = np.zeros((n, d_h))
        for t in range(n):
            pq = phi_np(qs[t])
            p = 1.0 / max(float(pq @ g), ad.RECIPROCAL_FLOOR)
            out[t] = p * (pq @ (hebb + hebb_pos))
        heads.append(out)
    core = np.concatenate(heads, axis=1)
    if n_heads > 1:
        core = core @ arrays["w_out"]
    return core + x


def fresh(seed, n=10, d=8, m=6, n_max=None, n_heads=1, alpha=0.25, pos_scale=2.0):
    rng = np.random.default_rng(seed)
    n_max = n_max or n
    arrays = at.init_attention_arrays(d, m, n_max, rng, n_heads=n_heads)
    params = at.make_attention_params(
        arrays, alpha=alpha, pos_scale=pos_scale, n_heads=n_heads
    )
    x = rng.standard_normal((n, d))
    return x, arrays, params


# ---------------------------------------------------------------------------
# oracle equivalence


@pytest.mark.parametrize("seed", range(8))
def test_matrix_matches_per_token_loop(seed):
    sizes = [(4, 4, 4), (10, 8, 6), (33, 6, 10)]
    n, d, m = sizes[seed % 3]
    x, arrays, params = fresh(seed, n=n, d=d, m=m)
    out = at.astro_attention(ad.constant(x), params)
    expected = loop_reference(x, arrays)
    assert rel_err(out.value, expected) < ORACLE_TOL


@pytest.mark.parametrize("seed", range(4))
def test_multi_head_matches_loop(seed):
    x, arrays, params = fresh(seed, n=12, d=8, m=8, n_heads=2)
    out = at.astro_attention(ad.constant(x), params)
    expected = loop_reference(x, arrays, n_heads=2)
    assert rel_err(out.value, expected) < ORACLE_TOL


# ---------------------------------------------------------------------------
# mechanism properties


def test_feature_map_strictly_positive():
    z = np.linspace(-30, 30, 301).reshape(7, 43)
    out = at.phi(ad.constant(z)).value
    assert np.all(out > 0)


def test_masked_rows_equal_truncated_input():
    """Zero-masked trailing rows must reproduce the loop oracle on the
    surviving rows, and their content must not reach any valid output."""
    x, arrays, params = fresh(9, n=10, d=6, m=4)
    mask = np.ones(10)
    mask[7:] = 0.0
    # Truncation changes R (it depends on token count), so compare against
    # the loop oracle, which applies the same mask to the same 10-token R.
    expected = loop_reference(x, arrays, mask=mask)
    out = at.astro_attention(ad.constant(x), params, mask=mask)
    assert rel_err(out.value[:7], expected[:7]) < ORACLE_TOL
    # summaries ignore the masked rows entirely
    perturbed = x.copy()
    perturbed[7:] = np.random.default_rng(1).standard_normal((3, 6)) * 10.0
    out_perturbed = at.astro_attention(ad.constant(perturbed), params, mask=mask)
    assert rel_err(out_perturbed.value[:7], out.value[:7]) < ORACLE_TOL


def test_fully_masked_input_rejected():
    x, _, params = fresh(2, n=4)
    with pytest.raises(InvalidArgumentError):
        at.astro_attention(ad.constant(x), params, mask=np.zeros(4))


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("stack", [None, 3], ids=["matrix", "stacked"])
def test_no_mask_equals_all_ones_mask(stack, n_heads):
    """A call with no mask writes through an all-ones validity column, so
    it equals, bit for bit, the same call given that mask: values, and
    under a tape the gradients of x and of every parameter."""
    x, arrays, _ = fresh(29, n=7, d=8, m=8, n_heads=n_heads)
    if stack is not None:
        x = np.random.default_rng(3).standard_normal((stack, 7, 8))
    results = []
    for mask in (None, np.ones(x.shape[:-1])):
        params = at.make_attention_params(arrays, n_heads=n_heads)
        leaf = ad.leaf(x)
        with ad.Tape():
            out = at.astro_attention(leaf, params, mask=mask)
        ad.backward(out, seed=np.cos(out.value))
        names = sorted(arrays)
        results.append([out.value, leaf.grad] + [getattr(params, k).grad for k in names])
    for got, expected in zip(*results):
        assert np.array_equal(got, expected)


def test_masked_call_records_the_weighted_write():
    """One single-head masked call, P = phi(R) given, records 17 ops: the
    write takes 9 (K, V, V * c / m, phi(K), phi(K) + P, its transpose, the
    written product, c^T phi(K) and its power) and the read 8.  They store
    5nm + 5nd + md + 2m + 2n floats; the transpose is a view."""
    n, d, m = 10, 8, 6
    x, _, params = fresh(47, n=n, d=d, m=m)
    pos = ad.leaf(np.random.default_rng(2).standard_normal((n, m)))
    mask = np.ones(n)
    mask[6:] = 0.0
    with ad.Tape() as tape:
        at.astro_attention(ad.leaf(x), params, pos, mask=mask)
    assert len(tape._ops) == 17
    assert tape.stored_floats == 5 * n * m + 5 * n * d + m * d + 2 * m + 2 * n == 780


def test_head_permutation_is_identity():
    x, arrays, params = fresh(13, n=8, d=8, m=8, n_heads=2)
    m_h, d_h = 4, 4
    swapped = {
        "w_key": np.concatenate([arrays["w_key"][:, m_h:], arrays["w_key"][:, :m_h]], axis=1),
        "w_query": np.concatenate([arrays["w_query"][:, m_h:], arrays["w_query"][:, :m_h]], axis=1),
        "w_value": np.concatenate([arrays["w_value"][:, d_h:], arrays["w_value"][:, :d_h]], axis=1),
        "pos_mix": arrays["pos_mix"],
        "pos_read": np.concatenate([arrays["pos_read"][:, m_h:], arrays["pos_read"][:, :m_h]], axis=1),
        "w_out": np.concatenate([arrays["w_out"][d_h:], arrays["w_out"][:d_h]], axis=0),
    }
    params_swapped = at.make_attention_params(swapped, n_heads=2)
    a = at.astro_attention(ad.constant(x), params)
    b = at.astro_attention(ad.constant(x), params_swapped)
    assert rel_err(a.value, b.value) < ORACLE_TOL


def test_no_quadratic_intermediate_given_positional_summary(monkeypatch):
    """With R supplied, no recorded node may have a token-count-squared axis."""
    n, d, m = 32, 8, 6
    x, _, params = fresh(17, n=n, d=d, m=m)
    pos = ad.constant(np.random.default_rng(0).standard_normal((n, m)))
    monkeypatch.setattr(at, "positional_matrix", lambda n_tokens, p: pos)
    with ad.Tape() as tape:
        out = at.astro_attention(ad.leaf(x), params)
        recorded = list(tape._ops)  # the sweep below releases the tape
        ad.backward(out)
    limit = n * max(d, m)
    for node in recorded:
        assert node.value.size <= limit
        assert not (node.value.shape[0] == n and node.value.shape[1] == n)


@pytest.mark.parametrize("n_heads", [1, 2])
def test_given_positional_summary_equals_built_one(n_heads):
    """R handed in by the caller gives the block the R it would build: the
    same values taped or not, the same output, and under a tape the same
    gradients once R's gradient is swept through its own build."""
    x, arrays, params = fresh(19, n=6, d=6, m=4, n_max=9, n_heads=n_heads)
    free = at.positional_matrix(6, params)
    assert free.is_leaf
    assert np.array_equal(at.astro_attention(ad.constant(x), params, free).value,
                          at.astro_attention(ad.constant(x), params).value)
    weights = np.random.default_rng(5).standard_normal(x.shape)
    grads = []
    for given in (False, True):
        params = at.make_attention_params(arrays, n_heads=n_heads)
        with ad.Tape():
            built = at.positional_matrix(6, params)
        assert np.array_equal(built.value, free.value)
        pos = ad.leaf(built.value) if given else None
        with ad.Tape():
            out = at.astro_attention(ad.leaf(x), params, pos)
        ad.backward(out, seed=weights)
        if given:
            ad.backward(built, seed=pos.grad)
        grads.append([params.pos_mix.grad, params.pos_read.grad, params.w_key.grad])
    for got, expected in zip(*grads):
        assert rel_err(got, expected) < ORACLE_TOL


def _left_to_right_positional(n_tokens, params):
    """phi(R), R as ((mix . profile) . mix^T) . read, with two (n, n, n)
    products."""
    profile = ad.constant(at._decay_profile(n_tokens, params.pos_scale))
    mix = ad.slice_cols(ad.slice_rows(params.pos_mix, 0, n_tokens), 0, n_tokens)
    read = ad.slice_rows(params.pos_read, 0, n_tokens)
    mixed = ad.matmul(ad.matmul(mix, profile), ad.transpose(mix))
    return at.phi(ad.matmul(mixed, read))


@pytest.mark.parametrize("n,n_max", [(11, 16), (16, 16)], ids=["sliced", "full"])
def test_taped_positional_matrix_matches_left_to_right_product(n, n_max):
    _, arrays, _ = fresh(29, n=n, d=4, m=6, n_max=n_max)
    seed = np.random.default_rng(3).standard_normal((n, 6))
    results = []
    for build in (at.positional_matrix, _left_to_right_positional):
        params = at.make_attention_params(arrays)
        with ad.Tape():
            r = build(n, params)
            ad.backward(r, seed=seed)
        results.append((r.value, params.pos_mix.grad, params.pos_read.grad))
    for got, expected in zip(*results):
        assert rel_err(got, expected) < ORACLE_TOL


def test_taped_positional_matrix_records_one_square_node():
    """At the model's token count (n == n_max) the build records 5 ops: mix^T,
    its only (n, n) node, a view that stores nothing, then three products
    and phi, each (n, m)."""
    n, m = 20, 6
    _, _, params = fresh(37, n=n, d=4, m=m)
    with ad.Tape() as tape:
        at.positional_matrix(n, params)
    square = [node for node in tape._ops if node.shape == (n, n)]
    assert len(square) == 1
    assert square[0]._parents == (params.pos_mix,)
    assert np.shares_memory(square[0].value, params.pos_mix.value)
    assert np.array_equal(square[0].value, params.pos_mix.value.T)
    assert all(node.shape == (n, m) for node in tape._ops if node is not square[0])
    assert len(tape._ops) == 5
    assert tape.stored_floats == 4 * n * m


def test_sliced_taped_positional_matrix_stores_what_the_full_one_does():
    """Below capacity the build reads the leading blocks of ``pos_mix`` and
    ``pos_read`` as views, so it stores the 4nm floats of the n == n_max
    build, not an (n, n_max) slice."""
    n, n_max, m = 64, 256, 6
    _, _, params = fresh(43, n=n, d=4, m=m, n_max=n_max)
    with ad.Tape() as tape:
        at.positional_matrix(n, params)
    assert tape.stored_floats == 4 * n * m


@pytest.mark.parametrize("op", [ad.matmul, ad.hadamard])
def test_constant_operand_gets_no_gradient(op):
    """A product skips the gradient of its constant operand; the leaf's
    gradient is the one a sweep that also differentiates the constant gives,
    and matches finite differences."""
    rng = np.random.default_rng(41)
    arrays = [rng.standard_normal((4, 4)) for _ in range(3)]
    weights = rng.standard_normal((4, 4))

    def graph(c_left, w, c_right):
        return op(op(c_left, w), c_right)

    def sweep(make_const):
        nodes = [make_const(arrays[0]), ad.leaf(arrays[1]), make_const(arrays[2])]
        with ad.Tape():
            out = graph(*nodes)
            ad.backward(out, seed=weights)
        return nodes

    skipped = sweep(ad.constant)
    assert skipped[0]._grad is None and skipped[2]._grad is None
    full = sweep(ad.leaf)
    assert np.array_equal(skipped[1].grad, full[1].grad)
    with ad.Tape():
        inner = op(ad.constant(arrays[0]), ad.leaf(arrays[1]))
        assert inner._vjp(weights)[0] is None
        outer = op(inner, ad.constant(arrays[2]))
        assert outer._vjp(weights)[1] is None

    def objective(arrs):
        return float(np.sum(weights * graph(*map(ad.constant, arrs)).value))

    assert rel_err(skipped[1].grad, finite_diff_grad(objective, arrays, 1)) < 1e-6


def test_positions_are_row_indices():
    """Tokens appended later sit at later positions: the decay profile must
    weight rows by index distance regardless of content."""
    profile = at._decay_profile(5, 1.0)
    assert profile[0, 4] == pytest.approx(np.exp(-4.0))
    assert profile[2, 2] == 1.0
    assert np.allclose(profile, profile.T)


def test_capacity_error_past_n_max():
    x, _, params = fresh(23, n=4, n_max=4)
    with pytest.raises(CapacityError):
        at.positional_matrix(5, params)
    rng = np.random.default_rng(0)
    too_long = ad.constant(rng.standard_normal((5, 8)))
    with pytest.raises(CapacityError):
        at.astro_attention(too_long, params)


def test_shape_validation():
    rng = np.random.default_rng(0)
    arrays = at.init_attention_arrays(6, 4, 8, rng)
    bad = dict(arrays)
    bad["w_key"] = rng.standard_normal((6, 5))
    with pytest.raises(ShapeError):
        at.make_attention_params(bad)
    params = at.make_attention_params(arrays)
    with pytest.raises(ShapeError):
        at.astro_attention(ad.constant(rng.standard_normal((3, 5))), params)
    with pytest.raises(InvalidArgumentError):
        at.make_attention_params(arrays, alpha=0.0)
    with pytest.raises(InvalidArgumentError):
        at.make_attention_params(arrays, n_heads=4)  # 4 does not divide 6
    for pos_scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="pos_scale"):
            at.make_attention_params(arrays, pos_scale=pos_scale)


# ---------------------------------------------------------------------------
# gradients through the whole block


@pytest.mark.parametrize("n_heads", [1, 2])
def test_block_gradients_match_finite_differences(n_heads):
    rng = np.random.default_rng(31 + n_heads)
    n, d, m, n_max = 5, 4, 4, 7
    arrays = at.init_attention_arrays(d, m, n_max, rng, n_heads=n_heads)
    x = rng.standard_normal((n, d))
    weights = rng.standard_normal((n, d))
    names = sorted(arrays)

    def forward(arrs_list):
        arrs = dict(zip(names, arrs_list))
        params = at.make_attention_params(arrs, n_heads=n_heads)
        return at.astro_attention(ad.constant(x), params)

    with ad.Tape():
        leaves = [ad.leaf(arrays[name]) for name in names]
        params = at.AttentionParams(
            w_query=leaves[names.index("w_query")],
            w_key=leaves[names.index("w_key")],
            w_value=leaves[names.index("w_value")],
            pos_mix=leaves[names.index("pos_mix")],
            pos_read=leaves[names.index("pos_read")],
            w_out=leaves[names.index("w_out")] if "w_out" in names else None,
            n_heads=n_heads,
        )
        out = at.astro_attention(ad.constant(x), params)
        ad.backward(out, seed=weights)

    def objective(arrs_list):
        return float(np.sum(weights * forward(arrs_list).value))

    base = [arrays[name] for name in names]
    for i, name in enumerate(names):
        fd = finite_diff_grad(objective, base, i)
        assert rel_err(leaves[i].grad, fd) < 1e-6, f"{name} gradient mismatch"
