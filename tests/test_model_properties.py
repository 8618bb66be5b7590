"""Properties of the segment walk over random small models: a walk that
skips token rows repeats the memory rows of the walk that runs them in
its own row blocks bit for bit, and a walk in one piece agrees with both
to rounding."""

import numpy as np
import pytest

from astroseq.model import ModelConfig, SegmentModel, split_segments, stack_batches
from astroseq.retention import RetentionSchedule

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(
    n_layers=st.integers(1, 2),
    n_heads=st.integers(1, 2),
    dropout=st.sampled_from([0.0, 0.3]),
    mem_tokens=st.integers(0, 3),
    T=st.integers(1, 4),
    stack=st.integers(1, 3),
    data=st.data(),
)
def test_skipping_token_rows_keeps_every_row_it_computes(
    n_layers, n_heads, dropout, mem_tokens, T, stack, data
):
    """Over random models, stacks, dropout seeds and a row mode drawn for
    each segment, resuming the walk there as prediction and replay do:
    every memory row equals that of the ``"split"`` walk bit for bit, and
    so do the token rows of a segment run under ``"split"``; one run under
    ``"memory"`` yields None for them, with or without memory rows.  The
    ``"all"`` walk differs from the ``"split"`` walk at rounding level
    only."""
    seg_len = data.draw(st.integers(2, 4), label="seg_len")
    cfg = ModelConfig(
        vocab_size=9, n_classes=3, d_model=4, m_hidden=4, n_heads=n_heads, ffn_dim=6,
        n_layers=n_layers, seg_len=seg_len, n_segments=T, mem_tokens=mem_tokens,
        dropout=dropout,
    )
    seed = data.draw(st.integers(0, 2**16), label="seed")
    model = SegmentModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    # With no memory rows an all-padding segment has nothing to attend.
    shortest = 1 if mem_tokens else seg_len * (T - 1) + 1
    samples = [
        split_segments(
            rng.integers(1, 9, size=data.draw(st.integers(shortest, seg_len * T))), seg_len, T
        )
        for _ in range(stack)
    ]
    batch = stack_batches(samples)
    factors = data.draw(st.lists(st.floats(0.01, 1.0), min_size=T, max_size=T), label="factors")
    schedule = RetentionSchedule(n_segments=T, factors=tuple(factors), source={"kind": "drawn"})
    modes = data.draw(
        st.lists(st.sampled_from(["memory", "split"]), min_size=T, max_size=T), label="modes"
    )
    drop_seed = [(seed, 1, i) for i in range(stack)] if dropout else None
    pos = model.positional()

    split = list(model.segments(batch, schedule, pos, drop_seed, rows="split"))
    whole = list(model.segments(batch, schedule, pos, drop_seed, rows="all"))
    assert [t for t, _, _ in split] == list(range(1, T + 1))
    memory = None
    for (t, out, mem), (_, out_w, mem_w), rows in zip(split, whole, modes):
        walk = model.segments(batch, schedule, pos, drop_seed, start=t, memory=memory, rows=rows)
        t_r, out_r, memory = next(walk)
        assert t_r == t
        # Without memory rows there is nothing to compare: "memory" passes
        # on the empty memory it was given, "split" an empty view.
        assert not mem_tokens or np.array_equal(memory.value, mem.value)
        if rows == "memory":
            assert out_r is None
        else:
            assert np.array_equal(out_r.value, out.value)
        np.testing.assert_allclose(mem_w.value, mem.value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out_w.value, out.value, rtol=1e-12, atol=1e-12)
