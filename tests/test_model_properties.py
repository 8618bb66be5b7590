"""Properties of the segment walk over random small models: whatever
segment a walk starts its token rows at, and wherever it resumes, its
memory rows equal those of the walk that runs every token row, bit for
bit, and so does every token row it runs.  And the validity the model
reads from the ids is the positional mask of the sequence's length."""

import numpy as np
import pytest

from astroseq.model import PAD_ID, ModelConfig, SegmentModel, split_segments, stack_batches
from astroseq.retention import RetentionSchedule

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, deadline=None, max_examples=30)
@hypothesis.given(
    n_layers=st.integers(1, 2),
    n_heads=st.integers(1, 2),
    T=st.integers(1, 4),
    stack=st.sampled_from([1, 2, 5]),
    data=st.data(),
)
def test_skipping_token_rows_keeps_every_row_it_computes(n_layers, n_heads, T, stack, data):
    """Over random models, stacks and dropout seeds, with and without
    memory rows and dropout, for every ``tokens_from`` in 1..T+1 and every
    segment a walk resumes at, from the memory the full walk yielded
    before it, as prediction and replay do: each memory row equals that of
    the ``tokens_from=1`` walk bit for bit, and each segment from
    ``tokens_from`` on yields the token rows of that walk bit for bit,
    while those before it yield None."""
    seg_len = data.draw(st.integers(2, 4), label="seg_len")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    factors = data.draw(st.lists(st.floats(0.01, 1.0), min_size=T, max_size=T), label="factors")
    schedule = RetentionSchedule(n_segments=T, factors=tuple(factors), source={"kind": "drawn"})
    for mem_tokens, dropout in [(0, 0.0), (0, 0.3), (2, 0.0), (2, 0.3)]:
        # m_hidden 8, not 4: at 4, numpy's read products round alike over
        # any number of rows, so reading all rows in one piece passes.
        cfg = ModelConfig(
            vocab_size=9, n_classes=3, d_model=4, m_hidden=8, n_heads=n_heads, ffn_dim=6,
            n_layers=n_layers, seg_len=seg_len, n_segments=T, mem_tokens=mem_tokens,
            dropout=dropout,
        )
        model = SegmentModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        # With no memory rows an all-padding segment has nothing to attend.
        shortest = 1 if mem_tokens else seg_len * (T - 1) + 1
        lengths = data.draw(
            st.lists(st.integers(shortest, seg_len * T), min_size=stack, max_size=stack)
        )
        batch = stack_batches(
            [split_segments(rng.integers(1, 9, n), seg_len, T, 0) for n in lengths]
        )
        drop_seed = [(seed, 1, i) for i in range(stack)] if dropout else None
        pos = model.positional()

        full = list(model.segments(batch, schedule, pos, drop_seed))
        assert [t for t, _, _ in full] == list(range(1, T + 1))
        for tokens_from in range(1, T + 2):
            for start in range(1, T + 1):
                memory = full[start - 2][2] if start > 1 else None
                walk = list(
                    model.segments(batch, schedule, pos, drop_seed, start, memory, tokens_from)
                )
                assert [t for t, _, _ in walk] == list(range(start, T + 1))
                for (t, out, mem), (_, out_full, mem_full) in zip(walk, full[start - 1:]):
                    if mem_tokens:
                        assert np.array_equal(mem.value, mem_full.value)
                    else:
                        # Nothing crosses the boundary: an empty memory, as
                        # given where no block runs, or the empty memory block.
                        assert mem.value.size == 0
                    if t < tokens_from:
                        assert out is None
                    else:
                        assert np.array_equal(out.value, out_full.value)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(
    seg_len=st.integers(1, 6),
    T=st.integers(1, 5),
    vocab=st.integers(2, 40),
    data=st.data(),
)
def test_pad_id_marks_exactly_the_positions_past_the_sequence(seg_len, T, vocab, data):
    """For any sequence of 1..capacity ids from 1..vocab-1, the ids that are
    not PAD_ID are exactly the positions before the sequence's length: the
    positional mask a batch once carried beside its ids."""
    capacity = seg_len * T
    tokens = data.draw(
        st.lists(st.integers(1, vocab - 1), min_size=1, max_size=capacity), label="tokens"
    )
    batch = split_segments(tokens, seg_len, T, 0)
    positional = (np.arange(capacity) < len(tokens)).reshape(T, seg_len)
    assert np.array_equal(batch.ids[0] != PAD_ID, positional)
    assert batch.ids[0][positional].tolist() == tokens
