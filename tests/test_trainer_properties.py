"""Property: replay and full backprop agree bit for bit over random small runs."""

import numpy as np
import pytest

from astroseq.model import ModelConfig, SegmentModel, split_segments
from astroseq.retention import RetentionSchedule

from test_trainer import run_both

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(
    n_heads=st.integers(1, 2),
    n_layers=st.integers(1, 2),
    mem_tokens=st.integers(0, 4),
    T=st.integers(1, 4),
    seg_len=st.integers(2, 4),
    dropout=st.sampled_from([0.0, 0.1]),
    mode=st.sampled_from(["final", "per_segment"]),
    data=st.data(),
)
def test_replay_equals_full_backprop_over_random_configs(
    n_heads, n_layers, mem_tokens, T, seg_len, dropout, mode, data
):
    """Replay and full backprop give identical gradients and losses, bit for
    bit, over random small models, lengths and positive factors."""
    cfg = ModelConfig(
        vocab_size=9, n_classes=3, d_model=4, m_hidden=4, n_heads=n_heads, ffn_dim=6,
        n_layers=n_layers, seg_len=seg_len, n_segments=T, mem_tokens=mem_tokens,
        dropout=dropout,
    )
    # With no memory rows an all-padding segment has nothing to attend.
    shortest = 1 if mem_tokens else seg_len * (T - 1) + 1
    length = data.draw(st.integers(shortest, seg_len * T), label="length")
    factors = data.draw(st.lists(st.floats(0.01, 1.0), min_size=T, max_size=T), label="factors")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    model = SegmentModel(cfg, seed=seed)
    tokens = np.random.default_rng(seed).integers(1, cfg.vocab_size, size=length)
    batch = split_segments(tokens, seg_len, T, label=seed % 3)
    schedule = RetentionSchedule(n_segments=T, factors=tuple(factors), source={"kind": "drawn"})
    drop_seed = seed if dropout else None
    rep_b, g_bptt, rep_a, g_amrb = run_both(model, batch, schedule, mode, drop_seed)
    assert rep_a.seg_losses == rep_b.seg_losses
    for name in g_bptt:
        assert np.array_equal(g_amrb[name], g_bptt[name]), name
