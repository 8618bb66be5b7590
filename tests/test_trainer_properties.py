"""Properties of the rollouts over random small runs: replay and full
backprop agree bit for bit on stacks of 1 to 3, a stack's gradients are
the sum of its samples' one-sample rollouts, each counted peak is a
shared term plus one part per sample, and prediction scores the logits
both rollouts train on."""

import numpy as np
import pytest

from astroseq.model import ModelConfig, SegmentModel, split_segments, stack_batches
from astroseq.retention import RetentionSchedule
from astroseq.trainer import PositionalStep, amrb_rollout, bptt_rollout, classification_loss

from conftest import rel_err
from test_model import scored_logits
from test_trainer import grads_by_name, run_both

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _draw_run(data, n_heads, n_layers, mem_tokens, T, seg_len, dropout, n_samples):
    """A random small model, ``n_samples`` labeled sequences of random
    lengths, a schedule of positive factors, and a dropout seed per sample
    (or None)."""
    cfg = ModelConfig(
        vocab_size=9, n_classes=3, d_model=4, m_hidden=4, n_heads=n_heads, ffn_dim=6,
        n_layers=n_layers, seg_len=seg_len, n_segments=T, mem_tokens=mem_tokens,
        dropout=dropout,
    )
    # With no memory rows an all-padding segment has nothing to attend.
    shortest = 1 if mem_tokens else seg_len * (T - 1) + 1
    factors = data.draw(st.lists(st.floats(0.01, 1.0), min_size=T, max_size=T), label="factors")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    model = SegmentModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        length = data.draw(st.integers(shortest, seg_len * T), label=f"length {i}")
        tokens = rng.integers(1, cfg.vocab_size, size=length)
        samples.append(split_segments(tokens, seg_len, T, label=int(rng.integers(3))))
    schedule = RetentionSchedule(n_segments=T, factors=tuple(factors), source={"kind": "drawn"})
    drop_seeds = [(seed, 1, i) for i in range(n_samples)] if dropout else None
    return model, samples, schedule, drop_seeds


CONFIGS = dict(
    n_heads=st.integers(1, 2),
    n_layers=st.integers(1, 2),
    mem_tokens=st.integers(0, 4),
    T=st.integers(1, 4),
    seg_len=st.integers(2, 4),
    dropout=st.sampled_from([0.0, 0.1]),
    mode=st.sampled_from(["final", "per_segment"]),
)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(stack=st.integers(1, 3), data=st.data(), **CONFIGS)
def test_replay_equals_full_backprop_over_random_configs(
    n_heads, n_layers, mem_tokens, T, seg_len, dropout, mode, stack, data
):
    """Replay and full backprop give identical gradients and losses, bit for
    bit, over random small models, lengths and positive factors, on a
    stack of 1 to 3."""
    model, samples, schedule, drop_seeds = _draw_run(
        data, n_heads, n_layers, mem_tokens, T, seg_len, dropout, stack
    )
    batch = stack_batches(samples)
    rep_b, g_bptt, rep_a, g_amrb = run_both(model, batch, schedule, mode, drop_seeds)
    assert rep_a.seg_losses == rep_b.seg_losses
    for name in g_bptt:
        assert np.array_equal(g_amrb[name], g_bptt[name]), name


@hypothesis.settings(derandomize=True, deadline=None, max_examples=30)
@hypothesis.given(
    B=st.integers(1, 3), rollout=st.sampled_from([amrb_rollout, bptt_rollout]),
    data=st.data(), **CONFIGS,
)
def test_stacked_rollout_equals_the_sum_of_single_rollouts(
    n_heads, n_layers, mem_tokens, T, seg_len, dropout, mode, B, rollout, data
):
    """A stack's parameter gradients and per-segment losses are the sums of
    its samples' one-sample rollouts, dropout included, within 1e-12, and
    equal them bit for bit at B = 1."""
    model, samples, schedule, drop_seeds = _draw_run(
        data, n_heads, n_layers, mem_tokens, T, seg_len, dropout, B
    )
    model.zero_grads()
    singles = []
    for i, sample in enumerate(samples):
        loss_fn = classification_loss(model, sample, mode=mode)
        seed = None if drop_seeds is None else drop_seeds[i : i + 1]
        singles.append(rollout(model, sample, schedule, loss_fn, seed))
    expected = grads_by_name(model)

    model.zero_grads()
    batch = stack_batches(samples)
    report = rollout(model, batch, schedule, classification_loss(model, batch, mode), drop_seeds)
    for name, grad in grads_by_name(model).items():
        assert rel_err(grad, expected[name]) <= 1e-12, name
        assert B > 1 or np.array_equal(grad, expected[name]), name
    summed = np.sum([r.seg_losses for r in singles], axis=0)
    assert rel_err(report.seg_losses, summed) <= 1e-12
    assert B > 1 or report.seg_losses == singles[0].seg_losses


@hypothesis.settings(derandomize=True, deadline=None, max_examples=30)
@hypothesis.given(B=st.integers(1, 3), data=st.data(), **{**CONFIGS, "T": st.integers(1, 5)})
def test_counted_peaks_are_the_step_term_plus_one_part_per_sample(
    n_heads, n_layers, mem_tokens, T, seg_len, dropout, mode, B, data
):
    """Replay's buffer, its whole forward peak, holds the T - 1 memories
    that cross a segment boundary, and under either rollout the backward
    peak past the positional step's floats holds one equal part per
    stacked sample: a stack of two counts twice a stack of one."""
    model, samples, schedule, drop_seeds = _draw_run(
        data, n_heads, n_layers, mem_tokens, T, seg_len, dropout, max(B, 2)
    )

    def rollout_of(rollout, n):
        stack = stack_batches(samples[:n])
        seeds = None if drop_seeds is None else drop_seeds[:n]
        return rollout(model, stack, schedule, classification_loss(model, stack, mode), seeds)

    report = rollout_of(amrb_rollout, B)
    boundaries = (T - 1) * B * mem_tokens * model.config.d_model
    assert report.forward_peak == report.replay_floats == boundaries
    shared = PositionalStep(model).floats
    for rollout in (amrb_rollout, bptt_rollout):
        one, two = (rollout_of(rollout, n).backward_peak - shared for n in (1, 2))
        assert two == 2 * one, rollout.__name__


@hypothesis.settings(derandomize=True, deadline=None, max_examples=30)
@hypothesis.given(
    n_heads=st.integers(1, 2),
    n_layers=st.integers(1, 2),
    mem_tokens=st.integers(0, 3),
    T=st.integers(1, 4),
    seg_len=st.integers(2, 4),
    stack=st.integers(1, 3),
    data=st.data(),
)
def test_predict_scores_the_logits_both_rollouts_train_on(
    n_heads, n_layers, mem_tokens, T, seg_len, stack, data
):
    """Training and evaluation cannot disagree: over random small models
    and stacks, without dropout, ``predict``'s logits are bit for bit the
    segment-T logits the ``final`` loss scores in full backprop and in
    replay's replay of T."""
    model, samples, schedule, _ = _draw_run(
        data, n_heads, n_layers, mem_tokens, T, seg_len, 0.0, stack
    )
    batch = stack_batches(samples)
    scored = scored_logits(model)
    for rollout in (bptt_rollout, amrb_rollout):
        rollout(model, batch, schedule, classification_loss(model, batch))
    assert len(scored) == 2
    _, logits = model.predict(batch, schedule, model.positional())
    for trained in scored[:2]:
        assert np.array_equal(logits, trained)
