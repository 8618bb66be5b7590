"""Segment model: splitting, forward graph, pooling, dropout, round trips."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from astroseq import autodiff as ad
from astroseq.config import RunConfig, read_stored_run
from astroseq.errors import ConfigError, InvalidArgumentError, ShapeError
from astroseq.model import (
    PAD_ID,
    ModelConfig,
    Parameter,
    SegmentModel,
    split_segments,
    stack_batches,
)
from astroseq.retention import RetentionSchedule, uniform_schedule
from astroseq.trainer import bptt_rollout, classification_loss

from conftest import rel_err


def tiny_config(**overrides):
    base = dict(
        vocab_size=7,
        n_classes=3,
        d_model=4,
        m_hidden=4,
        n_heads=1,
        ffn_dim=6,
        n_layers=1,
        seg_len=3,
        n_segments=2,
        mem_tokens=2,
        dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# splitting


def test_split_segments_pads_and_masks():
    """A sample is a stack of one, ids and a label; PAD_ID (0) pads it."""
    batch = split_segments([3, 4, 5, 6, 1], seg_len=3, n_segments=2, label=1)
    assert PAD_ID == 0
    assert batch.ids.shape == (1, 2, 3)
    assert batch.ids.tolist() == [[[3, 4, 5], [6, 1, 0]]]
    assert (batch.ids != PAD_ID).tolist() == [[[1, 1, 1], [1, 1, 0]]]
    assert batch.label.tolist() == [1] and batch.label.dtype == np.int64
    assert int((batch.ids != PAD_ID).sum()) == 5
    assert batch.n_segments == 2


def test_split_segments_exact_fit_has_full_mask():
    batch = split_segments([1, 2, 3, 4], seg_len=2, n_segments=2, label=0)
    assert (batch.ids != PAD_ID).all()


def test_split_segments_rejects_overflow_empty_and_pad_collision():
    with pytest.raises(InvalidArgumentError):
        split_segments([1] * 7, seg_len=3, n_segments=2, label=0)
    with pytest.raises(InvalidArgumentError):
        split_segments([], seg_len=3, n_segments=2, label=0)
    with pytest.raises(InvalidArgumentError, match="pad id 0"):
        split_segments([1, PAD_ID, 2], seg_len=3, n_segments=1, label=0)


def test_stack_batches_joins_stacks():
    a = split_segments([1, 2, 3], 3, 1, label=2)
    b = stack_batches([split_segments([4], 3, 1, label=0), split_segments([5, 6], 3, 1, label=1)])
    joined = stack_batches([a, b])
    assert joined.ids.tolist() == [[[1, 2, 3]], [[4, 0, 0]], [[5, 6, 0]]]
    assert (joined.ids != PAD_ID).sum(axis=(1, 2)).tolist() == [3, 1, 2]
    assert joined.label.tolist() == [2, 0, 1]


def test_stack_batches_rejects_mixed_segment_shapes():
    sample = split_segments([1, 2], 2, 2, label=1)
    for seg_len, n_segments in ((4, 1), (2, 3)):
        other = split_segments([1, 2], seg_len, n_segments, label=1)
        with pytest.raises(InvalidArgumentError) as info:
            stack_batches([sample, other])
        assert "(2, 2)" in str(info.value) and f"({n_segments}, {seg_len})" in str(info.value)
    with pytest.raises(InvalidArgumentError):
        stack_batches([])


# ---------------------------------------------------------------------------
# config and parameters


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        tiny_config(vocab_size=1)
    with pytest.raises(InvalidArgumentError):
        tiny_config(mem_tokens=-1)
    with pytest.raises(InvalidArgumentError):
        tiny_config(n_heads=3)  # does not divide m_hidden=4
    with pytest.raises(InvalidArgumentError):
        tiny_config(dropout=1.0)
    for pos_scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="pos_scale"):
            tiny_config(pos_scale=pos_scale)


def test_config_dict_round_trip():
    # A checkpoint stores the run, and the model config is rebuilt from it.
    run = RunConfig(n_heads=2, mem_tokens=0, d_model=4, m_hidden=4, ffn_dim=6, seg_len=3)
    stored = json.loads(json.dumps(asdict(run)))
    assert read_stored_run(stored).model_config(7, 3) == run.model_config(7, 3)
    with pytest.raises(ConfigError):
        read_stored_run({"d_model": 4})


def test_parameter_must_be_2d():
    with pytest.raises(ShapeError):
        Parameter("x", np.zeros(3), decay=True)


def test_model_seeding_is_deterministic():
    a = SegmentModel(tiny_config(), seed=5)
    b = SegmentModel(tiny_config(), seed=5)
    c = SegmentModel(tiny_config(), seed=6)
    for name in a.params:
        assert np.array_equal(a.params[name].value, b.params[name].value)
    assert any(
        not np.array_equal(a.params[n].value, c.params[n].value) for n in a.params
    )


def test_state_arrays_round_trip_and_mismatch():
    model = SegmentModel(tiny_config(), seed=0)
    other = SegmentModel(tiny_config(), seed=1)
    other.load_arrays(model.state_arrays())
    for name in model.params:
        assert np.array_equal(other.params[name].value, model.params[name].value)
    bad = model.state_arrays()
    bad.pop("head.b")
    with pytest.raises(InvalidArgumentError):
        other.load_arrays(bad)
    bad = model.state_arrays()
    bad["head.b"] = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        other.load_arrays(bad)


# ---------------------------------------------------------------------------
# forward graph


def test_segment_forward_shapes_and_determinism():
    cfg = tiny_config()
    model = SegmentModel(cfg, seed=0)
    mem = model.params["mem_init"]
    ids = np.array([[1, 2, 3]])
    pos = model.positional()
    out1, mem1 = model.segment_forward(ids, mem, pos)
    out2, mem2 = model.segment_forward(ids, mem, pos)
    assert out1.shape == (1, cfg.seg_len, cfg.d_model)
    assert mem1.shape == (1, cfg.mem_tokens, cfg.d_model)
    assert np.array_equal(out1.value, out2.value)
    assert np.array_equal(mem1.value, mem2.value)


def test_segment_forward_rejects_bad_shapes():
    model = SegmentModel(tiny_config(), seed=0)
    mem, pos = model.params["mem_init"], model.positional()
    with pytest.raises(ShapeError):
        model.segment_forward([[1, 2]], mem, pos)
    with pytest.raises(ShapeError):
        model.segment_forward([[1, 2, 3]], ad.constant(np.zeros((1, 4))), pos)
    with pytest.raises(ShapeError):  # memory stacked for 2 samples, ids for 1
        model.segment_forward([[1, 2, 3]], ad.constant(np.zeros((2, 2, 4))), pos)


def test_single_sequence_inputs_are_rejected():
    """Only stacks are taken: 1-D ids, to run or to pool, raise ShapeError,
    and a bare seed where a list of one per sample belongs raises
    InvalidArgumentError before a segment runs."""
    model, batch, schedule = walk_setup()
    mem, pos = model.params["mem_init"], model.positional()
    with pytest.raises(ShapeError):
        model.segment_forward(np.array([1, 2, 3]), mem, pos)
    out, mem_out = model.segment_forward(batch.ids[:, 0], mem, pos)
    with pytest.raises(ShapeError):
        model.classify(out, mem_out, batch.ids[0, 0])
    with pytest.raises(InvalidArgumentError, match="dropout seeds"):
        next(model.segments(batch, schedule, pos, (7, 1, 0)))


def test_memory_carries_information_between_segments():
    """Perturbing the memory seed must change the next segment's output."""
    cfg = tiny_config()
    model = SegmentModel(cfg, seed=0)
    ids = np.array([[1, 2, 3]])
    pos = model.positional()
    out_a, _ = model.segment_forward(ids, model.params["mem_init"], pos)
    shifted = ad.constant(model.params["mem_init"].value + 0.37)
    out_b, _ = model.segment_forward(ids, shifted, pos)
    assert np.abs(out_a.value - out_b.value).max() > 1e-8


def test_zero_memory_tokens_runs_end_to_end():
    cfg = tiny_config(mem_tokens=0)
    model = SegmentModel(cfg, seed=0)
    batch = split_segments([1, 2, 3, 4, 5, 6], seg_len=3, n_segments=2, label=0)
    labels, logits = model.predict(batch, uniform_schedule(2), model.positional())
    assert logits.shape == (1, 1, cfg.n_classes)
    assert labels.shape == (1,) and 0 <= labels[0] < cfg.n_classes
    assert model.params["mem_init"].value.shape == (0, cfg.d_model)


def test_classify_matches_manual_pooling():
    cfg = tiny_config()
    model = SegmentModel(cfg, seed=3)
    rng = np.random.default_rng(0)
    out = ad.constant(rng.normal(size=(1, cfg.seg_len, cfg.d_model)))
    mem = ad.constant(rng.normal(size=(1, cfg.mem_tokens, cfg.d_model)))
    ids = np.array([[4, 5, PAD_ID]])
    logits = model.classify(out, mem, ids)
    rows = np.concatenate([out.value[0, :2], mem.value[0]])
    pooled = rows.mean(axis=0, keepdims=True)
    expected = pooled @ model.params["head.w"].value + model.params["head.b"].value
    assert rel_err(logits.value, expected) < 1e-12


def test_classify_rejects_all_empty_pool():
    cfg = tiny_config(mem_tokens=0)
    model = SegmentModel(cfg, seed=0)
    out = ad.constant(np.zeros((1, cfg.seg_len, cfg.d_model)))
    mem = ad.constant(np.zeros((1, 0, cfg.d_model)))
    with pytest.raises(InvalidArgumentError):
        model.classify(out, mem, np.full((1, cfg.seg_len), PAD_ID))


def test_predict_respects_schedule_length():
    model = SegmentModel(tiny_config(), seed=0)
    batch = split_segments([1, 2, 3, 4], seg_len=3, n_segments=2, label=0)
    with pytest.raises(InvalidArgumentError):
        model.predict(batch, uniform_schedule(3), model.positional())


def test_retention_factor_changes_prediction_logits():
    model = SegmentModel(tiny_config(), seed=0)
    batch = split_segments([1, 2, 3, 4, 5, 6], seg_len=3, n_segments=2, label=0)
    pos = model.positional()
    _, base = model.predict(batch, uniform_schedule(2), pos)
    skewed = RetentionSchedule(
        n_segments=2, factors=(0.7, 0.3), source={"kind": "derived"}
    )
    _, scaled = model.predict(batch, skewed, pos)
    assert np.abs(base - scaled).max() > 1e-9


# ---------------------------------------------------------------------------
# the segment walk


def walk_setup():
    """Two layers, two heads, dropout, and distinct factors over 4 segments."""
    model = SegmentModel(tiny_config(n_heads=2, n_layers=2, n_segments=4, dropout=0.3), seed=2)
    batch = split_segments([1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5], 3, 4, label=1)
    schedule = RetentionSchedule(
        n_segments=4, factors=(0.4, 0.3, 0.2, 0.1), source={"kind": "derived"}
    )
    return model, batch, schedule


def test_segments_resumed_from_yielded_memory_repeat_the_full_walk():
    """Resumed at each t from the memory it yielded at t-1, the walk gives
    segment t's rows and memory bit for bit: the contract replay relies on."""
    model, batch, schedule = walk_setup()
    pos, drop_seed = model.positional(), [(7, 1, 0)]
    full = list(model.segments(batch, schedule, pos, drop_seed))
    assert [t for t, _, _ in full] == [1, 2, 3, 4]
    memory = model.params["mem_init"]
    for t, out, mem in full:
        t_r, out_r, mem_r = next(
            model.segments(batch, schedule, pos, drop_seed, start=t, memory=memory)
        )
        assert t_r == t
        assert np.array_equal(out_r.value, out.value)
        assert np.array_equal(mem_r.value, mem.value)
        memory = mem
    undropped = list(model.segments(batch, schedule, pos))
    assert not np.array_equal(undropped[-1][1].value, full[-1][1].value)


def test_stacked_walk_takes_one_dropout_seed_per_sample():
    """A stack takes a list of one seed per sample; anything else is
    refused before a segment runs."""
    model, batch, schedule = walk_setup()
    stack = stack_batches([batch, batch])
    pos = model.positional()
    for walked, seed in ((stack, [(7, 1, 0)]), (batch, [(7, 1, 0), 8]), (stack, ((7,), (8,)))):
        with pytest.raises(InvalidArgumentError, match="dropout seeds"):
            next(model.segments(walked, schedule, pos, seed))
    next(model.segments(stack, schedule, pos, [(7, 1, 0), 8]))


def scored_logits(model):
    """Records the logits of each ``model.classify`` call, in call order."""
    scored, classify = [], model.classify

    def recording(out, mem, ids):
        logits = classify(out, mem, ids)
        scored.append(logits.value.copy())
        return logits

    model.classify = recording
    return scored


def test_predict_scores_the_logits_full_backprop_trains_on():
    """Training and evaluation walk one path: the final-segment logits a
    BPTT loss scores are ``predict``'s logits, bit for bit."""
    model, batch, schedule = walk_setup()
    scored = scored_logits(model)
    bptt_rollout(model, batch, schedule, classification_loss(model, batch))
    assert len(scored) == 1
    _, logits = model.predict(batch, schedule, model.positional())
    assert np.array_equal(logits, scored[0])


def last_ffn_rows(monkeypatch, model):
    """Records (taped, rows) for each product with the last block's FFN
    input weight, in call order."""
    w_in = model.params[f"block{model.config.n_layers - 1}.ffn.w_in"]
    seen = []
    original = ad.matmul

    def recording(a, b):
        if b is w_in:
            seen.append((ad.active_tape() is not None, a.shape[-2]))
        return original(a, b)

    monkeypatch.setattr(ad, "matmul", recording)
    return seen


def test_predict_runs_token_rows_of_the_last_segment_only(monkeypatch):
    """Before T, prediction runs the last block's FFN on the memory rows
    alone; at T on the memory rows, then the token rows."""
    model, batch, schedule = walk_setup()
    pos = model.positional()
    seen = last_ffn_rows(monkeypatch, model)
    model.predict(batch, schedule, pos)
    assert seen == [(False, 2)] * 3 + [(False, 2), (False, 3)]


# ---------------------------------------------------------------------------
# dropout


def test_dropout_replays_identically_with_same_generator_seed():
    from astroseq.seeding import spawn

    cfg = tiny_config(dropout=0.4)
    model = SegmentModel(cfg, seed=0)
    mem = model.params["mem_init"]
    ids = np.array([[1, 2, 3]])
    pos = model.positional()
    out_a, _ = model.segment_forward(ids, mem, pos, drop_rng=[spawn(9, 2, 1)])
    out_b, _ = model.segment_forward(ids, mem, pos, drop_rng=[spawn(9, 2, 1)])
    out_c, _ = model.segment_forward(ids, mem, pos, drop_rng=[spawn(9, 2, 2)])
    assert np.array_equal(out_a.value, out_b.value)
    assert np.abs(out_a.value - out_c.value).max() > 1e-9


def test_dropout_inactive_outside_training():
    cfg = tiny_config(dropout=0.4)
    model = SegmentModel(cfg, seed=0)
    mem = model.params["mem_init"]
    ids = np.array([[1, 2, 3]])
    pos = model.positional()
    out_a, _ = model.segment_forward(ids, mem, pos)
    out_b, _ = model.segment_forward(ids, mem, pos)
    assert np.array_equal(out_a.value, out_b.value)
