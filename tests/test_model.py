"""Segment model: splitting, forward graph, pooling, dropout, round trips."""

from dataclasses import asdict

import numpy as np
import pytest

from astroseq import autodiff as ad
from astroseq.errors import InvalidArgumentError, ShapeError
from astroseq.model import (
    ModelConfig,
    Parameter,
    SegmentModel,
    split_segments,
)
from astroseq.retention import RetentionSchedule, uniform_schedule

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
    batch = split_segments([3, 4, 5, 6, 1], seg_len=3, n_segments=2, pad_id=0, label=1)
    assert batch.ids.shape == (2, 3)
    assert batch.ids.tolist() == [[3, 4, 5], [6, 1, 0]]
    assert batch.mask.tolist() == [[1, 1, 1], [1, 1, 0]]
    assert batch.label == 1
    assert batch.length == 5
    assert batch.n_segments == 2


def test_split_segments_exact_fit_has_full_mask():
    batch = split_segments([1, 2, 3, 4], seg_len=2, n_segments=2)
    assert batch.mask.all()


def test_split_segments_rejects_overflow_empty_and_pad_collision():
    with pytest.raises(InvalidArgumentError):
        split_segments([1] * 7, seg_len=3, n_segments=2)
    with pytest.raises(InvalidArgumentError):
        split_segments([], seg_len=3, n_segments=2)
    with pytest.raises(InvalidArgumentError):
        split_segments([1, 0, 2], seg_len=3, n_segments=1, pad_id=0)


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
    with pytest.raises(InvalidArgumentError):
        tiny_config(pad_id=7)


def test_config_dict_round_trip():
    cfg = tiny_config(n_heads=2, mem_tokens=0)
    assert ModelConfig.from_dict(asdict(cfg)) == cfg
    with pytest.raises(InvalidArgumentError):
        ModelConfig.from_dict({"vocab_size": 7})


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
    ids = np.array([1, 2, 3])
    mask = np.ones(3)
    out1, mem1 = model.segment_forward(ids, mask, mem)
    out2, mem2 = model.segment_forward(ids, mask, mem)
    assert out1.shape == (cfg.seg_len, cfg.d_model)
    assert mem1.shape == (cfg.mem_tokens, cfg.d_model)
    assert np.array_equal(out1.value, out2.value)
    assert np.array_equal(mem1.value, mem2.value)


def test_segment_forward_rejects_bad_shapes():
    model = SegmentModel(tiny_config(), seed=0)
    mem = model.params["mem_init"]
    with pytest.raises(ShapeError):
        model.segment_forward([1, 2], np.ones(3), mem)
    with pytest.raises(ShapeError):
        model.segment_forward([1, 2, 3], np.ones(3), ad.constant(np.zeros((1, 4))))


def test_memory_carries_information_between_segments():
    """Perturbing the memory seed must change the next segment's output."""
    cfg = tiny_config()
    model = SegmentModel(cfg, seed=0)
    ids = np.array([1, 2, 3])
    mask = np.ones(3)
    out_a, _ = model.segment_forward(ids, mask, model.params["mem_init"])
    shifted = ad.constant(model.params["mem_init"].value + 0.37)
    out_b, _ = model.segment_forward(ids, mask, shifted)
    assert np.abs(out_a.value - out_b.value).max() > 1e-8


def test_zero_memory_tokens_runs_end_to_end():
    cfg = tiny_config(mem_tokens=0)
    model = SegmentModel(cfg, seed=0)
    batch = split_segments([1, 2, 3, 4, 5, 6], seg_len=3, n_segments=2, label=0)
    label, logits = model.predict(batch)
    assert logits.shape == (1, cfg.n_classes)
    assert 0 <= label < cfg.n_classes
    assert model.params["mem_init"].value.shape == (0, cfg.d_model)


def test_classify_matches_manual_pooling():
    cfg = tiny_config()
    model = SegmentModel(cfg, seed=3)
    rng = np.random.default_rng(0)
    out = ad.constant(rng.normal(size=(cfg.seg_len, cfg.d_model)))
    mem = ad.constant(rng.normal(size=(cfg.mem_tokens, cfg.d_model)))
    mask = np.array([1.0, 1.0, 0.0])
    logits = model.classify(out, mem, mask)
    rows = np.concatenate([out.value[:2], mem.value])
    pooled = rows.mean(axis=0, keepdims=True)
    expected = pooled @ model.params["head.w"].value + model.params["head.b"].value
    assert rel_err(logits.value, expected) < 1e-12


def test_classify_rejects_all_empty_pool():
    cfg = tiny_config(mem_tokens=0)
    model = SegmentModel(cfg, seed=0)
    out = ad.constant(np.zeros((cfg.seg_len, cfg.d_model)))
    mem = ad.constant(np.zeros((0, cfg.d_model)))
    with pytest.raises(InvalidArgumentError):
        model.classify(out, mem, np.zeros(cfg.seg_len))


def test_predict_respects_schedule_length():
    model = SegmentModel(tiny_config(), seed=0)
    batch = split_segments([1, 2, 3, 4], seg_len=3, n_segments=2, label=0)
    with pytest.raises(InvalidArgumentError):
        model.predict(batch, uniform_schedule(3))


def test_retention_factor_changes_prediction_logits():
    model = SegmentModel(tiny_config(), seed=0)
    batch = split_segments([1, 2, 3, 4, 5, 6], seg_len=3, n_segments=2, label=0)
    _, base = model.predict(batch, uniform_schedule(2))
    skewed = RetentionSchedule(
        n_segments=2, factors=(0.7, 0.3), source={"kind": "derived"}
    )
    _, scaled = model.predict(batch, skewed)
    assert np.abs(base - scaled).max() > 1e-9


# ---------------------------------------------------------------------------
# dropout


def test_dropout_replays_identically_with_same_generator_seed():
    from astroseq.seeding import spawn

    cfg = tiny_config(dropout=0.4)
    model = SegmentModel(cfg, seed=0)
    mem = model.params["mem_init"]
    ids, mask = np.array([1, 2, 3]), np.ones(3)
    out_a, _ = model.segment_forward(ids, mask, mem, drop_rng=spawn(9, 2, 1))
    out_b, _ = model.segment_forward(ids, mask, mem, drop_rng=spawn(9, 2, 1))
    out_c, _ = model.segment_forward(ids, mask, mem, drop_rng=spawn(9, 2, 2))
    assert np.array_equal(out_a.value, out_b.value)
    assert np.abs(out_a.value - out_c.value).max() > 1e-9


def test_dropout_inactive_outside_training():
    cfg = tiny_config(dropout=0.4)
    model = SegmentModel(cfg, seed=0)
    mem = model.params["mem_init"]
    ids, mask = np.array([1, 2, 3]), np.ones(3)
    out_a, _ = model.segment_forward(ids, mask, mem)
    out_b, _ = model.segment_forward(ids, mask, mem)
    assert np.array_equal(out_a.value, out_b.value)
