"""Training harness: records, artifacts, reproducibility, benchmarks."""

import json
from dataclasses import replace

import numpy as np
import pytest

from astroseq.config import RunConfig
from astroseq.errors import InvalidArgumentError
from astroseq.harness import (
    bench_attention,
    bench_rollouts,
    eval_run,
    evaluate_accuracy,
    resolve_schedule,
    train_run,
)
from astroseq.model import SegmentModel
from astroseq.retention import RetentionSchedule, uniform_schedule


def tiny_run_config(**overrides):
    base = dict(
        task="copy",
        seg_len=4,
        n_segments=2,
        n_classes=3,
        d_model=8,
        m_hidden=4,
        ffn_dim=8,
        mem_tokens=2,
        epochs=2,
        batch_size=8,
        train_samples=24,
        val_samples=12,
        lr=3e-3,
    )
    base.update(overrides)
    return RunConfig(**base)


def strip_timings(record):
    out = json.loads(json.dumps(record))
    out.pop("wall_seconds")
    for epoch in out["epochs"]:
        epoch.pop("seconds")
    return out


def test_resolve_schedule_uniform_and_derived(tmp_path):
    cfg = tiny_run_config()
    schedule = resolve_schedule(cfg)
    assert schedule.factors == (1.0, 1.0)

    derived_cfg = tiny_run_config(retention_mode="derived", n_neurons=2)
    derived = resolve_schedule(derived_cfg, cache_dir=tmp_path)
    assert derived.n_segments == 2
    assert abs(sum(derived.factors) - 1.0) < 1e-12
    assert derived.factors[0] > derived.factors[1]
    cached = list(tmp_path.glob("retention_*.json"))
    assert len(cached) == 1
    # Second resolution must reuse the cache file, not add another.
    again = resolve_schedule(derived_cfg, cache_dir=tmp_path)
    assert again.factors == derived.factors
    assert len(list(tmp_path.glob("retention_*.json"))) == 1


def test_train_run_record_and_artifacts(tmp_path):
    cfg = tiny_run_config()
    record = train_run(cfg, seed=0, out_dir=tmp_path)
    assert record["schema"] == 1
    assert record["kind"] == "train"
    assert len(record["epochs"]) == 2
    assert record["final"]["epochs_run"] == 2
    assert 0.0 <= record["final"]["val_acc"] <= 1.0
    assert record["memory"]["replay_buffer_bytes"] > 0
    assert len(record["param_digest"]) == 64
    assert record["retention"]["factors"] == [1.0, 1.0]

    run_json = json.loads((tmp_path / "run.json").read_text())
    assert strip_timings(run_json) == strip_timings(record)
    curve = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert curve[0] == "epoch,train_loss,val_acc,seconds"
    assert len(curve) == 3
    assert (tmp_path / "model.ckpt").exists()


def test_train_run_is_reproducible_modulo_timing():
    cfg = tiny_run_config()
    a = train_run(cfg, seed=5)
    b = train_run(cfg, seed=5)
    assert strip_timings(a) == strip_timings(b)
    c = train_run(cfg, seed=6)
    assert c["param_digest"] != a["param_digest"]


def test_train_run_loss_decreases():
    cfg = tiny_run_config(epochs=4, train_samples=32)
    record = train_run(cfg, seed=1)
    losses = [e["train_loss"] for e in record["epochs"]]
    assert losses[-1] < losses[0]


def test_train_run_accepts_schedule_override():
    cfg = tiny_run_config(epochs=1)
    skewed = RetentionSchedule(
        n_segments=2, factors=(0.75, 0.25), source={"kind": "derived"}
    )
    record = train_run(cfg, seed=0, schedule=skewed)
    assert record["retention"]["factors"] == [0.75, 0.25]


def test_train_run_early_stop_on_target():
    cfg = tiny_run_config(epochs=10, target_val_acc=0.01)
    record = train_run(cfg, seed=0)
    assert record["final"]["epochs_run"] == 1


def test_train_run_bptt_algorithm_matches_record_shape():
    cfg = tiny_run_config(algorithm="bptt", epochs=1)
    record = train_run(cfg, seed=0)
    assert record["memory"]["replay_buffer_bytes"] == 0
    assert record["config"]["algorithm"] == "bptt"


def test_train_run_replay_and_backprop_give_one_digest():
    """Replay adds every gradient in the order full backprop does."""
    cfg = tiny_run_config(n_heads=2, n_layers=2, dropout=0.1, loss_mode="per_segment", epochs=1)
    digests = {
        algorithm: train_run(replace(cfg, algorithm=algorithm), seed=3)["param_digest"]
        for algorithm in ("amrb", "bptt")
    }
    assert digests["amrb"] == digests["bptt"]


def test_eval_run_round_trip(tmp_path):
    cfg = tiny_run_config()
    train_run(cfg, seed=0, out_dir=tmp_path)
    record = eval_run(tmp_path / "model.ckpt", cfg, seed=0)
    assert record["kind"] == "eval"
    assert 0.0 <= record["val_acc"] <= 1.0
    assert record["n_samples"] == cfg.val_samples

    mismatched = tiny_run_config(n_classes=5)
    with pytest.raises(InvalidArgumentError):
        eval_run(tmp_path / "model.ckpt", mismatched, seed=0)


def test_evaluate_accuracy_rejects_empty_data():
    cfg = tiny_run_config()
    task = cfg.build_task()
    model = SegmentModel(cfg.model_config(task.spec.vocab_size, task.spec.n_classes))
    with pytest.raises(InvalidArgumentError):
        evaluate_accuracy(model, [], uniform_schedule(2))


def test_bench_attention_rows():
    rows = bench_attention(sizes=(8, 16), d_model=8, m_hidden=4, repeats=1, seed=0)
    assert [r["n_tokens"] for r in rows] == [8, 16]
    for row in rows:
        assert row["astro_seconds"] > 0
        assert row["softmax_seconds"] > 0


def test_bench_rollouts_reports_both_algorithms():
    out = bench_rollouts(tiny_run_config(), seed=0, repeats=1)
    assert set(out) == {"amrb", "bptt"}
    assert out["amrb"]["seconds"] > 0
    assert out["amrb"]["replay_buffer_bytes"] > 0
    assert out["bptt"]["replay_buffer_bytes"] == 0
    assert out["bptt"]["backward_peak_floats"] > out["amrb"]["backward_peak_floats"] / 2
