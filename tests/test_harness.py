"""Training harness: records, artifacts, reproducibility, benchmarks."""

import json
from dataclasses import replace

import numpy as np
import pytest

from astroseq import harness
from astroseq.config import RunConfig
from astroseq.errors import InvalidArgumentError
from astroseq.harness import (
    bench_attention,
    bench_evaluation,
    bench_rollouts,
    bench_stacks,
    eval_run,
    evaluate_accuracy,
    resolve_schedule,
    stack_samples,
    train_run,
)
from astroseq.model import SegmentModel, stack_batches
from astroseq.retention import RetentionSchedule, uniform_schedule

from conftest import rel_err


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


def test_resolve_schedule_uniform_and_derived():
    cfg = tiny_run_config()
    schedule = resolve_schedule(cfg)
    assert schedule.factors == (1.0, 1.0)

    derived_cfg = tiny_run_config(retention_mode="derived", n_neurons=2)
    derived = resolve_schedule(derived_cfg)
    assert derived.n_segments == 2
    assert abs(sum(derived.factors) - 1.0) < 1e-12
    assert derived.factors[0] > derived.factors[1]


def test_train_run_record_and_artifacts(tmp_path):
    cfg = tiny_run_config()
    record = train_run(cfg, seed=0, out_dir=tmp_path)
    assert record["schema"] == 1
    assert record["kind"] == "train"
    assert len(record["epochs"]) == 2
    assert record["final"]["epochs_run"] == 2
    assert 0.0 <= record["final"]["val_acc"] <= 1.0
    assert record["memory"]["replay_buffer_bytes"] > 0
    assert record["memory"]["stack_samples"] == harness.STACK_ROWS // 6  # 4 tokens + 2 memory
    assert len(record["param_digest"]) == 64
    assert record["retention"]["factors"] == [1.0, 1.0]

    run_json = json.loads((tmp_path / "run.json").read_text())
    assert strip_timings(run_json) == strip_timings(record)
    curve = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert curve[0] == "epoch,train_loss,val_acc,seconds"
    assert len(curve) == 3
    assert (tmp_path / "model.ckpt").exists()


def test_train_run_ignores_stale_schedule_files(tmp_path):
    """A derived run uses the schedule the simulator gives, whatever files
    sit in its out-dir; here a schedule file with the right digest and
    edited factors."""
    cfg = tiny_run_config(epochs=1, retention_mode="derived", n_neurons=2)
    derived = resolve_schedule(cfg)
    digest = derived.source["digest"]
    stale = {"n_segments": 2, "factors": [0.5, 0.5], "source": derived.source}
    cache = tmp_path / "retention_cache"
    cache.mkdir()
    (cache / f"retention_{digest[:16]}.json").write_text(json.dumps(stale))
    before = set(tmp_path.rglob("*"))

    record = train_run(cfg, seed=0, out_dir=tmp_path)
    assert record["retention"]["factors"] == list(derived.factors)
    added = {p.name for p in set(tmp_path.rglob("*")) - before}
    assert added == {"run.json", "curve.csv", "model.ckpt"}


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


def test_train_run_builds_positional_summary_once_per_step_and_evaluation(monkeypatch):
    """Each optimizer step records one taped R build per layer, and each
    evaluation builds R once per layer for all its samples."""
    from astroseq import attention, autodiff

    calls = []
    original = attention.positional_matrix

    def counting(n_tokens, params):
        calls.append("taped" if autodiff.active_tape() is not None else "free")
        return original(n_tokens, params)

    monkeypatch.setattr(attention, "positional_matrix", counting)
    train_run(tiny_run_config(n_layers=2, epochs=1), seed=0)
    assert calls.count("taped") == 2 * 3  # 2 layers, 24 samples in steps of 8
    assert calls.count("free") == 2


def test_bench_attention_rows():
    rows = bench_attention(sizes=(8, 16), d_model=8, m_hidden=4, repeats=1, seed=0)
    assert [r["n_tokens"] for r in rows] == [8, 16]
    for row in rows:
        assert row["astro_seconds"] > 0
        assert row["softmax_seconds"] > 0
        assert row["astro_cpu_seconds"] >= 0 and row["softmax_cpu_seconds"] >= 0


def test_bench_rollouts_reports_both_algorithms():
    out = bench_rollouts(tiny_run_config(), seed=0, repeats=1)
    assert set(out) == {"amrb", "bptt"}
    assert out["amrb"]["seconds"] > 0
    assert out["amrb"]["replay_buffer_bytes"] > 0
    assert out["bptt"]["replay_buffer_bytes"] == 0
    assert out["bptt"]["backward_peak_floats"] > out["amrb"]["backward_peak_floats"] / 2
    for row in out.values():
        assert row["step_samples"] == 8
        assert row["step_seconds"] > 0
        assert row["cpu_seconds"] >= 0 and row["step_cpu_seconds"] >= 0


def test_bench_rollouts_take_the_real_peak_untimed(monkeypatch):
    """Each rollout row gives the tracemalloc peak of one rollout, taken
    outside every timed call."""
    import tracemalloc

    traced = []
    best = harness._best

    def recording(fn, repeats):
        traced.append(tracemalloc.is_tracing())
        return best(fn, repeats)

    monkeypatch.setattr(harness, "_best", recording)
    out = bench_rollouts(tiny_run_config(), seed=0, repeats=1)
    assert traced == [False] * 4
    for row in out.values():
        # Real bytes exceed the counted floats' bytes: closures hold more.
        assert row["tracemalloc_peak_bytes"] > 8 * row["backward_peak_floats"]


def test_best_reports_the_least_and_the_median_wall_time(monkeypatch):
    """``_best`` gives the least and the median of its calls' wall times,
    and the process CPU time read once around all of them, over the
    calls."""
    walls = iter([0.3, 0.1, 0.2, 0.5])
    monkeypatch.setattr(harness, "_timed", lambda fn: next(walls))
    clock = iter([10.0, 14.0])
    monkeypatch.setattr(harness.time, "process_time", lambda: next(clock))
    assert harness._best(lambda: None, 4) == (0.1, 0.25, 1.0)


def test_bench_stacks_sweep_stack_sizes_up_to_the_batch():
    """One row per stack size up to batch_size, each with both algorithms;
    replay stores less than full backprop at every size, and the
    one-sample row counts what bench_rollouts' one-sample row counts."""
    cfg = tiny_run_config(batch_size=12)
    rows = bench_stacks(cfg, seed=0, repeats=1)
    assert [row["stack_samples"] for row in rows] == [1, 2, 4, 8, 12]
    storage = ("forward_peak_floats", "backward_peak_floats", "replay_buffer_bytes")
    for row in rows:
        assert row["amrb"]["backward_peak_floats"] < row["bptt"]["backward_peak_floats"]
        for name in ("amrb", "bptt"):
            timing = row[name]
            assert timing["step_seconds"] > 0 and timing["step_cpu_seconds"] >= 0
            assert timing["step_median_seconds"] >= timing["step_seconds"]
            assert timing["tracemalloc_peak_bytes"] > 8 * timing["backward_peak_floats"]
        assert row["evaluation"]["samples_per_s"] == pytest.approx(12 / row["evaluation"]["seconds"])
    peaks = [row["bptt"]["backward_peak_floats"] for row in rows]
    assert peaks == sorted(peaks) and peaks[0] < peaks[-1]
    single = bench_rollouts(cfg, seed=0, repeats=1)
    for name in ("amrb", "bptt"):
        assert {k: rows[0][name][k] for k in storage} == {k: single[name][k] for k in storage}


def test_bench_stacks_step_in_stacks_of_each_size(monkeypatch):
    """Each sweep row's step runs its batch in stacks of the row's size."""
    sizes = []
    original = harness.amrb_rollout

    def recording(model, batch, *args):
        sizes.append(len(batch.ids))
        return original(model, batch, *args)

    monkeypatch.setattr(harness, "amrb_rollout", recording)
    monkeypatch.setattr(harness, "SWEEP_STACKS", (3, 20))
    bench_stacks(tiny_run_config(), seed=0, repeats=1)
    # Per size: a warm-up step, one timed step, then one traced stack.
    assert sizes == [3, 3, 2] * 2 + [3] + [8] * 3


def test_traced_peak_leaves_tracing_that_was_already_on():
    """With tracing already on, the peak is still this call's alone, and
    tracing stays on afterwards."""
    import tracemalloc

    tracemalloc.start()
    try:
        earlier = bytearray(8_000_000)
        del earlier
        peak = harness._traced_peak(lambda: bytearray(800_000))
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()
    assert 800_000 <= peak < 2_000_000
    assert harness._traced_peak(lambda: bytearray(800_000)) >= 800_000
    assert not tracemalloc.is_tracing()


def test_bench_evaluation_reports_throughput():
    row = bench_evaluation(tiny_run_config(), seed=0, repeats=1)
    assert row["samples"] == 12 and row["stack_samples"] == harness.STACK_ROWS // 6
    assert row["seconds"] > 0 and row["cpu_seconds"] >= 0
    assert row["median_seconds"] == row["seconds"]  # one repeat
    assert row["samples_per_s"] == pytest.approx(12 / row["seconds"])


# ---------------------------------------------------------------------------
# stacking


def test_stack_samples_fill_stack_rows():
    """A stack holds as many samples as fill STACK_ROWS attention rows, at
    least one.  At 512 rows, the README key-value config (6 tokens + 4
    memory rows) stacks 51 samples, ListOps with 64-token segments and 4
    memory rows 7, and a 252-token segment with 4 memory rows 2."""
    kv = RunConfig(task="kv_retrieval", seg_len=6, n_segments=8, mem_tokens=4)
    long = RunConfig(task="kv_retrieval", seg_len=252, n_segments=4, mem_tokens=4)
    listops = RunConfig(task="listops", seg_len=64, n_segments=32, mem_tokens=4)
    wide = RunConfig(seg_len=harness.STACK_ROWS, mem_tokens=2)
    stacks = [stack_samples(c.model_config(13, 10)) for c in (kv, long, listops, wide)]
    rows = harness.STACK_ROWS
    assert stacks == [rows // 10, rows // 256, rows // 68, 1]
    assert stacks == [51, 2, 7, 1]


def test_stacked_prediction_matches_per_sample_predictions():
    """Two heads, two layers, sequences of several lengths: a stack's labels
    are the per-sample labels and its logits theirs within 1e-12, and
    evaluate_accuracy counts what per-sample predictions get right."""
    cfg = tiny_run_config(task="kv_retrieval", seg_len=4, n_segments=3, n_heads=2, n_layers=2)
    task = cfg.build_task()
    model = SegmentModel(cfg.model_config(task.spec.vocab_size, task.spec.n_classes), seed=1)
    schedule = RetentionSchedule(n_segments=3, factors=(0.5, 0.3, 0.2), source={"kind": "drawn"})
    data = task.dataset(7, 0, split=1)
    rng = np.random.default_rng(0)
    for sample in data[::2]:  # shorten some sequences, so masks differ within the stack
        sample.mask[0, -1, rng.integers(1, 4):] = 0.0
    pos = model.positional()
    singles = [model.predict(sample, schedule, pos) for sample in data]  # one-sample stacks
    single_labels = np.concatenate([label for label, _ in singles])
    labels, logits = model.predict(stack_batches(data), schedule, pos)
    assert labels.tolist() == single_labels.tolist()
    for stacked, (_, single) in zip(logits, singles):
        assert rel_err(stacked, single[0]) <= 1e-12
    right = np.sum(single_labels == stack_batches(data).label)
    assert evaluate_accuracy(model, data, schedule) == right / len(data)


def test_evaluation_cuts_the_fewest_stacks_of_near_equal_size(monkeypatch):
    """12 samples at 5 a stack run as three stacks of 4, not 5, 5 and 2,
    and at 12 or more a stack as one; every sample is predicted once."""
    cfg = tiny_run_config()
    task, model = harness.setup_run(cfg, 0)
    schedule = uniform_schedule(cfg.n_segments)
    data = task.dataset(12, 0, split=1)
    sizes = []
    original = model.predict

    def recording(batch, *args):
        sizes.append(len(batch.ids))
        return original(batch, *args)

    monkeypatch.setattr(model, "predict", recording)
    acc = evaluate_accuracy(model, data, schedule, 5)
    assert sizes == [4, 4, 4]
    assert acc == evaluate_accuracy(model, data, schedule, 1)
    sizes.clear()
    evaluate_accuracy(model, data, schedule, 12)
    evaluate_accuracy(model, data, schedule, 13)
    assert sizes == [12, 12]
    sizes.clear()
    evaluate_accuracy(model, data[:7], schedule, 3)
    assert sizes == [2, 2, 3]


def test_train_run_stacks_within_each_optimizer_step(monkeypatch):
    """Stacks hold stack_samples samples and never cross an optimizer step;
    a run stacked that way trains like one with a sample per stack, to
    within rounding."""
    cfg = tiny_run_config(dropout=0.1, epochs=1, train_samples=20, batch_size=8)
    sizes = []
    original = harness.amrb_rollout

    def recording(model, batch, *args):
        sizes.append(len(batch.ids))
        return original(model, batch, *args)

    monkeypatch.setattr(harness, "amrb_rollout", recording)
    monkeypatch.setattr(harness, "STACK_ROWS", 3 * 6)  # 3 samples of 6 rows
    stacked = train_run(cfg, seed=2)
    assert sizes == [3, 3, 2, 3, 3, 2, 3, 1]
    assert stacked["memory"]["stack_samples"] == 3
    monkeypatch.setattr(harness, "STACK_ROWS", 1)
    single = train_run(cfg, seed=2)
    assert single["memory"]["stack_samples"] == 1
    for a, b in zip(stacked["epochs"], single["epochs"]):
        assert a["train_loss"] == pytest.approx(b["train_loss"], rel=1e-12)
        assert a["val_acc"] == b["val_acc"]
