"""Training harness: records, artifacts, reproducibility, benchmarks."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from astroseq import autodiff as ad, harness
from astroseq.config import RunConfig, parse_run_config
from astroseq.errors import InvalidArgumentError
from astroseq.harness import (
    bench_attention,
    bench_stacks,
    eval_run,
    evaluate_accuracy,
    resolve_schedule,
    stack_samples,
    train_run,
)
from astroseq.model import PAD_ID, SegmentModel, stack_batches
from astroseq.retention import RetentionSchedule, uniform_schedule
from astroseq.trainer import amrb_rollout, bptt_rollout, classification_loss

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
    """Eval of the unchanged checkpoint, at the training seed, scores the
    validation split training scored, with the same model and schedule:
    the run's final accuracy, exactly."""
    cfg = tiny_run_config()
    for seed in (0, 3, 7):
        trained = train_run(cfg, seed=seed, out_dir=tmp_path / str(seed))
        record = eval_run(tmp_path / str(seed) / "model.ckpt", cfg, seed=seed)
        assert record["kind"] == "eval"
        assert record["val_acc"] == trained["final"]["val_acc"]
        assert record["n_samples"] == cfg.val_samples

    mismatched = tiny_run_config(n_classes=5)
    with pytest.raises(InvalidArgumentError):
        eval_run(tmp_path / "0" / "model.ckpt", mismatched, seed=0)


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


def test_bench_stacks_take_the_real_peak_untimed(monkeypatch):
    """Each sweep row gives, per algorithm, the tracemalloc peak of one
    rollout, taken outside every timed call."""
    import tracemalloc

    traced = []
    best = harness._best

    def recording(fn, repeats):
        traced.append(tracemalloc.is_tracing())
        return best(fn, repeats)

    monkeypatch.setattr(harness, "_best", recording)
    rows = bench_stacks(tiny_run_config(), seed=0, repeats=1)["stacks"]
    assert [row["stack_samples"] for row in rows] == [1, 2, 4, 8, harness.STACK_ROWS // 6]
    # Per row: a step per algorithm, then an evaluation.
    assert traced == [False] * 3 * len(rows)
    for row in rows:
        for name in ("amrb", "bptt"):
            # Real bytes exceed the counted floats' bytes: closures hold more.
            assert row[name]["tracemalloc_peak_bytes"] > 8 * row[name]["backward_peak_floats"]


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
    """One row per stack size up to batch_size, and one at the run's own
    stack_samples, each with both algorithms; replay stores less than full
    backprop at every size, and only replay keeps a replay buffer."""
    cfg = tiny_run_config(batch_size=12)
    result = bench_stacks(cfg, seed=0, repeats=1)
    assert result["stack_samples"] == harness.STACK_ROWS // 6
    rows = result["stacks"]
    assert [row["stack_samples"] for row in rows] == [1, 2, 4, 8, 12, harness.STACK_ROWS // 6]
    for row in rows:
        assert row["amrb"]["backward_peak_floats"] < row["bptt"]["backward_peak_floats"]
        assert row["amrb"]["replay_buffer_bytes"] > 0 and row["bptt"]["replay_buffer_bytes"] == 0
        for name in ("amrb", "bptt"):
            timing = row[name]
            assert timing["step_seconds"] > 0 and timing["step_cpu_seconds"] >= 0
            assert timing["step_median_seconds"] == timing["step_seconds"]  # one repeat
            assert timing["tracemalloc_peak_bytes"] > 8 * timing["backward_peak_floats"]
        evaluation = row["evaluation"]
        assert evaluation["seconds"] > 0 and evaluation["cpu_seconds"] >= 0
        assert evaluation["median_seconds"] == evaluation["seconds"]
        assert evaluation["samples_per_s"] == pytest.approx(12 / evaluation["seconds"])
    peaks = [row["bptt"]["backward_peak_floats"] for row in rows]
    assert peaks == sorted(peaks) and peaks[0] < peaks[-1]


@pytest.mark.parametrize("stack_rows", [harness.STACK_ROWS, 18])
def test_bench_stacks_time_the_stacks_a_run_uses(monkeypatch, stack_rows):
    """The sweep's row at the run's stack_samples (STACK_ROWS // 6 on the
    tiny config) steps in the stacks train_run steps in, and evaluates in
    the stacks evaluate_accuracy cuts by default."""
    calls = []
    rollout, predict = harness.amrb_rollout, SegmentModel.predict

    def recording_rollout(model, batch, *args):
        calls.append(("step", len(batch.ids)))
        return rollout(model, batch, *args)

    def recording_predict(self, batch, *args):
        calls.append(("eval", len(batch.ids)))
        return predict(self, batch, *args)

    monkeypatch.setattr(harness, "amrb_rollout", recording_rollout)
    monkeypatch.setattr(SegmentModel, "predict", recording_predict)
    monkeypatch.setattr(harness, "STACK_ROWS", stack_rows)
    cfg = tiny_run_config(epochs=1, train_samples=8)
    train_run(cfg, seed=0)  # one optimizer step, then an evaluation
    steps = [call for call in calls if call[0] == "step"]
    evals = [call for call in calls if call[0] == "eval"]
    assert calls == steps + evals
    calls.clear()
    monkeypatch.setattr(harness, "SWEEP_STACKS", ())  # the run's row alone
    result = bench_stacks(cfg, seed=0, repeats=1)
    per_stack = stack_rows // 6
    assert result["stack_samples"] == per_stack
    assert [row["stack_samples"] for row in result["stacks"]] == [per_stack]
    # A warm-up and a timed step, one traced stack, then a warm-up and a
    # timed evaluation.
    assert calls == steps * 2 + [("step", min(per_stack, 8))] + evals * 2


def test_bench_stacks_step_in_stacks_of_each_size(monkeypatch):
    """Each sweep row's step runs its batch in the fewest stacks of at most
    the row's size, of near-equal size."""
    sizes = []
    original = harness.amrb_rollout

    def recording(model, batch, *args):
        sizes.append(len(batch.ids))
        return original(model, batch, *args)

    monkeypatch.setattr(harness, "amrb_rollout", recording)
    monkeypatch.setattr(harness, "SWEEP_STACKS", (3, 20))
    bench_stacks(tiny_run_config(), seed=0, repeats=1)
    # Per size (3, 8, and the run's STACK_ROWS // 6): a warm-up step, one
    # timed step, then one traced stack.
    assert sizes == [2, 3, 3] * 2 + [3] + [8] * 3 + [8] * 3


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
    for sample in data[::2]:  # shorten some sequences, so padding differs within the stack
        sample.ids[0, -1, rng.integers(1, 4):] = PAD_ID
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
    """A step's samples run in the fewest stacks of at most stack_samples
    samples, of near-equal size, that never cross an optimizer step; a run
    stacked that way trains like one with a sample per stack, to within
    rounding."""
    cfg = tiny_run_config(dropout=0.1, epochs=1, train_samples=20, batch_size=8)
    sizes = []
    original = harness.amrb_rollout

    def recording(model, batch, *args):
        sizes.append(len(batch.ids))
        return original(model, batch, *args)

    monkeypatch.setattr(harness, "amrb_rollout", recording)
    monkeypatch.setattr(harness, "STACK_ROWS", 3 * 6)  # 3 samples of 6 rows
    stacked = train_run(cfg, seed=2)
    assert sizes == [2, 3, 3, 2, 3, 3, 2, 2]
    assert stacked["memory"]["stack_samples"] == 3
    monkeypatch.setattr(harness, "STACK_ROWS", 1)
    single = train_run(cfg, seed=2)
    assert single["memory"]["stack_samples"] == 1
    for a, b in zip(stacked["epochs"], single["epochs"]):
        assert a["train_loss"] == pytest.approx(b["train_loss"], rel=1e-12)
        assert a["val_acc"] == b["val_acc"]


def test_readme_config_makes_no_tiled_copy(monkeypatch):
    """On the README key-value config, a stacked rollout of either kind and
    a prediction broadcast every bias, mask and per-row scale in place:
    none of them reaches autodiff's tiling op."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = parse_run_config(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    task, model = harness.setup_run(cfg, seed=0)
    batch = stack_batches(task.dataset(3, 0))
    schedule = uniform_schedule(cfg.n_segments)

    def refuse(*args):
        raise AssertionError("a tiled copy was put on the tape")

    monkeypatch.setattr(ad, "_tile", refuse)
    for rollout in (amrb_rollout, bptt_rollout):
        rollout(model, batch, schedule, classification_loss(model, batch, mode=cfg.loss_mode))
    labels, _ = model.predict(batch, schedule, model.positional())
    assert labels.shape == (3,)
