"""One workload run: trials of ``astroseq.harness.train_run``, reduced to metrics.

A trial is one ``train_run`` call into a fresh out-dir, as
``astroseq train --out-dir`` does.  Trials repeat until the run's time is
spent, and at least ``MIN_TRIALS`` times, all on the same seed, so each run
also checks that one seed gives one result.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from astroseq import harness
from astroseq.checkpoint import load_checkpoint
from astroseq.config import RunConfig
from astroseq.errors import AstroseqError

from tracing import PROBES, Tracer, layer_targets, self_times
from workloads import (COMMON, END_TO_END, MIN_TRIALS, ORACLE_TOLERANCE, ORACLE_TRIAL, PER_LAYER,
                       WORKLOADS)

NAME, START, END, PARENT, OK = range(5)


def program_seed(seed: int) -> int:
    """The seed handed to train_run, derived from the benchmark's --seed."""
    digest = hashlib.sha256(f"perfbench:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def workload_config(name: str, trial: dict | None = None) -> RunConfig:
    spec = WORKLOADS[name]
    return RunConfig(**COMMON, **spec["config"], **(trial or spec["trial"]))


@dataclass
class Trial:
    wall_s: float
    record: dict | None
    error: str | None
    spans: list  # start and end are seconds since the train_run call
    attempted: int
    failed: int
    peak_rss_mb: float  # of the process so far


def run_trial(cfg: RunConfig, seed: int, tracer: Tracer, work_dir: Path) -> Trial:
    """One train_run call.  An error it raises is recorded, not raised."""
    out_dir = Path(tempfile.mkdtemp(dir=work_dir))
    record, error = None, None
    try:
        with tracer.installed():
            start = time.perf_counter()
            try:
                record = harness.train_run(cfg, seed=seed, out_dir=out_dir)
            except AstroseqError as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        spans = [[s[NAME], s[START] - start, s[END] - start, s[PARENT], s[OK]]
                 for s in tracer.spans]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_epoch = cfg.train_samples + cfg.val_samples
    if record is not None:
        attempted = len(record["epochs"]) * per_epoch
        return Trial(wall, record, None, spans, attempted, 0, peak_rss_mb)
    # An operation is one sample's rollout or one prediction; those of
    # unfinished optimizer steps and evaluations count as failed.
    steps_per_epoch = math.ceil(cfg.train_samples / cfg.batch_size)
    steps = sum(1 for s in spans if s[NAME] == "trainer.optimizer_step" and s[OK])
    evals = sum(1 for s in spans if s[NAME] == "harness.evaluate_accuracy" and s[OK])
    done = (steps // steps_per_epoch) * cfg.train_samples
    done += min((steps % steps_per_epoch) * cfg.batch_size, cfg.train_samples)
    done += evals * cfg.val_samples
    attempted = cfg.epochs * per_epoch
    return Trial(wall, None, error, spans, attempted, attempted - done, peak_rss_mb)


def run_rounds(cfg, seed, tracers, seconds, min_rounds, work_dir) -> list[list[Trial]]:
    """Rounds of one trial per tracer, while another round fits in ``seconds``."""
    rounds: list[list[Trial]] = []
    started = time.perf_counter()
    while True:
        # Alternate the order, so that neither tracer always runs on a cold process.
        order = range(len(tracers)) if len(rounds) % 2 == 0 else reversed(range(len(tracers)))
        trials = {i: run_trial(cfg, seed, tracers[i], work_dir) for i in order}
        rounds.append([trials[i] for i in range(len(tracers))])
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def end_to_end(trials: list[Trial], cfg: RunConfig) -> tuple[dict, dict]:
    """End-to-end metrics of the completed trials, and the counts behind them.

    Other processes on the machine halve its speed for seconds at a time,
    which moves a plain median by a fifth from run to run.  Every trial
    repeats the same work, so each optimizer step and each evaluation is
    timed by its best repeat, and the metrics are built from those: an
    epoch is its steps plus its evaluation.  The tail is the slowest step
    position, as a trial has too few positions for a percentile with ten
    beyond it.  Set-up is the best of the trials' set-ups too: their median
    flips between the machine's two speeds from run to run (11 or 19 ms on
    long_segment).  Peak memory is read after the first completed trial, as
    later repeats only add heap fragmentation.
    """
    done = [t for t in trials if t.record is not None]
    if not done:
        return {}, {}
    setups, steps, evals = [], [], []
    for trial in done:
        step_start = None
        steps.append([])
        evals.append([])
        for span in trial.spans:
            if span[NAME] == "trainer.zero_grad":
                if step_start is None:
                    setups.append(span[START])
                step_start = span[START]
            elif span[NAME] == "trainer.optimizer_step":
                steps[-1].append(span[END] - step_start)
            elif span[NAME] == "harness.evaluate_accuracy":
                evals[-1].append(span[END] - span[START])
    best_steps = [min(repeats) for repeats in zip(*steps)]
    best_evals = [min(repeats) for repeats in zip(*evals)]
    per_epoch = math.ceil(cfg.train_samples / cfg.batch_size)
    train_s = [sum(best_steps[i:i + per_epoch]) for i in range(0, len(best_steps), per_epoch)]
    metrics = {
        "setup_s": min(setups),
        "epoch_s": statistics.median(t + e for t, e in zip(train_s, best_evals)),
        "train_samples_per_s": cfg.train_samples / statistics.median(train_s),
        "step_ms_p50": 1e3 * statistics.median(best_steps),
        "step_ms_tail": 1e3 * max(best_steps),
        "eval_samples_per_s": cfg.val_samples / statistics.median(best_evals),
        "train_loss": done[0].record["epochs"][-1]["train_loss"],
        "peak_rss_mb": done[0].peak_rss_mb,
    }
    counts = {"repeats": len(done), "epochs_per_trial": len(best_evals),
              "step_positions": len(best_steps), "step_tail_percentile": 100}
    return metrics, counts


def layer_metrics(trial: Trial) -> dict:
    """Per-layer metrics of one traced trial."""
    spans = trial.spans
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for span, self_s in zip(spans, self_times(spans)):
        total[span[NAME]] += span[END] - span[START]
        own[span[NAME]] += self_s
        calls[span[NAME]] += 1

    def in_rollout(index):
        while index >= 0:
            if spans[index][NAME] == "trainer.rollout":
                return True
            index = spans[index][PARENT]
        return False

    recomputed = Counter(s[NAME] for s in spans
                         if s[NAME].startswith("model.segment_forward.") and in_rollout(s[PARENT]))
    forwards = recomputed["model.segment_forward.taped"] + recomputed["model.segment_forward.free"]
    memory = trial.record["memory"]
    out = {
        "tasks.dataset_s": total["tasks.dataset"],
        "retention.derive_s": total["retention.resolve_schedule"],
        "neuroglia.simulate_s": total["neuroglia.run_stp_cycles"],
        "neuroglia.euler_steps": calls["neuroglia.step"],
        "trainer.recompute_ratio": recomputed["model.segment_forward.taped"] / max(forwards, 1),
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "trainer.rollout.self_s": own["trainer.rollout"],
        "trainer.rollouts": calls["trainer.rollout"],
        "trainer.optimizer_s": total["trainer.optimizer_step"],
        "trainer.optimizer_steps": calls["trainer.optimizer_step"],
        "trainer.forward_peak_floats": memory["forward_peak_floats"],
        "trainer.backward_peak_floats": memory["backward_peak_floats"],
        "trainer.replay_buffer_bytes": memory["replay_buffer_bytes"],
        "model.predict_s": total["model.predict"],
        "model.predict.calls": calls["model.predict"],
        "checkpoint.save_s": total["checkpoint.save"],
    }
    for tag in ("taped", "free"):
        forward = f"model.segment_forward.{tag}"
        out[f"{forward}.self_s"] = own[forward]
        out[f"{forward}.calls"] = calls[forward]
        out[f"attention.{tag}.self_s"] = own[f"attention.astro_attention.{tag}"]
        out[f"attention.{tag}.calls"] = calls[f"attention.astro_attention.{tag}"]
        out[f"attention.positional.{tag}_s"] = total[f"attention.positional.{tag}"]
        out[f"attention.positional.{tag}.calls"] = calls[f"attention.positional.{tag}"]
    return out


def oracle_check(cfg: RunConfig, seed: int, work_dir: Path) -> dict:
    """Train the same short run with bptt and amrb; their parameters must agree."""
    small = replace(cfg, **ORACLE_TRIAL)
    arrays = {}
    try:
        schedule = harness.resolve_schedule(small)
        for algorithm in ("bptt", "amrb"):
            out_dir = Path(tempfile.mkdtemp(dir=work_dir))
            try:
                harness.train_run(replace(small, algorithm=algorithm), seed=seed,
                                  out_dir=out_dir, schedule=schedule)
                arrays[algorithm] = load_checkpoint(out_dir / "model.ckpt")[1]
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
    except AstroseqError as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    oracle, replay = arrays["bptt"], arrays["amrb"]
    worst = max(float(np.max(np.abs(oracle[k] - replay[k]))) for k in oracle)
    return {"ok": oracle.keys() == replay.keys() and worst <= ORACLE_TOLERANCE,
            "max_abs": worst, "tolerance": ORACLE_TOLERANCE,
            "optimizer_steps": math.ceil(small.train_samples / small.batch_size)}


def record_checks(trials: list[Trial]) -> dict:
    """Finite losses, accuracies in [0, 1], and one result per seed."""
    records = [t.record for t in trials if t.record is not None]
    losses = [e["train_loss"] for r in records for e in r["epochs"]]
    accs = [e["val_acc"] for r in records for e in r["epochs"]]
    results = {(r["param_digest"], r["epochs"][-1]["train_loss"]) for r in records}
    return {
        "completed_trials": len(records) > 0,
        "train_loss_finite": all(math.isfinite(x) for x in losses),
        "val_acc_in_unit_interval": all(0.0 <= a <= 1.0 for a in accs),
        "same_seed_same_result": len(results) == 1,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
                 trial: dict | None = None, min_trials: int = MIN_TRIALS) -> dict:
    """Run one workload and return the result line plus a report.

    ``trial`` and ``min_trials`` override the workload's sizes (the smoke
    test runs tiny ones).
    """
    cfg = workload_config(name, trial)
    seed = program_seed(seed)
    probes = Tracer(PROBES)
    report: dict = {"workload": name, "program_seed": seed, "trace": int(trace)}
    if trace:
        traced = Tracer(layer_targets())
        rounds = run_rounds(cfg, seed, [probes, traced], seconds, 1, work_dir)
        plain = [r[0] for r in rounds]
        layered = [r[1] for r in rounds]
        trials = plain + layered
        checks = record_checks(trials)
        checks["wrappers_restored"] = traced.restored() and probes.restored()
        done = [t for t in layered if t.record is not None]
        plain_done = [t for t in plain if t.record is not None]
        metrics = {}
        if done and plain_done:
            per_trial = [layer_metrics(t) for t in done]
            metrics = {k: statistics.median(m[k] for m in per_trial) for k in per_trial[0]}
            metrics["trace.overhead_ratio"] = (statistics.median(t.wall_s for t in done)
                                               / statistics.median(t.wall_s for t in plain_done))
        units = PER_LAYER
        report["counts"] = {"untraced_trials": len(plain), "traced_trials": len(layered)}
    else:
        rounds = run_rounds(cfg, seed, [probes], seconds, min_trials, work_dir)
        trials = [r[0] for r in rounds]
        metrics, report["counts"] = end_to_end(trials, cfg)
        checks = record_checks(trials)
        report["oracle"] = oracle_check(cfg, seed, work_dir)
        checks["amrb_matches_bptt"] = report["oracle"]["ok"]
        units = END_TO_END
    report["checks"] = checks
    report["errors"] = sorted({t.error for t in trials if t.error})
    metrics = {k: {"value": metrics[k], "unit": units[k][0]} for k in units if k in metrics}
    return {
        "correct": all(checks.values()) and len(metrics) == len(units),
        "attempted": sum(t.attempted for t in trials),
        "failed": sum(t.failed for t in trials),
        "metrics": metrics,
        "report": report,
    }
