"""End-to-end runs: training with records, evaluation, and benchmarks.

``train_run`` wires a run config into data, model, schedule, optimizer,
and rollout algorithm, and produces a run record: a plain dict (JSON
schema 1) with per-epoch metrics, the retention schedule used, storage
accounting from the gradient rollouts, and a digest of the final
parameters.  Everything in the record except wall-clock timings is
deterministic for a given config and seed.

Training and evaluation join a task's samples, each a stack of one, into
larger stacks (``model.stack_batches``): each stack is one graph whose
primitives carry the sample axis along, so the interpreter's cost per
tape op is paid once per stack, not once per sample.  A stack holds at
most ``max(1, STACK_ROWS // n_tokens)`` samples, where ``n_tokens`` is
the rows of one attention call, so a stack's working set stays near that
of one sample with ``STACK_ROWS`` rows whatever the segment length.  A
training stack never crosses an optimizer step.  Training steps and
evaluation alike cut their samples into the fewest stacks that hold
them, of near-equal size: 64 key-value samples evaluate as 32 and 32, not
51 and 13, and a 16-sample ListOps step at 7 a stack trains as 5, 5 and
6, not 7, 7 and 2, for the same number of stacks and a smaller largest
one.  ``STACK_ROWS`` was set from ``bench_stacks``, a sweep of step time
against peak storage over stack sizes (``BENCH_3.json``): at 512 rows a
256-row segment stacks two samples, which pays the per-op cost half as
often for about twice the storage of one.  The sweep is also the bench of
training and evaluation: one of its rows is the run's own stack size, so
it times the same calls ``train_run`` and ``eval_run`` make.
"""

from __future__ import annotations

import gc
import hashlib
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint, write_file
from .config import RunConfig, check_same_run, read_stored_run
from .errors import ConfigError, InvalidArgumentError
from .model import ModelConfig, SegmentModel, stack_batches
from .retention import RetentionSchedule, drive_patterns, retention_schedule, uniform_schedule
from .seeding import STREAM_SHUFFLE, spawn
from .trainer import (
    AdamW,
    GradReport,
    PositionalStep,
    amrb_rollout,
    bptt_rollout,
    classification_loss,
)

RECORD_SCHEMA = 1
# Version of ``astroseq bench``'s payload.  2 added this key and each
# rollout row's ``tracemalloc_peak_bytes``; 3 added the stack sweep and
# each timed row's median beside its best; 4 folded the one-sample rollout
# and evaluation rows into the sweep, which gained the run's own stack size
# as a row, named at the top as ``stack_samples``.
BENCH_SCHEMA = 4

# Attention rows per stack.  At 512, the README key-value config (10 rows
# a call) stacks 51 samples, ListOps with 64-token segments and 4 memory
# rows 7, and a 256-row segment 2.  In the stack sweep on that segment
# (``BENCH_3.json``), 2 samples a stack cut ``amrb``'s 16-sample step from
# 128 to 75 ms against 1, for 1.8 times the counted peak.  1,024 rows was
# faster still, but raised the benchmark's peak RSS on that segment by 14%.
STACK_ROWS = 512

# Samples per stack in ``bench_stacks``'s sweep, each capped at
# ``batch_size``; the sweep adds the run's own ``stack_samples``.
SWEEP_STACKS = (1, 2, 4, 8, 16)


def stack_samples(config: ModelConfig) -> int:
    """Samples per stack: as many as fill ``STACK_ROWS`` attention rows, at
    least one."""
    return max(1, STACK_ROWS // config.n_tokens)


def _even_stacks(n: int, per_stack: int) -> list[slice]:
    """``n`` samples cut into as few stacks of at most ``per_stack`` as
    hold them, their sizes differing by at most one."""
    count = -(-n // per_stack)
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def resolve_schedule(cfg: RunConfig) -> RetentionSchedule:
    """The retention schedule a run config asks for.

    ``derived`` runs the dynamical system on every call; ``uniform`` is the
    all-ones ablation.  Training, evaluation and the ``retention`` command
    all get their schedule here.
    """
    if cfg.retention_mode == "uniform":
        return uniform_schedule(cfg.n_segments)
    return retention_schedule(cfg.n_segments, *cfg.sim_params())


def setup_run(cfg: RunConfig, seed: int):
    """The task a run config names and a model for it, initialised from
    ``seed``."""
    task = cfg.build_task()
    spec = task.spec
    return task, SegmentModel(cfg.model_config(spec.vocab_size, spec.n_classes), seed=seed)


def evaluate_accuracy(
    model: SegmentModel, data, schedule: RetentionSchedule, per_stack: int | None = None
) -> float:
    """Share of ``data`` predicted right, walked in the fewest stacks of at
    most ``per_stack`` samples (default ``stack_samples``), of near-equal
    size, with the positional features built once for all of them."""
    if not data:
        raise InvalidArgumentError("cannot evaluate on an empty dataset")
    correct = 0
    pos = model.positional()
    for part in _even_stacks(len(data), per_stack or stack_samples(model.config)):
        batch = stack_batches(data[part])
        labels, _ = model.predict(batch, schedule, pos)
        correct += int(np.sum(labels == batch.label))
    return correct / len(data)


def _train_step(
    model, rollout, samples, schedule, loss_mode, drop_seeds, per_stack: int
) -> list[GradReport]:
    """Gradients of one optimizer step's ``samples``, summed into the
    parameters: one rollout per stack, in the fewest stacks of at most
    ``per_stack`` samples, of near-equal size, sharing one positional build.
    ``drop_seeds`` holds one dropout seed per sample, or is None."""
    step = PositionalStep(model)
    reports = []
    for part in _even_stacks(len(samples), per_stack):
        batch = stack_batches(samples[part])
        seeds = None if drop_seeds is None else drop_seeds[part]
        loss_fn = classification_loss(model, batch, mode=loss_mode)
        reports.append(rollout(model, batch, schedule, loss_fn, seeds, step))
    step.backward()
    return reports


def params_digest(model: SegmentModel) -> str:
    """Content hash of all parameter values (order-stable)."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name].value).tobytes())
    return h.hexdigest()


def train_run(
    cfg: RunConfig,
    seed: int = 0,
    out_dir: str | Path | None = None,
    schedule: RetentionSchedule | None = None,
) -> dict:
    """Train per the config; returns the run record (and writes artifacts).

    With ``out_dir`` set, writes ``run.json``, ``curve.csv`` and
    ``model.ckpt`` there.  The schedule comes from ``resolve_schedule``
    unless a ``schedule`` argument overrides the config's retention mode,
    which keeps schedule-comparison experiments on identical data and weights.
    """
    started = time.perf_counter()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    task, model = setup_run(cfg, seed)
    if schedule is None:
        schedule = resolve_schedule(cfg)

    train_data = task.dataset(cfg.train_samples, seed, split=0)
    val_data = task.dataset(cfg.val_samples, seed, split=1)
    rollout = amrb_rollout if cfg.algorithm == "amrb" else bptt_rollout
    optimizer = AdamW(
        model.parameters(),
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        grad_clip=cfg.grad_clip,
    )

    epochs = []
    best_val = 0.0
    peak_report = {"forward_peak_floats": 0, "backward_peak_floats": 0, "replay_buffer_bytes": 0}
    dropout_active = cfg.dropout > 0.0
    per_stack = stack_samples(model.config)
    for epoch in range(1, cfg.epochs + 1):
        epoch_started = time.perf_counter()
        order = spawn(seed, STREAM_SHUFFLE, epoch).permutation(len(train_data))
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            optimizer.zero_grad()
            drop_seeds = [(seed, epoch, int(idx)) for idx in chunk] if dropout_active else None
            samples = [train_data[idx] for idx in chunk]
            for report in _train_step(
                model, rollout, samples, schedule, cfg.loss_mode, drop_seeds, per_stack
            ):
                loss_sum += report.total_loss
                mem = report.memory_report()
                for key in peak_report:
                    peak_report[key] = max(peak_report[key], mem[key])
            inv = 1.0 / len(chunk)
            for p in model.parameters():
                p.grad[...] *= inv
            optimizer.step()
        val_acc = evaluate_accuracy(model, val_data, schedule)
        best_val = max(best_val, val_acc)
        epochs.append(
            {
                "epoch": epoch,
                "train_loss": loss_sum / len(train_data),
                "val_acc": val_acc,
                "seconds": time.perf_counter() - epoch_started,
            }
        )
        if cfg.target_val_acc is not None and val_acc >= cfg.target_val_acc:
            break

    record = {
        "schema": RECORD_SCHEMA,
        "kind": "train",
        "seed": seed,
        "config": asdict(cfg),
        "task": asdict(task.spec),
        "retention": {"factors": list(schedule.factors), "source": schedule.source},
        "epochs": epochs,
        "final": {
            "val_acc": epochs[-1]["val_acc"],
            "best_val_acc": best_val,
            "epochs_run": len(epochs),
        },
        # The peaks are of one stacked rollout of up to stack_samples samples.
        "memory": {**peak_report, "stack_samples": per_stack},
        "param_digest": params_digest(model),
        "wall_seconds": time.perf_counter() - started,
    }
    if out_path is not None:
        _write_artifacts(out_path, record, model)
    return record


def _write_artifacts(out_path: Path, record: dict, model: SegmentModel):
    import csv
    import io
    import json

    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    write_file(out_path / "run.json", text.encode())
    curve = io.StringIO(newline="")
    writer = csv.DictWriter(curve, fieldnames=["epoch", "train_loss", "val_acc", "seconds"])
    writer.writeheader()
    writer.writerows(record["epochs"])
    write_file(out_path / "curve.csv", curve.getvalue().encode())
    save_checkpoint(
        out_path / "model.ckpt",
        {"run": record["config"], "seed": record["seed"]},
        model.state_arrays(),
    )


def eval_run(checkpoint_path: str | Path, cfg: RunConfig | None = None, seed: int = 0) -> dict:
    """Reload a checkpoint and score it, under the run it stores, on a fresh
    validation split.  A ``cfg`` must describe that run (``check_same_run``);
    it sets only the number of validation samples."""
    payload, arrays = load_checkpoint(checkpoint_path)
    if not isinstance(payload, dict) or "run" not in payload:
        raise ConfigError(f"checkpoint {checkpoint_path} holds no run config")
    run = read_stored_run(payload["run"])
    if cfg is not None:
        check_same_run(cfg, run)
        run = replace(run, val_samples=cfg.val_samples)
    task, model = setup_run(run, seed)
    model.load_arrays(arrays)
    schedule = resolve_schedule(run)
    data = task.dataset(run.val_samples, seed, split=1)
    acc = evaluate_accuracy(model, data, schedule)
    return {
        "schema": RECORD_SCHEMA,
        "kind": "eval",
        "seed": seed,
        "checkpoint": str(checkpoint_path),
        "task": asdict(task.spec),
        "retention": {"factors": list(schedule.factors), "source": schedule.source},
        "val_acc": acc,
        "n_samples": len(data),
    }


# ---------------------------------------------------------------------------
# benchmarks


def _softmax_attention_reference(q, k, v):
    scores = q @ k.T / np.sqrt(q.shape[1])
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v


def bench_attention(
    sizes=(128, 256, 512, 1024),
    d_model: int = 32,
    m_hidden: int = 16,
    repeats: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Wall-clock and CPU time of the linear-cost block against quadratic
    softmax.

    Each row times a tape-free forward at one token count (best and median
    of ``repeats``, CPU time their mean), given the positional features
    built before timing.  The softmax reference is timed on precomputed
    Q, K, V so it measures only the quadratic mixing.
    """
    from . import attention as at, autodiff as ad

    rng = spawn(seed, 7)
    n_max = max(sizes)
    arrays = at.init_attention_arrays(d_model, m_hidden, n_max, rng)
    params = at.make_attention_params(arrays)
    rows = []
    for n in sizes:
        x_val = rng.normal(size=(n, d_model))
        x = ad.constant(x_val)
        q = x_val @ arrays["w_query"]
        k = x_val @ arrays["w_key"]
        v = x_val @ arrays["w_value"]
        pos = at.positional_matrix(n, params)
        at.astro_attention(x, params, pos)  # warm-up
        astro = _best(lambda: at.astro_attention(x, params, pos), repeats)
        softmax = _best(lambda: _softmax_attention_reference(q, k, v), repeats)
        rows.append(
            {
                "n_tokens": n,
                **_timing(astro, "astro_"),
                **_timing(softmax, "softmax_"),
            }
        )
    return rows


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best(fn, repeats: int) -> tuple[float, float, float]:
    """The least and the median wall-clock seconds of ``repeats`` calls, and
    their mean process CPU seconds.  The CPU clock is read only around all
    the calls: read around each, it slowed a 128-token attention call by
    half on a shared 2-core Linux machine."""
    cpu = time.process_time()
    walls = [_timed(fn) for _ in range(repeats)]
    cpu = (time.process_time() - cpu) / repeats
    return min(walls), float(np.median(walls)), cpu


def _timing(timed: tuple[float, float, float], prefix: str = "") -> dict:
    """A ``_best`` result as a row's ``seconds``, ``median_seconds`` and
    ``cpu_seconds``, each key led by ``prefix``."""
    keys = (f"{prefix}seconds", f"{prefix}median_seconds", f"{prefix}cpu_seconds")
    return dict(zip(keys, timed))


def _traced_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during one call of ``fn``,
    above what was allocated before it.  Tracing slows every allocation,
    so no timed call runs under it.  Tracing that was already on stays
    on; its peak is reset, so the earlier high-water mark is lost."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def bench_retention(cfg: RunConfig, segment_counts=(2, 4, 8, 16)) -> list[dict]:
    """Time one schedule derivation per segment count on the config's
    experiment: wall-clock and process CPU seconds, and how many cycles it
    simulates (one per drive pattern)."""
    params, extras = cfg.sim_params()
    rows = []
    for n_segments in segment_counts:
        timed = _best(lambda: retention_schedule(n_segments, params, extras), 1)
        rows.append(
            {
                "n_segments": n_segments,
                **_timing(timed),
                "simulated_cycles": len(drive_patterns(n_segments, params, extras)[0]),
            }
        )
    return rows


def bench_stacks(cfg: RunConfig, seed: int = 0, repeats: int = 3) -> dict:
    """Both gradient algorithms and evaluation, timed against storage as the
    stack size varies: the sweep that sets ``STACK_ROWS``.

    One row per stack size in ``SWEEP_STACKS``, each capped at
    ``batch_size``, and one at ``stack_samples``, the size a run trains and
    evaluates at, which the result names as its ``stack_samples``.  Per
    algorithm, a row gives ``step_seconds``, the gradients of one optimizer
    step of ``batch_size`` samples in stacks of at most that size (best and
    median of ``repeats`` after a warm-up, CPU time their mean), and the
    storage report and real peak bytes (``tracemalloc_peak_bytes``) of one
    rollout of such a stack, taken untimed.  Its ``evaluation`` times
    ``evaluate_accuracy`` over ``val_samples`` samples in stacks of at most
    that size.  No update is made, so every repeat sees the same parameters.
    """
    task, model = setup_run(cfg, seed)
    schedule = resolve_schedule(cfg)
    samples = task.dataset(cfg.batch_size, seed)
    data = task.dataset(cfg.val_samples, seed, split=1)
    run_stack = stack_samples(model.config)
    rows = []
    for per_stack in sorted({min(size, cfg.batch_size) for size in SWEEP_STACKS} | {run_stack}):
        row = {"stack_samples": per_stack}
        batch = stack_batches(samples[:per_stack])
        for name, rollout in (("amrb", amrb_rollout), ("bptt", bptt_rollout)):

            def step():
                _train_step(model, rollout, samples, schedule, cfg.loss_mode, None, per_stack)

            step()  # warm-up
            timed = _best(step, repeats)
            loss_fn = classification_loss(model, batch, mode=cfg.loss_mode)
            reports = []
            peak = _traced_peak(lambda: reports.append(rollout(model, batch, schedule, loss_fn)))
            row[name] = {
                **_timing(timed, "step_"),
                "tracemalloc_peak_bytes": peak,
                **reports[0].memory_report(),
            }

        def evaluate():
            evaluate_accuracy(model, data, schedule, per_stack)

        evaluate()  # warm-up
        timed = _best(evaluate, repeats)
        row["evaluation"] = {**_timing(timed), "samples_per_s": len(data) / timed[0]}
        rows.append(row)
    return {"stack_samples": run_stack, "stacks": rows}
