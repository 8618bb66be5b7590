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
tape op is paid once per stack, not once per sample.  A stack holds
``max(1, STACK_ROWS // n_tokens)`` samples, where ``n_tokens`` is the
rows of one attention call, so a stack's working set stays near that of
one sample with ``STACK_ROWS`` rows whatever the segment length.  A
training stack never crosses an optimizer step.
"""

from __future__ import annotations

import gc
import hashlib
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
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
# rollout row's ``tracemalloc_peak_bytes``.
BENCH_SCHEMA = 2

# Attention rows per stack.  At 256, the README key-value config (10 rows
# a call) stacks 25 samples and a 256-row segment one.
STACK_ROWS = 256


def stack_samples(config: ModelConfig) -> int:
    """Samples per stack: as many as fill ``STACK_ROWS`` attention rows, at
    least one."""
    return max(1, STACK_ROWS // config.n_tokens)


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


def evaluate_accuracy(model: SegmentModel, data, schedule: RetentionSchedule) -> float:
    """Share of ``data`` predicted right, walked in stacks of
    ``stack_samples`` with R built once for all of them."""
    if not data:
        raise InvalidArgumentError("cannot evaluate on an empty dataset")
    correct = 0
    pos = model.positional()
    per_stack = stack_samples(model.config)
    for start in range(0, len(data), per_stack):
        batch = stack_batches(data[start : start + per_stack])
        labels, _ = model.predict(batch, schedule, pos)
        correct += int(np.sum(labels == batch.label))
    return correct / len(data)


def _train_step(model, rollout, samples, schedule, loss_mode, drop_seeds) -> list[GradReport]:
    """Gradients of one optimizer step's ``samples``, summed into the
    parameters: one rollout per stack, sharing one R build.  ``drop_seeds``
    holds one dropout seed per sample, or is None."""
    per_stack = stack_samples(model.config)
    step = PositionalStep(model)
    reports = []
    for start in range(0, len(samples), per_stack):
        batch = stack_batches(samples[start : start + per_stack])
        seeds = None if drop_seeds is None else drop_seeds[start : start + per_stack]
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
                model, rollout, samples, schedule, cfg.loss_mode, drop_seeds
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
        "memory": {**peak_report, "stack_samples": stack_samples(model.config)},
        "param_digest": params_digest(model),
        "wall_seconds": time.perf_counter() - started,
    }
    if out_path is not None:
        _write_artifacts(out_path, record, model)
    return record


def _write_artifacts(out_path: Path, record: dict, model: SegmentModel):
    import csv
    import json

    (out_path / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    with (out_path / "curve.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "val_acc", "seconds"])
        writer.writeheader()
        writer.writerows(record["epochs"])
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

    Each row times a tape-free forward at one token count (best of
    ``repeats``, CPU time their mean), given R built before timing.  The
    softmax reference is timed on precomputed Q, K, V so it measures only
    the quadratic mixing.
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
                "astro_seconds": astro[0],
                "astro_cpu_seconds": astro[1],
                "softmax_seconds": softmax[0],
                "softmax_cpu_seconds": softmax[1],
            }
        )
    return rows


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best(fn, repeats: int) -> tuple[float, float]:
    """The least wall-clock seconds of ``repeats`` calls, and their mean
    process CPU seconds.  The CPU clock is read only around all the calls:
    read around each, it slowed a 128-token attention call by half on a
    shared 2-core Linux machine."""
    cpu = time.process_time()
    wall = min(_timed(fn) for _ in range(repeats))
    return wall, (time.process_time() - cpu) / repeats


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
        wall, cpu = _best(lambda: retention_schedule(n_segments, params, extras), 1)
        rows.append(
            {
                "n_segments": n_segments,
                "seconds": wall,
                "cpu_seconds": cpu,
                "simulated_cycles": len(drive_patterns(n_segments, params, extras)[0]),
            }
        )
    return rows


def bench_rollouts(cfg: RunConfig, seed: int = 0, repeats: int = 3) -> dict:
    """Compare the two gradient algorithms: time and storage.

    Per algorithm, best of ``repeats`` after a warm-up (CPU time their
    mean): ``seconds`` for the rollout of one sample, a one-sample stack,
    whose counted storage the row reports, and ``step_seconds`` for the
    gradients of one optimizer step of ``batch_size`` samples, stacked as
    ``train_run`` stacks them.  ``tracemalloc_peak_bytes`` is the real
    peak of the one-sample rollout, taken in one more, untimed, repeat,
    beside the counted floats of its storage report.
    No update is made, so every repeat sees the same parameters.
    """
    task, model = setup_run(cfg, seed)
    schedule = resolve_schedule(cfg)
    samples = task.dataset(cfg.batch_size, seed)
    batch = samples[0]
    out = {}
    for name, rollout in (("amrb", amrb_rollout), ("bptt", bptt_rollout)):
        loss_fn = classification_loss(model, batch, mode=cfg.loss_mode)
        reports = []

        def one():
            reports.append(rollout(model, batch, schedule, loss_fn))

        def step():
            _train_step(model, rollout, samples, schedule, cfg.loss_mode, None)

        one()  # warm-up
        step()
        seconds, cpu = _best(one, repeats)
        step_seconds, step_cpu = _best(step, repeats)
        peak_bytes = _traced_peak(one)
        out[name] = {
            "seconds": seconds,
            "cpu_seconds": cpu,
            "step_samples": len(samples),
            "step_seconds": step_seconds,
            "step_cpu_seconds": step_cpu,
            "tracemalloc_peak_bytes": peak_bytes,
            **reports[-1].memory_report(),
        }
    return out


def bench_evaluation(cfg: RunConfig, seed: int = 0, repeats: int = 3) -> dict:
    """Evaluation throughput: ``evaluate_accuracy`` over ``val_samples``
    validation samples, best of ``repeats`` after a warm-up (CPU time
    their mean)."""
    task, model = setup_run(cfg, seed)
    schedule = resolve_schedule(cfg)
    data = task.dataset(cfg.val_samples, seed, split=1)
    evaluate_accuracy(model, data, schedule)  # warm-up
    seconds, cpu = _best(lambda: evaluate_accuracy(model, data, schedule), repeats)
    return {
        "samples": len(data),
        "stack_samples": stack_samples(model.config),
        "seconds": seconds,
        "cpu_seconds": cpu,
        "samples_per_s": len(data) / seconds,
    }
