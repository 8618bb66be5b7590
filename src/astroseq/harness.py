"""End-to-end runs: training with records, evaluation, and benchmarks.

``train_run`` wires a run config into data, model, schedule, optimizer,
and rollout algorithm, and produces a run record: a plain dict (JSON
schema 1) with per-epoch metrics, the retention schedule used, storage
accounting from the gradient rollouts, and a digest of the final
parameters.  Everything in the record except wall-clock timings is
deterministic for a given config and seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .errors import InvalidArgumentError
from .model import ModelConfig, SegmentModel
from .neuroglia import DriveSpec, build_geometry
from .retention import RetentionSchedule, load_or_derive, retention_schedule, uniform_schedule
from .seeding import STREAM_SHUFFLE, spawn
from .trainer import AdamW, amrb_rollout, bptt_rollout, classification_loss

RECORD_SCHEMA = 1


def simulation_args(cfg: RunConfig) -> dict:
    """The dynamical system a run config describes, as keyword arguments of
    ``simulate_cycles``, ``retention_schedule`` and ``load_or_derive``.

    ``simulate`` and derived schedules both start here, so they see the same
    system and the same initial state.
    """
    params, extras = cfg.sim_params()
    return dict(
        params=params,
        drive=DriveSpec(rate_hz=extras["drive_hz"]),
        geometry=build_geometry(extras["n_neurons"], extras["spacing"]),
        scale=extras["scale"],
        cycle_duration=extras["cycle_seconds"],
        init_stp=extras["init_stp"],
    )


def resolve_schedule(cfg: RunConfig, cache_dir: str | Path | None = None) -> RetentionSchedule:
    """The retention schedule a run config asks for.

    ``derived`` runs the dynamical system (optionally cached on disk);
    ``uniform`` is the all-ones ablation.
    """
    if cfg.retention_mode == "uniform":
        return uniform_schedule(cfg.n_segments)
    if cache_dir is None:
        return retention_schedule(cfg.n_segments, **simulation_args(cfg))
    return load_or_derive(cache_dir, cfg.n_segments, **simulation_args(cfg))


def evaluate_accuracy(model: SegmentModel, data, schedule: RetentionSchedule) -> float:
    if not data:
        raise InvalidArgumentError("cannot evaluate on an empty dataset")
    correct = 0
    for batch in data:
        label, _ = model.predict(batch, schedule)
        if label == batch.label:
            correct += 1
    return correct / len(data)


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

    With ``out_dir`` set, writes ``run.json``, ``curve.csv``,
    ``model.ckpt`` and (for derived schedules) a retention cache there.
    A ``schedule`` argument overrides the config's retention mode, which
    keeps schedule-comparison experiments on identical data and weights.
    """
    started = time.perf_counter()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    task = cfg.build_task()
    spec = task.spec
    model_cfg = cfg.model_config(spec.vocab_size, spec.n_classes)
    model = SegmentModel(model_cfg, seed=seed)
    if schedule is None:
        cache = out_path / "retention_cache" if out_path is not None else None
        schedule = resolve_schedule(cfg, cache)

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
            for idx in chunk:
                batch = train_data[idx]
                drop_seed = (seed, epoch, int(idx)) if dropout_active else None
                report = rollout(
                    model,
                    batch,
                    schedule,
                    classification_loss(model, batch, mode=cfg.loss_mode),
                    drop_seed=drop_seed,
                )
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
        "task": asdict(spec),
        "retention": {"factors": list(schedule.factors), "source": schedule.source},
        "epochs": epochs,
        "final": {
            "val_acc": epochs[-1]["val_acc"],
            "best_val_acc": best_val,
            "epochs_run": len(epochs),
        },
        "memory": peak_report,
        "param_digest": params_digest(model),
        "wall_seconds": time.perf_counter() - started,
    }
    if out_path is not None:
        _write_artifacts(out_path, record, model, model_cfg)
    return record


def _write_artifacts(out_path: Path, record: dict, model: SegmentModel, model_cfg: ModelConfig):
    import csv
    import json

    (out_path / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    with (out_path / "curve.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "val_acc", "seconds"])
        writer.writeheader()
        writer.writerows(record["epochs"])
    save_checkpoint(
        out_path / "model.ckpt",
        {"model": asdict(model_cfg), "run": record["config"], "seed": record["seed"]},
        model.state_arrays(),
    )


def eval_run(checkpoint_path: str | Path, cfg: RunConfig, seed: int = 0) -> dict:
    """Reload a checkpoint and score it on a fresh validation split."""
    payload, arrays = load_checkpoint(checkpoint_path)
    try:
        model_cfg = ModelConfig.from_dict(payload["model"])
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"checkpoint lacks a model config: {exc}") from exc
    model = SegmentModel(model_cfg, seed=seed)
    model.load_arrays(arrays)
    task = cfg.build_task()
    if task.spec.vocab_size != model_cfg.vocab_size or task.spec.n_classes != model_cfg.n_classes:
        raise InvalidArgumentError(
            "task in config does not match the checkpointed model "
            f"(vocab {task.spec.vocab_size} vs {model_cfg.vocab_size}, "
            f"classes {task.spec.n_classes} vs {model_cfg.n_classes})"
        )
    schedule = resolve_schedule(cfg)
    data = task.dataset(cfg.val_samples, seed, split=1)
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
    """Wall-clock of the linear-cost block against quadratic softmax.

    Each row times a tape-free forward at one token count (best of
    ``repeats``).  The softmax reference is timed on precomputed Q, K, V
    so it measures only the quadratic mixing.
    """
    from . import autodiff as ad
    from .attention import astro_attention, init_attention_arrays, make_attention_params

    rng = spawn(seed, 7)
    n_max = max(sizes)
    arrays = init_attention_arrays(d_model, m_hidden, n_max, rng)
    params = make_attention_params(arrays)
    rows = []
    for n in sizes:
        x_val = rng.normal(size=(n, d_model))
        x = ad.constant(x_val)
        q = x_val @ arrays["w_query"]
        k = x_val @ arrays["w_key"]
        v = x_val @ arrays["w_value"]
        astro_attention(x, params)  # warm the positional cache for this n
        best_astro = min(
            _timed(lambda: astro_attention(x, params)) for _ in range(repeats)
        )
        best_softmax = min(
            _timed(lambda: _softmax_attention_reference(q, k, v)) for _ in range(repeats)
        )
        rows.append(
            {
                "n_tokens": n,
                "astro_seconds": best_astro,
                "softmax_seconds": best_softmax,
            }
        )
    return rows


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_rollouts(cfg: RunConfig, seed: int = 0, repeats: int = 3) -> dict:
    """Compare the two gradient algorithms on one sample: time and storage."""
    task = cfg.build_task()
    spec = task.spec
    model = SegmentModel(cfg.model_config(spec.vocab_size, spec.n_classes), seed=seed)
    schedule = resolve_schedule(cfg)
    batch = task.dataset(1, seed)[0]
    out = {}
    for name, rollout in (("amrb", amrb_rollout), ("bptt", bptt_rollout)):
        loss_fn = classification_loss(model, batch, mode=cfg.loss_mode)
        model.zero_grads()
        rollout(model, batch, schedule, loss_fn)  # warm-up
        times = []
        report = None
        for _ in range(repeats):
            model.zero_grads()
            start = time.perf_counter()
            report = rollout(model, batch, schedule, loss_fn)
            times.append(time.perf_counter() - start)
        out[name] = {"seconds": min(times), **report.memory_report()}
    return out
