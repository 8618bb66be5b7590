"""Command-line entry points.

``astroseq <command> [--config run.ini] [--seed N] [--out-dir DIR] ...``

Commands:

* ``simulate``   integrate the dynamical system, write level traces
* ``retention``  derive a memory-retention schedule from the system
* ``gradcheck``  compare replay gradients against full backprop
* ``train``      train a segment model per the run config
* ``bench``      time the attention block; a sweep over stack sizes, one
                 of them the run's own, of both gradient algorithms (one
                 optimizer step, and one rollout's counted and real peak
                 storage) and of evaluation; and the retention schedule's
                 derivation
* ``eval``       score a checkpoint, under the run it stores, on fresh
                 validation data; a ``--config`` must describe that run
                 and may change only ``[recurrence]`` and ``[training]`` keys

Exit codes: 0 success, 2 usage or configuration error (a run too large
to allocate, or an artifact that cannot be written, included), 3
numerical failure (overflow, degenerate schedule, aborted training, or a
failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import write_file
from .config import RunConfig, check_run, load_run_config
from .errors import NUMERICAL_ERRORS, USAGE_ERRORS, InvalidArgumentError
from .harness import (
    BENCH_SCHEMA,
    bench_attention,
    bench_retention,
    bench_stacks,
    eval_run,
    resolve_schedule,
    setup_run,
    train_run,
)
from .model import MAX_AXIS
from .neuroglia import MAX_STEPS, steps_per_cycle
from .retention import ltp_levels, simulate_cycles
from .trainer import amrb_rollout, bptt_rollout, classification_loss

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="run config file (INI); defaults apply if omitted "
                     "(eval: the checkpoint's run, which the file must describe)")
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--out-dir", help="directory for artifacts; created if missing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astroseq",
        description="Neuron-astrocyte simulation, linear attention, replay training.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="integrate stimulation cycles")
    _common(sim)
    sim.add_argument("--cycles", type=int, help="cycle count (default: n_segments)")
    sim.set_defaults(handler=cmd_simulate)

    ret = commands.add_parser("retention", help="derive a retention schedule")
    _common(ret)
    ret.set_defaults(handler=cmd_retention)

    grad = commands.add_parser("gradcheck", help="replay vs full-backprop gradients")
    _common(grad)
    grad.add_argument(
        "--tolerance", type=float, default=1e-8,
        help="max allowed relative discrepancy (default 1e-8)",
    )
    grad.set_defaults(handler=cmd_gradcheck)

    train = commands.add_parser("train", help="train a segment model")
    _common(train)
    train.set_defaults(handler=cmd_train)

    bench = commands.add_parser(
        "bench", help="attention, stack-size (training and evaluation) and retention timings"
    )
    _common(bench)
    bench.add_argument(
        "--sizes", default="128,256,512,1024",
        help="comma-separated token counts (at most 2**28) for the attention timing",
    )
    bench.add_argument("--repeats", type=int, default=5, help="best-of repetitions of the "
                       "attention and stack-sweep rows (retention: one derivation each)")
    bench.set_defaults(handler=cmd_bench)

    ev = commands.add_parser("eval", help="score a checkpoint under the run it stores")
    _common(ev)
    ev.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    ev.set_defaults(handler=cmd_eval)

    return parser


def _load_config(args) -> RunConfig:
    """The run ``--config`` describes (the defaults if none).  Before any
    ``--out-dir`` is made, it refuses a file that does not parse (its
    ``[simulator]`` constants and sample counts included) and a run
    ``check_run`` refuses; experiment keys are checked under ``uniform``
    too, since ``simulate`` reads them there."""
    cfg = RunConfig() if args.config is None else load_run_config(args.config)
    check_run(cfg)
    return cfg


def _out_dir(args) -> Path | None:
    if args.out_dir is None:
        return None
    path = Path(args.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot use --out-dir {path}: {exc}") from exc
    return path


def _say(text: str) -> None:
    """Print ``text`` to stdout.  If the reader has gone, stdout becomes the
    null device, so the command still ends with its own exit code and
    nothing is reported at interpreter exit."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _emit(payload: dict, out_dir: Path | None, filename: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_dir is not None:
        write_file(out_dir / filename, (text + "\n").encode())
    _say(text)


# ---------------------------------------------------------------------------
# command handlers


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params, extras = cfg.sim_params()
    n_cycles, named = (
        (cfg.n_segments, "n_segments") if args.cycles is None else (args.cycles, "--cycles")
    )
    if n_cycles < 1:
        raise InvalidArgumentError(f"{named} must be at least 1, got {n_cycles}")
    if n_cycles * steps_per_cycle(extras["cycle_seconds"], params.dt) >= MAX_STEPS:
        raise InvalidArgumentError(
            f"{named} = {n_cycles}: the run passes step 2**53 of dt {params.dt}: too many cycles"
        )
    out_dir = _out_dir(args)
    trace = simulate_cycles(n_cycles, params, extras)
    boundaries = {
        "cycle_ends": [int(i) for i in trace.cycle_ends],
        "times": [float(trace.times[i]) for i in trace.cycle_ends],
        "ltp_levels": ltp_levels(trace)[1:],
    }
    if out_dir is not None:
        lines = ["time,fac_mean,stp_mean,ltp_mean"]
        for i in range(len(trace.times)):
            lines.append(
                f"{trace.times[i]:.6f},{trace.fac[i].mean():.9f},"
                f"{trace.stp[i].mean():.9f},{trace.ltp[i].mean():.9f}"
            )
        write_file(out_dir / "trace.csv", ("\n".join(lines) + "\n").encode())
        write_file(out_dir / "boundaries.json", (json.dumps(boundaries, indent=2) + "\n").encode())
    _say(
        f"simulated {n_cycles} cycles of {extras['cycle_seconds']}s "
        f"({len(trace.times)} samples, {extras['n_neurons']} neurons)"
    )
    _say(f"slow-level means at cycle ends: {boundaries['ltp_levels']}")
    return EXIT_OK


def cmd_retention(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(args)
    _emit(asdict(resolve_schedule(cfg)), out_dir, "retention.json")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise InvalidArgumentError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    cfg = _load_config(args)
    out_dir = _out_dir(args)
    task, model = setup_run(cfg, args.seed)
    batch = task.dataset(1, args.seed)[0]
    schedule = resolve_schedule(cfg)

    model.zero_grads()
    rep_bptt = bptt_rollout(model, batch, schedule, classification_loss(model, batch, cfg.loss_mode))
    g_bptt = {name: p.grad.copy() for name, p in model.params.items()}
    model.zero_grads()
    rep_amrb = amrb_rollout(model, batch, schedule, classification_loss(model, batch, cfg.loss_mode))

    worst = 0.0
    for name, p in model.params.items():
        ref = g_bptt[name]
        if ref.size == 0:
            continue
        denom = max(1.0, float(np.abs(ref).max()))
        worst = max(worst, float(np.abs(p.grad - ref).max()) / denom)
    payload = {
        "max_rel_discrepancy": worst,
        "tolerance": args.tolerance,
        "n_segments": task.spec.n_segments,
        "memory": {
            "amrb": rep_amrb.memory_report(),
            "bptt": rep_bptt.memory_report(),
        },
    }
    _emit(payload, out_dir, "gradcheck.json")
    if not (worst <= args.tolerance):
        print(
            f"gradient check FAILED: {worst:.3e} exceeds {args.tolerance:.3e}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    _say(f"gradient check passed: {worst:.3e} <= {args.tolerance:.3e}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    record = train_run(cfg, seed=args.seed, out_dir=_out_dir(args))
    final = record["final"]
    _say(
        f"trained {final['epochs_run']} epochs on {record['task']['name']}: "
        f"val_acc={final['val_acc']:.4f} (best {final['best_val_acc']:.4f})"
    )
    if args.out_dir is not None:
        _say(f"artifacts in {args.out_dir}: run.json curve.csv model.ckpt")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError as exc:
        raise InvalidArgumentError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}"
        ) from exc
    if not sizes or min(sizes) < 1 or max(sizes) > MAX_AXIS:
        raise InvalidArgumentError(
            f"--sizes must name token counts from 1 to {MAX_AXIS}, got {args.sizes!r}"
        )
    if args.repeats < 1:
        raise InvalidArgumentError(f"--repeats must be positive, got {args.repeats}")
    out_dir = _out_dir(args)
    payload = {
        "schema": BENCH_SCHEMA,
        "attention": bench_attention(sizes=sizes, repeats=args.repeats, seed=args.seed),
        **bench_stacks(cfg, seed=args.seed, repeats=args.repeats),
        "retention": bench_retention(cfg),
    }
    _emit(payload, out_dir, "bench.json")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = None if args.config is None else load_run_config(args.config)
    record = eval_run(args.checkpoint, cfg, seed=args.seed)
    out_dir = _out_dir(args)
    _emit(record, out_dir, "eval.json")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The program's own finite checks report a numerical failure, in one
        # line; numpy's warnings would only print ahead of it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: the run does not fit in memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
