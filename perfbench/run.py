"""Benchmark of astroseq training runs, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` it runs that workload in this process and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Without ``--workload`` it runs
every workload, each in a fresh process, and prints them all.  BLAS runs
single-threaded; the run refuses to start if it cannot make it so.
Workloads and metrics are defined in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_TIMEOUT_S = 170


def parse_args(argv, workload_names, default_seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="seed the inputs are made from")
    parser.add_argument("--seconds", type=int, default=default_seconds, help="time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced run")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def blas_threads():
    """(BLAS description, its thread count or None where it cannot be asked)."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    described = f"{blas.get('name')} {blas.get('version')}"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*blas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return described, getter()
    return described, None


def environment(blas: str, threads) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "astroseq" / "__init__.py").is_file():
        print(f"astroseq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas, threads = blas_threads()
    if threads is not None and threads != 1:
        print(f"BLAS runs {threads} threads; the benchmark needs 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    report = result.pop("report")
    report["environment"] = environment(blas, threads)
    print(json.dumps(report, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>13} {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, workload_names) -> int:
    results = {}
    status = 0
    for name in workload_names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=WORKLOAD_TIMEOUT_S + args.seconds)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        status = status or proc.returncode
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return status


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from workloads import RUN_SECONDS, WORKLOADS

    args = parse_args(argv, list(WORKLOADS), RUN_SECONDS)
    if args.workload is None:
        return run_all(args, list(WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
