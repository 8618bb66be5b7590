"""Shared numerical helpers for the test suite."""

import os
import struct
from pathlib import Path

import numpy as np

from astroseq.checkpoint import MAGIC, VERSION

ACCEPTANCE_LINES: list[str] = []

# The tests import the package from this checkout (pyproject's pytest
# ``pythonpath``); a Python subprocess a test starts does too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdict lines after the run, uncaptured."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rel_err(actual, expected):
    """Max elementwise discrepancy, relative once values exceed unit scale.

    |a - e| / max(1, max|e|), the form used by every gradient tolerance in
    this suite.
    """
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if expected.size == 0 and actual.size == 0:
        return 0.0
    denom = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(actual - expected))) / denom


def finite_diff_grad(fn, arrays, index, h=1e-5):
    """Central-difference gradient of scalar fn(arrays) w.r.t. arrays[index]."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(arrays[index])
    flat = arrays[index].ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = fn(arrays)
        flat[k] = orig - h
        down = fn(arrays)
        flat[k] = orig
        gflat[k] = (up - down) / (2.0 * h)
    return grad


def write_raw_checkpoint(path, names):
    """A checkpoint written byte by byte: an empty config and one 1x1 array
    per raw (possibly malformed or repeated) name."""
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", 2), b"{}"]
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        chunks += [struct.pack("<I", len(name)), name, struct.pack("<QQd", 1, 1, 1.0)]
    path.write_bytes(b"".join(chunks))
