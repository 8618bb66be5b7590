"""Shared numerical helpers for the test suite."""

import io
import os
import struct
import zlib
from pathlib import Path

import numpy as np

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


def npy_bytes(arr, allow_pickle=False) -> bytes:
    """``arr`` as the bytes of one ``.npy`` file."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(arr), allow_pickle=allow_pickle)
    return buf.getvalue()


def zip_bytes(members) -> bytes:
    """A zip archive written byte by byte: each (raw name, data) member in
    the order given, stored, flagged UTF-8 and dated 1980-01-01, with its
    true CRC-32.  Names may repeat or be malformed."""
    local = central = b""
    for name, data in members:
        # Version 2.0, flag bit 11 (UTF-8 name), method 0 (stored), time 0,
        # date 0x21 (1980-01-01), CRC-32, both sizes, name and extra lengths.
        fields = struct.pack(
            "<5H3I2H", 20, 0x800, 0, 0, 0x21, zlib.crc32(data), len(data), len(data), len(name), 0
        )
        central += b"PK\x01\x02" + struct.pack("<H", 20) + fields
        central += struct.pack("<3H2I", 0, 0, 0, 0, len(local)) + name
        local += b"PK\x03\x04" + fields + name + data
    n = len(members)
    end = struct.pack("<4H2IH", 0, 0, n, n, len(central), len(local), 0)
    return local + central + b"PK\x05\x06" + end


def write_raw_checkpoint(path, names):
    """A checkpoint written byte by byte: an empty config and one 1x1 array
    per raw (possibly malformed or repeated) name."""
    members = [(b"config.json", b"{}")]
    members += [(name + b".npy", npy_bytes(np.ones((1, 1)))) for name in names]
    path.write_bytes(zip_bytes(members))
