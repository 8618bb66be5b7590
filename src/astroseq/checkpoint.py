"""Single-file binary checkpoints: a versioned header, a config block as
embedded JSON, and every parameter as name + shape + row-major float64.

Layout (all integers little-endian):

    8 bytes   magic ``ASEQCKPT``
    uint32    format version (currently 1)
    uint64    config JSON byte length, then that many UTF-8 bytes
    uint32    parameter count, then per parameter:
        uint32  name byte length, then that many UTF-8 bytes
        uint64  rows
        uint64  cols
        rows * cols float64 values

Every artifact a command writes, checkpoints included, goes through
``write_file``.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidArgumentError

MAGIC = b"ASEQCKPT"
VERSION = 1


def write_file(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a ``.tmp`` sibling renamed over it,
    so no reader sees half a file.  A path that cannot be written is a
    usage error that names it, and leaves no ``.tmp`` behind."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_checkpoint(path, config: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write config and named parameter arrays to ``path`` atomically."""
    config_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    chunks.append(struct.pack("<Q", len(config_bytes)))
    chunks.append(config_bytes)
    chunks.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        if arr.ndim != 2:
            raise ConfigError(f"checkpoint arrays must be 2-D; {name!r} is {arr.shape}")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        chunks.append(arr.tobytes(order="C"))
    write_file(path, b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes, path: Path):
        self.blob = blob
        self.offset = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise ConfigError(f"checkpoint {self.path} is truncated")
        out = self.blob[self.offset : self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back (config, arrays); rejects wrong magic, version, truncation,
    and malformed or repeated parameter names."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    r = _Reader(blob, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise ConfigError(f"{path} is not a checkpoint file (bad magic)")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise ConfigError(f"unsupported checkpoint version {version} (expected {VERSION})")
    (config_len,) = r.unpack("<Q")
    try:
        config = json.loads(r.take(config_len).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an int past Python's digit limit
        raise ConfigError(f"checkpoint {path} has a corrupt config block: {exc}") from exc
    (n_params,) = r.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = r.unpack("<I")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"checkpoint {path} has a corrupt parameter name: {exc}") from exc
        if name in arrays:
            raise ConfigError(f"checkpoint {path} holds parameter {name!r} twice")
        rows, cols = r.unpack("<QQ")
        data = r.take(rows * cols * 8)
        arrays[name] = np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
    if r.offset != len(blob):
        raise ConfigError(f"checkpoint {path} has {len(blob) - r.offset} trailing bytes")
    return config, arrays
