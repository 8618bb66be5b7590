"""Single-file checkpoints: a zip of ``.npy`` members (NEP 1), which
``numpy.load`` opens.

Layout: a zip archive whose members are all stored uncompressed and dated
1980-01-01, so equal contents give equal bytes:

    config.json    the config block, as JSON with sorted keys
    <name>.npy     one per parameter, in sorted name order, each a
                   row-major 2-D float64 array

The reader refuses, as a ``ConfigError`` of one line:

* the ``ASEQCKPT`` layout of earlier versions, whose models must be
  retrained;
* bytes that do not start with a zip local file header, or do not end
  with the end-of-central-directory record and an empty comment, so no
  bytes may come before or after the archive;
* a central directory that lists other than the end record's member
  count, a name held twice, no ``config.json``, a member that is neither
  it nor a ``.npy``, or one that is compressed or encrypted, so no
  decompressor ever runs;
* a member whose CRC-32 fails (each is read whole, and checked, before it
  is parsed), a config block that is not JSON, and an array that needs
  unpickling or is not 2-D float64.

Every artifact a command writes, checkpoints included, goes through
``write_file``.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidArgumentError

CONFIG = "config.json"


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
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        # A ZipInfo is stored uncompressed and dated 1980-01-01 unless told otherwise.
        zf.writestr(zipfile.ZipInfo(CONFIG), json.dumps(config, sort_keys=True))
        for name in sorted(arrays):
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w") as member:
                arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
                np.lib.format.write_array(member, arr, allow_pickle=False)
    write_file(path, buf.getvalue())


def _members(blob: bytes) -> dict[str, bytes]:
    """Each member's bytes by name, read whole and CRC-checked, once the
    member list passes the rules; a ``ValueError`` names the one broken."""
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        infos = zf.infolist()
        names = [info.filename for info in infos]
        if CONFIG not in names or len(names) != int.from_bytes(blob[-12:-10], "little"):
            raise ValueError(f"members {names} lack {CONFIG} or are not as its end record counts")
        for info in infos:
            name = info.filename
            if names.count(name) > 1 or name != CONFIG and not name.endswith(".npy"):
                raise ValueError(f"member {name!r} is held twice or is no {CONFIG} or .npy")
            if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 1:
                raise ValueError(f"member {name!r} is compressed or encrypted")
        return {info.filename: zf.read(info) for info in infos}


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back (config, arrays) under the rules in the module docstring."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if blob.startswith(b"ASEQCKPT"):
        raise ConfigError(f"{path} has the old ASEQCKPT checkpoint layout: retrain the model")
    if not (blob[:4] == b"PK\x03\x04" and blob[-22:-18] == b"PK\x05\x06" and blob[-2:] == b"\0\0"):
        raise ConfigError(f"{path} is not a checkpoint file: it must be one zip and no more")
    try:
        members = _members(blob)
        config = json.loads(members.pop(CONFIG))
        arrays = {
            name[:-4]: np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
            for name, data in members.items()
        }
    except (zipfile.BadZipFile, ValueError, EOFError, NotImplementedError) as exc:
        raise ConfigError(f"checkpoint {path} is corrupt: {exc}") from exc
    for name, arr in arrays.items():
        if arr.ndim != 2 or arr.dtype != np.float64:
            raise ConfigError(f"{path}: {name!r} is {arr.ndim}-D {arr.dtype}, not 2-D float64")
    return config, arrays
