"""Checkpoint file format: exact round trips and corruption detection."""

import hashlib
import json
import struct
import zipfile
from dataclasses import asdict

import numpy as np
import pytest

from astroseq.checkpoint import load_checkpoint, save_checkpoint
from astroseq.errors import ConfigError
from astroseq.config import RunConfig, read_stored_run
from astroseq.harness import train_run
from astroseq.model import SegmentModel
from conftest import npy_bytes, write_raw_checkpoint, zip_bytes


def test_round_trip_is_bitwise_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "alpha": rng.normal(size=(3, 5)),
        "beta": rng.normal(size=(1, 1)),
        "empty": np.zeros((0, 4)),
    }
    config = {"kind": "test", "n": 3, "nested": {"x": 1.5}}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config, arrays)
    config2, arrays2 = load_checkpoint(path)
    assert config2 == config
    assert set(arrays2) == set(arrays)
    for name in arrays:
        assert arrays2[name].shape == arrays[name].shape
        assert np.array_equal(arrays2[name], arrays[name])


def test_model_state_round_trip(tmp_path):
    run = RunConfig(seg_len=3, n_segments=2, n_classes=3, d_model=4, m_hidden=4,
                    ffn_dim=6, mem_tokens=2)
    spec = run.build_task().spec
    model = SegmentModel(run.model_config(spec.vocab_size, spec.n_classes), seed=4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"run": asdict(run)}, model.state_arrays())
    config2, arrays2 = load_checkpoint(path)
    run2 = read_stored_run(config2["run"])
    assert run2 == run
    restored = SegmentModel(run2.model_config(spec.vocab_size, spec.n_classes), seed=99)
    restored.load_arrays(arrays2)
    for name, p in model.params.items():
        assert np.array_equal(restored.params[name].value, p.value)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ConfigError, match="not a checkpoint file"):
        load_checkpoint(path)


def test_rejects_wrong_version(tmp_path):
    # Byte 6 of a .npy member is its format's major version.
    npy = bytearray(npy_bytes(np.zeros((1, 1))))
    npy[6] = 99
    path = tmp_path / "model.ckpt"
    path.write_bytes(zip_bytes([(b"config.json", b"{}"), (b"w.npy", bytes(npy))]))
    with pytest.raises(ConfigError, match="corrupt.*version"):
        load_checkpoint(path)


def test_rejects_truncation_and_trailing_garbage(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": 1}, {"w": np.ones((2, 2))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ConfigError):
        load_checkpoint(path)
    path.write_bytes(blob + b"junk")
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_rejects_config_block_with_oversized_integer(tmp_path):
    # json.loads refuses ints past Python's digit limit with a plain ValueError.
    config = b'{"lr": ' + b"1" * 5000 + b"}"
    path = tmp_path / "model.ckpt"
    path.write_bytes(zip_bytes([(b"config.json", config)]))
    with pytest.raises(ConfigError, match="corrupt.*digits"):
        load_checkpoint(path)


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_checkpoint(tmp_path / "absent.ckpt")



def test_rejects_parameter_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, [b"\xff\xfe"])
    with pytest.raises(ConfigError, match="corrupt.*utf-8"):
        load_checkpoint(path)


def test_rejects_duplicate_parameter_name(tmp_path):
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, [b"w", b"w"])
    with pytest.raises(ConfigError, match="'w.npy' is held twice or"):
        load_checkpoint(path)


def test_rejects_member_whose_crc_fails(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, {"w": np.ones((2, 2))})
    blob = bytearray(path.read_bytes())
    # The end record's last four bytes before its comment length give where
    # the central directory starts; the byte before it ends w.npy's data.
    blob[int.from_bytes(blob[-6:-2], "little") - 1] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="CRC-32"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "array", [np.ones(3), np.ones((2, 2), dtype=np.float32)], ids=["1d", "float32"]
)
def test_rejects_array_that_is_not_2d_float64(tmp_path, array):
    path = tmp_path / "model.ckpt"
    path.write_bytes(zip_bytes([(b"config.json", b"{}"), (b"w.npy", npy_bytes(array))]))
    with pytest.raises(ConfigError, match="'w' is .*, not 2-D float64"):
        load_checkpoint(path)


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class _Tripwire:
    def __reduce__(self):
        return _record_unpickling, ()


def test_rejects_object_array_without_unpickling(tmp_path):
    array = np.empty((1, 1), dtype=object)
    array[0, 0] = _Tripwire()
    path = tmp_path / "model.ckpt"
    member = npy_bytes(array, allow_pickle=True)
    path.write_bytes(zip_bytes([(b"config.json", b"{}"), (b"w.npy", member)]))
    with pytest.raises(ConfigError, match="corrupt.*allow_pickle"):
        load_checkpoint(path)
    assert not UNPICKLED


@pytest.mark.parametrize(
    "members, reason",
    [
        ([(b"config.json", b"{}"), (b"notes.txt", b"hi")], "'notes.txt' is held twice or"),
        ([(b"w.npy", npy_bytes(np.ones((1, 1))))], "lack config.json"),
    ],
    ids=["unknown", "no_config"],
)
def test_rejects_member_list_other_than_config_and_arrays(tmp_path, members, reason):
    path = tmp_path / "model.ckpt"
    path.write_bytes(zip_bytes(members))
    with pytest.raises(ConfigError, match=reason):
        load_checkpoint(path)


def test_rejects_compressed_member(tmp_path):
    path = tmp_path / "model.ckpt"
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("config.json", "{}")
    with pytest.raises(ConfigError, match="'config.json' is compressed"):
        load_checkpoint(path)


def test_rejects_leading_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": 1}, {"w": np.ones((2, 2))})
    path.write_bytes(b"junk" + path.read_bytes())
    with pytest.raises(ConfigError, match="not a checkpoint file"):
        load_checkpoint(path)


def test_old_layout_asks_for_retraining(tmp_path):
    # The earlier layout: magic, version 1, an 8-byte config length, "{}",
    # and no parameters.
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"ASEQCKPT" + struct.pack("<IQ", 1, 2) + b"{}" + struct.pack("<I", 0))
    with pytest.raises(ConfigError, match="old ASEQCKPT checkpoint layout: retrain"):
        load_checkpoint(path)


def test_trained_checkpoint_opens_with_numpy_load(tmp_path):
    """A checkpoint is a standard ``.npz``: ``numpy.load`` reads its arrays,
    which hash to the run's ``param_digest``, and its config.  Saving equal
    contents again gives equal bytes."""
    run = RunConfig(seg_len=3, n_segments=2, n_classes=3, d_model=4, m_hidden=4, ffn_dim=6,
                    epochs=1, train_samples=4, val_samples=4)
    record = train_run(run, seed=0, out_dir=tmp_path)
    path = tmp_path / "model.ckpt"
    with np.load(path, allow_pickle=False) as npz:
        config = json.loads(npz["config.json"])
        arrays = {name: npz[name] for name in npz.files if name != "config.json"}
    assert config == {"run": record["config"], "seed": 0}
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(arrays[name].tobytes())
    assert digest.hexdigest() == record["param_digest"]
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, *load_checkpoint(path))
    assert again.read_bytes() == path.read_bytes()
