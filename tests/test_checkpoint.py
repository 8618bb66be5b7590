"""Checkpoint file format: exact round trips and corruption detection."""

import struct
from dataclasses import asdict

import numpy as np
import pytest

from astroseq.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from astroseq.errors import ConfigError
from astroseq.config import RunConfig, read_stored_run
from astroseq.model import SegmentModel
from conftest import write_raw_checkpoint


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
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, {"w": np.zeros((1, 1))})
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC)] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError):
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
    path.write_bytes(
        MAGIC + struct.pack("<IQ", VERSION, len(config)) + config + struct.pack("<I", 0)
    )
    with pytest.raises(ConfigError, match="corrupt config block"):
        load_checkpoint(path)


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_checkpoint(tmp_path / "absent.ckpt")



def test_rejects_parameter_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, [b"\xff\xfe"])
    with pytest.raises(ConfigError, match="parameter name"):
        load_checkpoint(path)


def test_rejects_duplicate_parameter_name(tmp_path):
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, [b"w", b"w"])
    with pytest.raises(ConfigError, match="twice"):
        load_checkpoint(path)
