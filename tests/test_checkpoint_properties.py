"""Property test for checkpoint files: a damaged checkpoint makes ``eval``
exit with a code, never a traceback, and never scores an altered model."""

import contextlib
import io
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

from astroseq.checkpoint import load_checkpoint, save_checkpoint
from astroseq.cli import main
from astroseq.config import RunConfig
from astroseq.model import SegmentModel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# A tiny copy run: about 860 bytes of config block and 1,700 of array values
# in some 6,800 bytes of zip, so flips land in the config, the arrays and
# the zip and .npy headers.
RUN = RunConfig(
    task="copy", seg_len=4, n_segments=2, n_classes=3, d_model=4, m_hidden=4, ffn_dim=4,
    mem_tokens=2, val_samples=4,
)


def tiny_checkpoint() -> bytes:
    spec = RUN.build_task().spec
    model = SegmentModel(RUN.model_config(spec.vocab_size, spec.n_classes))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, {"run": asdict(RUN), "seed": 0}, model.state_arrays())
        return path.read_bytes()


def loaded(blob: bytes):
    """(config, arrays) as ``load_checkpoint`` reads ``blob``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(blob)
        return load_checkpoint(path)


BLOB = tiny_checkpoint()
CONFIG, ARRAYS = loaded(BLOB)
FLIPS = st.lists(
    st.tuples(st.integers(0, len(BLOB) - 1), st.integers(1, 255)), min_size=1, max_size=3
)


def flipped(flips) -> bytes:
    blob = bytearray(BLOB)
    for at, mask in flips:
        blob[at] ^= mask
    return bytes(blob)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=120)
@hypothesis.given(
    blob=st.one_of(
        FLIPS.map(flipped), st.integers(0, len(BLOB) - 1).map(lambda n: BLOB[:n])
    )
)
def test_damaged_checkpoint_makes_eval_exit_with_a_code(blob):
    """Flipped bytes or a truncation give exit 0 only where they load to the
    undamaged config and parameters bit for bit (a flip in a header field
    the reader ignores), else 2 with one ``error:`` line, or 3 (non-finite
    logits)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(blob)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--checkpoint", str(path)])
    assert code in (0, 2, 3)
    if code == 0:
        assert json.loads(out.getvalue())["kind"] == "eval"
        config, arrays = loaded(blob)
        assert config == CONFIG and arrays.keys() == ARRAYS.keys()
        for name, values in arrays.items():
            assert values.shape == ARRAYS[name].shape
            assert values.tobytes() == ARRAYS[name].tobytes()
    elif code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue().startswith("numerical failure:")
