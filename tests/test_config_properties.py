"""Property tests for simulator parameter files, which parse as expected or
raise ConfigError, and for stored runs, which read back or make eval exit 2."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from astroseq.checkpoint import save_checkpoint
from astroseq.cli import main
from astroseq.config import RunConfig, parse_sim_params, read_stored_run
from astroseq.errors import ConfigError, InvalidArgumentError
from astroseq.neuroglia import SimParams

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = [f.name for f in dataclasses.fields(SimParams)]
# Names a simulator file no longer takes: the compact aliases of SimParams
# fields, and the experiment keys, which only [retention] sets.
REMOVED = [
    "tau_n", "tau_s", "tau_p_s", "tau_p_l", "lambda", "beta", "gamma_s", "gamma_l", "b", "c", "d",
    "n_neurons", "spacing", "scale", "cycle_seconds", "drive_hz", "init_stp",
]
KEYS = FIELDS + REMOVED

ANY_VALUE = st.one_of(
    st.floats(-1.0, 10.0).map(repr),
    st.integers(-2, 9).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "none", ""]),
    # Garbage: printable ASCII without the comment character.
    st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"), max_size=6),
)


def line(key):
    """A (key, value) pair whose value is mostly a float."""
    typed = st.floats(0.0, 10.0).map(repr)
    value = st.integers(0, 3).flatmap(lambda i: typed if i else ANY_VALUE)
    return st.tuples(st.just(key), value)


def expected(lines):
    """SimParams for these (key, value) lines, or None for a ConfigError."""
    names = [key for key, _ in lines]
    if len(set(names)) < len(names) or set(names) & set(REMOVED):
        return None
    values = {}
    for name, (_, raw) in zip(names, lines):
        try:
            values[name] = float(raw.strip())
        except ValueError:
            return None
        if not math.isfinite(values[name]):
            return None
    try:
        return SimParams(**values)
    except InvalidArgumentError:
        return None


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(lines=st.lists(st.sampled_from(KEYS).flatmap(line), max_size=6))
def test_sim_params_file_parses_as_expected_or_raises_config_error(lines):
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    want = expected(lines)
    if want is None:
        with pytest.raises(ConfigError):
            parse_sim_params(text)
        return
    assert parse_sim_params(text) == want


# ---------------------------------------------------------------------------
# stored runs

RUN_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
CHOICES = {
    "task": ["copy", "kv_retrieval", "listops"],
    "algorithm": ["amrb", "bptt"],
    "loss_mode": ["final", "per_segment"],
    "retention_mode": ["uniform", "derived"],
}


def well_typed(name):
    annotation = RUN_TYPES[name]
    kind = annotation.removesuffix(" | None")
    if name in CHOICES:
        value = st.sampled_from(CHOICES[name])
    elif kind == "int":
        value = st.integers(1, 64)
    elif kind == "float":
        value = st.floats(0.01, 1.0)  # inside every range RunConfig checks
    else:
        value = st.text(max_size=8)
    return value | st.none() if kind != annotation else value


def mistyped(name):
    """JSON values that a field of this annotation must refuse."""
    annotation = RUN_TYPES[name]
    kind = annotation.removesuffix(" | None")
    bad = [st.booleans()]
    if kind == "int":
        bad += [st.floats(-1e3, 1e3), st.text(max_size=4)]
    elif kind == "float":
        bad += [st.sampled_from([math.nan, math.inf, -math.inf, 10**400]), st.text(max_size=4)]
    else:
        bad += [st.integers(-5, 5), st.floats(-5, 5)]
    if kind == annotation:
        bad.append(st.none())
    return st.one_of(bad)


RUNS = st.builds(RunConfig, **{name: well_typed(name) for name in RUN_TYPES})
UNKNOWN_KEYS = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10).filter(
    lambda key: key not in RUN_TYPES
)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(run=RUNS, data=st.data())
def test_stored_run_reads_back_and_a_mistyped_one_makes_eval_exit_2(run, data):
    stored = json.loads(json.dumps(dataclasses.asdict(run)))
    back = read_stored_run(stored)
    assert back == run
    assert {k: type(v) for k, v in dataclasses.asdict(back).items()} == {
        k: type(v) for k, v in stored.items()
    }

    if data.draw(st.booleans(), label="unknown key"):
        field = data.draw(UNKNOWN_KEYS, label="key")
        stored[field] = data.draw(well_typed(data.draw(st.sampled_from(sorted(RUN_TYPES)))))
        named = repr(field)
    else:
        field = data.draw(st.sampled_from(sorted(RUN_TYPES)), label="field")
        stored[field] = data.draw(mistyped(field), label="value")
        named = f"stored run: {field} ="
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, {"run": stored, "seed": 0}, {})
        with contextlib.redirect_stderr(err):
            code = main(["eval", "--checkpoint", str(path)])
    assert code == 2
    assert err.getvalue().startswith("error:") and named in err.getvalue()
