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
from astroseq.config import SIM_ALIASES, SIM_EXTRA_KEYS, RunConfig, parse_sim_params, read_stored_run
from astroseq.errors import ConfigError, InvalidArgumentError
from astroseq.neuroglia import SimParams

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = [f.name for f in dataclasses.fields(SimParams)]
KEYS = FIELDS + sorted(SIM_ALIASES) + sorted(SIM_EXTRA_KEYS)

ANY_VALUE = st.one_of(
    st.floats(-1.0, 10.0).map(repr),
    st.integers(-2, 9).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "none", ""]),
    # Garbage: printable ASCII without the comment character.
    st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"), max_size=6),
)


def line(key):
    """A (key, value) pair whose value is mostly of the key's own type."""
    name = SIM_ALIASES.get(key, key)
    if name == "n_neurons":
        typed = st.integers(1, 9).map(str)
    else:
        typed = st.floats(0.0, 10.0).map(repr)
    value = st.integers(0, 3).flatmap(lambda i: typed if i else ANY_VALUE)
    return st.tuples(st.just(key), value)


def expected(lines):
    """(SimParams, extras) for these (key, value) lines, or None for a ConfigError."""
    names = [SIM_ALIASES.get(key, key) for key, _ in lines]
    if len(set(names)) < len(names):
        return None
    values, extras = {}, {}
    for name, (_, raw) in zip(names, lines):
        raw = raw.strip()
        try:
            number = int(raw) if name == "n_neurons" else float(raw)
        except ValueError:
            return None
        if not math.isfinite(number):
            return None
        (extras if name in SIM_EXTRA_KEYS else values)[name] = number
    try:
        return SimParams(**values), extras
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
    params, extras = parse_sim_params(text)
    assert (params, extras) == want
    assert {name: type(v) for name, v in extras.items()} == {
        name: type(v) for name, v in want[1].items()
    }


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
