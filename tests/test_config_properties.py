"""Property tests for a run config's ``[simulator]`` section, which parses
as expected or raises ConfigError, and for stored runs, which read back or
make eval exit 2."""

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
from astroseq.config import RunConfig, parse_run_config, read_stored_run
from astroseq.errors import ConfigError, InvalidArgumentError
from astroseq.neuroglia import SimParams

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = [f.name for f in dataclasses.fields(SimParams)]
# Names [simulator] does not take: the compact aliases earlier simulator
# files took for SimParams fields, and the experiment keys, which only
# [retention] sets.
REMOVED = [
    "tau_n", "tau_s", "tau_p_s", "tau_p_l", "lambda", "beta", "gamma_s", "gamma_l", "b", "c", "d",
    "n_neurons", "spacing", "scale", "cycle_seconds", "drive_hz", "init_stp",
]
KEYS = FIELDS + REMOVED

ANY_VALUE = st.one_of(
    st.floats(-1.0, 10.0).map(repr),
    st.integers(-2, 9).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "none", ""]),
    # Garbage: printable ASCII.
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
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
def test_simulator_section_parses_as_expected_or_raises_config_error(lines):
    text = "[simulator]\n" + "".join(f"{key} = {value}\n" for key, value in lines)
    want = expected(lines)
    if want is None:
        with pytest.raises(ConfigError):
            parse_run_config(text)
        return
    assert parse_run_config(text) == RunConfig(simulator=want)


# ---------------------------------------------------------------------------
# stored runs

RUN_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
CHOICES = {
    "task": ["copy", "kv_retrieval", "listops"],
    "algorithm": ["amrb", "bptt"],
    "loss_mode": ["final", "per_segment"],
    "retention_mode": ["uniform", "derived"],
}


# Inside every range SimParams checks: dt below every time constant, tau_ltp
# above tau_stp, v_th above v_reset.
SIMULATORS = st.builds(
    SimParams, tau_ltp=st.floats(1.5, 20.0), leak=st.floats(0.0, 1.0), bias=st.floats(-1.0, 1.0)
)


def well_typed(name):
    annotation = RUN_TYPES[name]
    kind = annotation.removesuffix(" | None")
    if annotation == "SimParams":
        value = SIMULATORS
    elif name in CHOICES:
        value = st.sampled_from(CHOICES[name])
    elif kind == "int":
        value = st.integers(1, 64)
    elif kind == "float":
        value = st.floats(0.01, 1.0)  # inside every range RunConfig checks
    else:
        value = st.text(max_size=8)
    return value | st.none() if kind != annotation else value


def mistyped(annotation):
    """JSON values that a field of this annotation must refuse."""
    if annotation == "SimParams":
        return bad_simulator()
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
    lambda key: key not in RUN_TYPES and key not in FIELDS
)


def bad_simulator():
    """A stored ``simulator`` to refuse: no object, or an object with one
    constant mistyped, missing or added."""
    base = dataclasses.asdict(SimParams())
    names = st.sampled_from(FIELDS)
    return st.one_of(
        st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=4), st.lists(st.none()),
        st.tuples(names, mistyped("float")).map(lambda kv: {**base, kv[0]: kv[1]}),
        names.map(lambda key: {k: v for k, v in base.items() if k != key}),
        UNKNOWN_KEYS.map(lambda key: {**base, key: 1.0}),
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
        stored[field] = data.draw(mistyped(RUN_TYPES[field]), label="value")
        named = f"stored run: {field}" + ("" if field == "simulator" else " =")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, {"run": stored, "seed": 0}, {})
        with contextlib.redirect_stderr(err):
            code = main(["eval", "--checkpoint", str(path)])
    assert code == 2
    assert err.getvalue().startswith("error:") and named in err.getvalue()
