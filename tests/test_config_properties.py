"""Property tests for simulator parameter files: parse as expected or raise ConfigError."""

import dataclasses
import math

import pytest

from astroseq.config import SIM_ALIASES, SIM_EXTRA_KEYS, parse_sim_params
from astroseq.errors import ConfigError, InvalidArgumentError
from astroseq.neuroglia import ACTIVATIONS, SimParams

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = [f.name for f in dataclasses.fields(SimParams)]
STRING_FIELDS = {name for name in FIELDS if isinstance(getattr(SimParams(), name), str)}
KEYS = FIELDS + sorted(SIM_ALIASES) + sorted(SIM_EXTRA_KEYS)

ANY_VALUE = st.one_of(
    st.floats(-1.0, 10.0).map(repr),
    st.integers(-2, 9).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "none", ""]),
    st.sampled_from(sorted(ACTIVATIONS) + ["Tanh", "sigmoidal"]),
    # Garbage: printable ASCII without the comment character.
    st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"), max_size=6),
)


def line(key):
    """A (key, value) pair whose value is mostly of the key's own type."""
    name = SIM_ALIASES.get(key, key)
    if name in STRING_FIELDS:
        typed = st.sampled_from(sorted(ACTIVATIONS))
    elif name == "n_neurons":
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
        if name in STRING_FIELDS:
            values[name] = raw
            continue
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
