"""Properties of the simulator's stacked Euler update: over random
networks, parameters, states and drives, ``step`` and ``run_stp_cycles``
give the reference step's floats bit for bit, and where a state or a run
holds a non-finite value, both raise on the same step naming the same
variable."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from astroseq import neuroglia as ng
from astroseq.errors import InvalidArgumentError, NumericalOverflowError
from test_neuroglia import STATE_FIELDS, assert_same_bits, reference_step

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SEEDED = ("v", "fac", "stp", "ltp", "rate")


@st.composite
def sim_params(draw):
    """Valid ``SimParams`` with every constant drawn."""
    tau_stp = draw(st.floats(0.05, 2.0))
    v_th = draw(st.floats(-1.0, 2.0))
    fields = dict(
        tau_mem=draw(st.floats(0.05, 2.0)),
        tau_fac=draw(st.floats(0.05, 2.0)),
        tau_stp=tau_stp,
        tau_ltp=tau_stp + draw(st.floats(0.01, 10.0)),
        leak=draw(st.floats(0.0, 1.0)),
        fac_decay=draw(st.floats(0.0, 1.0)),
        stp_decay=draw(st.floats(0.0, 1.0)),
        ltp_decay=draw(st.floats(0.0, 1.0)),
        v_th=v_th,
        v_reset=v_th - draw(st.floats(0.1, 3.0)),
        bias=draw(st.floats(-2.0, 2.0)),
        fac_input=draw(st.sampled_from([0.0, -0.0, 0.3, -1.5])),
        stp_input=draw(st.sampled_from([0.0, -0.0, 0.2, -0.7])),
        dt=draw(st.floats(0.001, 0.04)),
    )
    try:
        return ng.SimParams(**fields)
    except InvalidArgumentError:
        hypothesis.reject()


def random_state(rng, n, params, scale):
    """A finite state around the parameters' range, its levels times
    ``scale``; signed zeros included."""
    state = ng.SimState(
        v=rng.uniform(params.v_reset - 1.0, params.v_th + 1.0, n),
        fac=rng.uniform(-3.0, 3.0, (n, n)) * scale,
        stp=rng.uniform(-3.0, 3.0, (n, n)) * scale,
        ltp=rng.uniform(-3.0, 3.0, (n, n)) * scale,
        rate=rng.uniform(0.0, 50.0, n),
        spikes=(rng.uniform(size=n) < 0.5).astype(np.float64),
    )
    for name in ("fac", "stp", "ltp"):
        values = getattr(state, name).ravel()
        values[rng.uniform(size=values.size) < 0.1] = rng.choice([0.0, -0.0])
    return state


def seed_non_finite(rng, state, field):
    """``state`` with one entry of ``field`` set to inf, -inf or NaN."""
    values = getattr(state, field).copy()
    values.flat[rng.integers(values.size)] = rng.choice([np.inf, -np.inf, np.nan])
    return replace(state, **{field: values})


def outcome(fn, *args):
    """(result, None), or (None, the variable named) if it overflows."""
    try:
        return fn(*args), None
    except NumericalOverflowError as exc:
        return None, exc.variable


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(
    n=st.integers(1, 4),
    params=sim_params(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e200]),
    seeded=st.sampled_from((None, *SEEDED)),
)
def test_step_matches_the_reference_bit_for_bit(n, params, seed, scale, seeded):
    """One step from a random state, finite or with one non-finite entry in
    a variable, under random parameters, coupling and drive: the same six
    arrays bit for bit, or the same variable named.  Neither step writes
    into the state it was given."""
    rng = np.random.default_rng(seed)
    coupling = rng.uniform(0.0, 1.0, (n * n, n * n))
    spikes_in = rng.choice([0.0, 1.0, 0.5], n)
    state = random_state(rng, n, params, scale)
    if seeded is not None:
        state = seed_non_finite(rng, state, seeded)
    before = {name: getattr(state, name).copy() for name in STATE_FIELDS}
    with np.errstate(all="ignore"):
        expected, expected_variable = outcome(reference_step, state, params, coupling, spikes_in)
        got, got_variable = outcome(ng.step, state, params, coupling, spikes_in)
    assert got_variable == expected_variable
    if expected is not None:
        for name in STATE_FIELDS:
            assert_same_bits(getattr(got, name), getattr(expected, name))
    for name in STATE_FIELDS:
        assert_same_bits(getattr(state, name), before[name])


def reference_run(params, coupling, n_cycles, spc, fired, initial):
    """``run_stp_cycles``'s samples by ``reference_step``: the list of
    states from ``initial`` on, and the variable named if a step overflows
    (its step number is then the list's length)."""
    n = initial.v.shape[0]
    state, samples = initial, [initial]
    for cycle in range(n_cycles):
        if cycle > 0:
            state = replace(initial, ltp=state.ltp)
        for k in range(cycle * spc, (cycle + 1) * spc):
            state, variable = outcome(
                reference_step, state, params, coupling, np.full(n, float(fired[k]))
            )
            if variable is not None:
                return samples, variable
            samples.append(state)
    return samples, None


@hypothesis.settings(derandomize=True, deadline=None, max_examples=80)
@hypothesis.given(
    n=st.integers(1, 4),
    params=sim_params(),
    seed=st.integers(0, 2**32 - 1),
    n_cycles=st.integers(1, 3),
    spc=st.integers(1, 20),
    first_step=st.integers(0, 200),
    drive_hz=st.sampled_from([0.0, 3.3, 10.0, 24.0]),
    scale=st.sampled_from([1e-3, 1.0, 1e150]),
    seeded=st.sampled_from((None, *SEEDED)),
)
def test_run_matches_the_reference_bit_for_bit(
    n, params, seed, n_cycles, spc, first_step, drive_hz, scale, seeded
):
    """A multi-cycle run from a random initial state, finite or with one
    non-finite entry, gives the reference step's fac, stp and ltp samples
    bit for bit, or raises on the same step naming the same variable."""
    rng = np.random.default_rng(seed)
    coupling = rng.uniform(0.0, 1.0, (n * n, n * n))
    initial = random_state(rng, n, params, scale)
    if seeded is not None:
        initial = seed_non_finite(rng, initial, seeded)
    drive = ng.DriveSpec(drive_hz)
    duration = spc * params.dt
    times = ng.step_times(first_step, n_cycles * spc + 1, params.dt)
    fired = drive.fires(times[:-1], params.dt)

    steps = []
    real_step = ng.step

    def counted_step(*args):
        steps.append(None)
        return real_step(*args)

    with np.errstate(all="ignore"):
        expected, expected_variable = reference_run(
            params, coupling, n_cycles, spc, fired, initial
        )
        with mock.patch.object(ng, "step", counted_step):
            trace, variable = outcome(
                ng.run_stp_cycles, params, coupling, n_cycles, duration, drive, initial,
                first_step,
            )
    assert variable == expected_variable
    if variable is not None:
        assert len(steps) == len(expected)
        return
    assert len(steps) == n_cycles * spc
    assert_same_bits(trace.times, times)
    for name in ("fac", "stp", "ltp"):
        assert_same_bits(getattr(trace, name), np.stack([getattr(s, name) for s in expected]))
