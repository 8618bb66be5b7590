"""Schedule derivation: increments, normalization, monotonicity, degeneracy, digests."""

import dataclasses
import hashlib

import numpy as np
import pytest

from astroseq import neuroglia as ng
from astroseq import retention as rt
from astroseq.config import SIM_EXTRA_KEYS, RunConfig
from astroseq.errors import DegenerateScheduleError, InvalidArgumentError, NumericalOverflowError
from astroseq.harness import resolve_schedule

EXPERIMENT = dict(
    n_neurons=3, spacing=1.0, scale=2.0, cycle_seconds=10.0, drive_hz=10.0, init_stp=0.0
)


def derive(n_segments, **experiment):
    return rt.retention_schedule(n_segments, ng.SimParams(), {**EXPERIMENT, **experiment})


def test_increments_match_hand_computed_boundary_means():
    params = ng.SimParams()
    coupling = ng.coupling_tensor(ng.build_geometry(3, 1.0), 2.0)
    trace = ng.run_stp_cycles(params, coupling, 3, 5.0, ng.DriveSpec(10.0))
    inc = rt.ltp_increments(trace, 3)
    spc = round(5.0 / params.dt)
    for t in range(3):
        lo = trace.ltp[t * spc].mean()
        hi = trace.ltp[(t + 1) * spc].mean()
        assert inc[t] == pytest.approx(hi - lo, rel=1e-12)


def test_increments_require_enough_cycles():
    params = ng.SimParams()
    coupling = ng.coupling_tensor(ng.build_geometry(3, 1.0), 2.0)
    trace = ng.run_stp_cycles(params, coupling, 2, 5.0, ng.DriveSpec(10.0))
    with pytest.raises(InvalidArgumentError):
        rt.ltp_increments(trace, 3)


@pytest.mark.parametrize("n_segments", [1, 2, 4])
def test_derived_schedule_normalized_positive_decreasing(n_segments):
    schedule = derive(n_segments)
    factors = np.asarray(schedule.factors)
    assert abs(factors.sum() - 1.0) <= rt.SUM_TOLERANCE
    assert np.all(factors > 0)
    assert np.all(np.diff(factors) <= 0)
    assert schedule.source["kind"] == "derived"


def test_factor_lookup_is_one_based():
    schedule = derive(3)
    assert schedule.factor(1) == schedule.factors[0]
    assert schedule.factor(3) == schedule.factors[2]
    with pytest.raises(InvalidArgumentError):
        schedule.factor(0)
    with pytest.raises(InvalidArgumentError):
        schedule.factor(4)


def test_uniform_schedule_is_all_ones():
    schedule = rt.uniform_schedule(5)
    assert schedule.factors == (1.0,) * 5
    assert schedule.source == {"kind": "uniform"}


def test_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        rt.RetentionSchedule(2, (0.5,), {"kind": "derived"})
    with pytest.raises(InvalidArgumentError):
        rt.RetentionSchedule(2, (0.5, -0.1), {"kind": "derived"})
    with pytest.raises(InvalidArgumentError):
        rt.RetentionSchedule(2, (0.9, 0.3), {"kind": "derived"})  # sum != 1
    with pytest.raises(InvalidArgumentError):
        rt.RetentionSchedule(2, (1.5, 0.5), {"kind": "uniform"})  # above 1


def test_zero_drive_is_degenerate():
    with pytest.raises(DegenerateScheduleError):
        derive(2, drive_hz=0.0, cycle_seconds=5.0)


def test_derivation_is_byte_for_byte_reproducible():
    a, b = derive(3), derive(3)
    assert a == b


@pytest.mark.parametrize(
    "n_segments,drive_hz,digest",
    [
        (2, 10.0, "a010ca211c42eb72923e19925e8b7fee3b7fe30c93561601f0edc592a50958f2"),
        (8, 10.0, "2ced5c7ee64d31a601f89807a101e72d7cf39d64403e63ada94a5c299df9f6b3"),
        (16, 10.0, "1e7d65bb6f9d539dcbc312ce8c7e392a2b13d1b78c82a5386af8b0da7d7fcdab"),
        (8, 7.3, "dd0725916c1d7997f20b5ed7ff2ffc3c3dbed4d05a4beb10ed4f5d7003619fb4"),
        (8, 7.37, "f525dcc94c651d39aeb6caba9940770bff7bd0e81cf5f1dcf103058cfb517425"),
    ],
)
def test_derived_factors_are_pinned(n_segments, drive_hz, digest):
    """The sha256 of the packed float64 factors on the default experiment,
    as the per-variable Euler update derived them.  A 7.3 Hz drive fires
    365 times in each 50 s cycle, so its cycles share one drive pattern; at
    7.37 Hz the phase moves and T = 8 shows two."""
    params, extras = RunConfig(drive_hz=drive_hz).sim_params()
    schedule = rt.retention_schedule(n_segments, params, extras)
    assert schedule.source["patterns"] == (2 if drive_hz == 7.37 else 1)
    packed = np.asarray(schedule.factors, dtype=np.float64).tobytes()
    assert hashlib.sha256(packed).hexdigest() == digest


def test_unique_rows_matches_np_unique():
    """Over random boolean (segments, steps) matrices, few distinct rows or
    many, ``unique_rows`` gives ``np.unique(axis=0)``'s first indices and
    flat inverse: the same values and the same sorted row order."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
    @hypothesis.given(
        segments=st.integers(1, 40),
        steps=st.integers(1, 12),
        distinct=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(segments, steps, distinct, seed):
        rng = np.random.default_rng(seed)
        pool = rng.uniform(size=(distinct, steps)) < rng.uniform()
        rows = pool[rng.integers(distinct, size=segments)]
        _, first, which = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        got_first, got_which = rt.unique_rows(rows)
        assert got_first.dtype == first.dtype and np.array_equal(got_first, first)
        assert np.array_equal(got_which, which.reshape(-1))

    check()


def _changed(value):
    """A different value of a SimParams field that keeps the parameters
    valid: a shifted constant."""
    return value * 1.25 + 0.05


def test_digest_separates_distinct_macros():
    """Every input changes the digest: the segment count, each SimParams
    field and each experiment key.  A tiny one-neuron experiment keeps the
    simulations cheap; spacing and scale do not move its factors, but they
    must still move its digest."""
    experiment = dict(EXPERIMENT, n_neurons=1, cycle_seconds=2.0)
    params = ng.SimParams()

    def digest(n_segments=2, params=params, **changes):
        schedule = rt.retention_schedule(n_segments, params, {**experiment, **changes})
        return schedule.source["digest"]

    base = digest()
    assert digest() == base
    digests = {"n_segments": digest(n_segments=3)}
    for field in dataclasses.fields(ng.SimParams):
        old = getattr(params, field.name)
        new = params.dt / 2 if field.name == "dt" else _changed(old)
        digests[field.name] = digest(params=dataclasses.replace(params, **{field.name: new}))
    for key, value in experiment.items():
        digests[key] = digest(**{key: value * 2 if value else 0.05})
    assert base not in digests.values()
    assert len(set(digests.values())) == len(digests), digests


def test_source_records_the_experiment_as_given():
    """``source`` holds kind, digest, dt, the decay, gains and pattern count
    and all six experiment keys; ``[simulator]`` changes the constants and
    leaves the experiment keys the config's."""
    keys = {"kind", "digest", "dt", "decay", "gains", "patterns", *SIM_EXTRA_KEYS}
    cfg = RunConfig(
        n_segments=2, retention_mode="derived", n_neurons=2, cycle_seconds=4.0, spacing=1.5
    )
    source = resolve_schedule(cfg).source
    assert set(source) == keys
    assert source["kind"] == "derived"
    assert source["spacing"] == 1.5
    assert source["dt"] == ng.SimParams().dt
    source = resolve_schedule(dataclasses.replace(cfg, simulator=ng.SimParams(dt=0.02))).source
    assert set(source) == keys
    assert (source["spacing"], source["dt"]) == (1.5, 0.02)
    assert (source["n_neurons"], source["cycle_seconds"]) == (2, 4.0)


@pytest.mark.parametrize(
    "drive_hz,cycle_seconds,patterns", [(10.0, 4.0, 1), (3.3, 12.0, 5)],
    ids=["periodic", "aperiodic"],
)
def test_source_states_what_determines_the_factors(drive_hz, cycle_seconds, patterns):
    """The factors follow from ``source`` alone: levels L_c = A L_{c-1} + B_c
    with A its ``decay`` and B_c the ``gains`` entry of cycle c's drive
    pattern, normalized.  A is (1 - dt ltp_decay / tau_ltp) ** steps_per_cycle."""
    params = ng.SimParams()
    extras = dict(EXPERIMENT, n_neurons=2, drive_hz=drive_hz, cycle_seconds=cycle_seconds)
    schedule = rt.retention_schedule(8, params, extras)
    source = schedule.source
    spc = ng.steps_per_cycle(cycle_seconds, params.dt)
    assert source["decay"] == (1.0 - params.dt / params.tau_ltp * params.ltp_decay) ** spc
    assert source["patterns"] == len(source["gains"]) == patterns
    _, which = rt.drive_patterns(8, params, extras)
    levels = [0.0]
    for p in which:
        levels.append(source["decay"] * levels[-1] + source["gains"][p])
    increments = np.diff(levels)
    assert schedule.factors == tuple(float(f) for f in increments / increments.sum())


def oracle_increments(n_segments, params, extras):
    """Per-cycle increments of the multi-cycle run, every cycle integrated."""
    return rt.ltp_increments(rt.simulate_cycles(n_segments, params, extras), n_segments)


def test_one_cycle_per_pattern_matches_multi_cycle_run():
    """Over small random experiments, periodic drives and drives whose
    phase moves from cycle to cycle alike, the factors equal the normalized
    increments of the run that integrates every cycle to 1e-12, and a
    schedule is refused exactly when that run has a non-positive increment."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
    @hypothesis.given(
        n_segments=st.integers(1, 12),
        n_neurons=st.integers(1, 3),
        cycle_steps=st.integers(5, 60),
        drive_hz=st.sampled_from([0.0, 1.0, 2.5, 3.3, 5.0, 7.3, 10.0, 13.7]),
        spacing=st.floats(0.5, 3.0),
        scale=st.floats(0.0, 3.0),
        init_stp=st.sampled_from([0.0, 0.05, 0.3]),
        ltp_decay=st.floats(0.0, 0.5),
        tau_ltp=st.floats(2.0, 10.0),
    )
    def check(
        n_segments, n_neurons, cycle_steps, drive_hz, spacing, scale, init_stp, ltp_decay,
        tau_ltp,
    ):
        params = ng.SimParams(ltp_decay=ltp_decay, tau_ltp=tau_ltp)
        extras = dict(
            n_neurons=n_neurons, spacing=spacing, scale=scale,
            cycle_seconds=cycle_steps * params.dt, drive_hz=drive_hz, init_stp=init_stp,
        )
        try:
            increments = oracle_increments(n_segments, params, extras)
        except NumericalOverflowError:
            hypothesis.reject()
        if np.all(increments > 0.0):
            factors = rt.retention_schedule(n_segments, params, extras).factors
            expected = increments / increments.sum()
            assert np.max(np.abs(np.asarray(factors) - expected)) <= 1e-12
        else:
            with pytest.raises(DegenerateScheduleError):
                rt.retention_schedule(n_segments, params, extras)

    check()


@pytest.mark.parametrize(
    "drive_hz,cycle_seconds", [(10.0, 50.0), (3.3, 12.0)], ids=["periodic", "aperiodic"]
)
def test_cycle_simulated_alone_repeats_the_multi_cycle_run(drive_hz, cycle_seconds):
    """The fast variables restart every cycle and ``ltp`` never feeds back,
    so cycle c run alone from step c * spc repeats samples c * spc + 1 ..
    (c + 1) * spc of a 3-cycle run bit for bit, on the same clock."""
    params, extras = RunConfig(drive_hz=drive_hz, cycle_seconds=cycle_seconds).sim_params()
    coupling = ng.coupling_tensor(
        ng.build_geometry(extras["n_neurons"], extras["spacing"]), extras["scale"]
    )
    initial = ng.initial_state(extras["n_neurons"], params, stp=extras["init_stp"])
    drive = ng.DriveSpec(drive_hz)
    full = ng.run_stp_cycles(params, coupling, 3, cycle_seconds, drive, initial=initial)
    spc = ng.steps_per_cycle(cycle_seconds, params.dt)
    for c in (1, 2):
        alone = ng.run_stp_cycles(
            params, coupling, 1, cycle_seconds, drive, initial=initial, first_step=c * spc
        )
        window = slice(c * spc + 1, (c + 1) * spc + 1)
        assert np.array_equal(alone.fac[1:], full.fac[window])
        assert np.array_equal(alone.stp[1:], full.stp[window])
        assert np.array_equal(alone.times, full.times[c * spc : (c + 1) * spc + 1])


@pytest.mark.parametrize(
    "drive_hz,cycle_seconds,cycles,steps",
    [(10.0, 50.0, 1, 1250), (3.3, 12.0, 5, 1500)],
    ids=["periodic", "aperiodic"],
)
def test_derivation_simulates_one_cycle_per_pattern(
    monkeypatch, drive_hz, cycle_seconds, cycles, steps
):
    """At T = 8 the default 10 Hz x 50 s drive repeats every cycle, so one
    simulated cycle of 1,250 Euler steps derives the schedule; a 3.3 Hz
    drive in 12 s cycles shows 5 patterns, so 5 cycles."""
    calls = {"cycles": 0, "steps": 0}
    run_stp_cycles, step = rt.run_stp_cycles, ng.step

    def counting_run(*args, **kwargs):
        calls["cycles"] += 1
        return run_stp_cycles(*args, **kwargs)

    def counting_step(*args, **kwargs):
        calls["steps"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(rt, "run_stp_cycles", counting_run)
    monkeypatch.setattr(ng, "step", counting_step)
    cfg = RunConfig(
        n_segments=8, retention_mode="derived", drive_hz=drive_hz, cycle_seconds=cycle_seconds
    )
    resolve_schedule(cfg)
    assert calls == {"cycles": cycles, "steps": steps}
    first, which = rt.drive_patterns(8, *cfg.sim_params())
    assert len(first) == cycles and which.shape == (8,)
