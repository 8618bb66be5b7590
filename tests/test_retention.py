"""Schedule derivation: increments, normalization, monotonicity, degeneracy, digests."""

import dataclasses

import numpy as np
import pytest

from astroseq import neuroglia as ng
from astroseq import retention as rt
from astroseq.config import SIM_EXTRA_KEYS, RunConfig
from astroseq.errors import DegenerateScheduleError, InvalidArgumentError
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


def _changed(value):
    """A different value of a SimParams field that keeps the parameters
    valid: another activation, or a shifted constant."""
    if isinstance(value, str):
        return next(name for name in sorted(ng.ACTIVATIONS) if name != value)
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


def test_source_records_the_experiment_as_given(tmp_path):
    """``source`` holds kind, digest, dt and all six experiment keys; a
    simulator file's values replace the config's."""
    keys = {"kind", "digest", "dt", *SIM_EXTRA_KEYS}
    cfg = RunConfig(
        n_segments=2, retention_mode="derived", n_neurons=2, cycle_seconds=4.0, spacing=1.5
    )
    source = resolve_schedule(cfg).source
    assert set(source) == keys
    assert source["kind"] == "derived"
    assert source["spacing"] == 1.5
    assert source["dt"] == ng.SimParams().dt
    sim_file = tmp_path / "sim.params"
    sim_file.write_text("dt = 0.02\nspacing = 2.5\n")
    source = resolve_schedule(dataclasses.replace(cfg, sim_params_file=str(sim_file))).source
    assert set(source) == keys
    assert (source["spacing"], source["dt"]) == (2.5, 0.02)
    assert (source["n_neurons"], source["cycle_seconds"]) == (2, 4.0)
