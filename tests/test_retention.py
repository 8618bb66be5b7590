"""Schedule derivation: increments, normalization, monotonicity, degeneracy, digests."""

import numpy as np
import pytest

from astroseq import neuroglia as ng
from astroseq import retention as rt
from astroseq.errors import DegenerateScheduleError, InvalidArgumentError


def derive(n_segments, cycle_seconds=10.0, **param_overrides):
    params = ng.SimParams(**param_overrides)
    geometry = ng.build_geometry(3, 1.0)
    return rt.retention_schedule(
        n_segments,
        params,
        ng.DriveSpec(10.0),
        geometry,
        scale=2.0,
        cycle_duration=cycle_seconds,
        init_stp=0.0,
    )


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
        params = ng.SimParams()
        rt.retention_schedule(
            2,
            params,
            ng.DriveSpec(0.0),
            ng.build_geometry(3, 1.0),
            scale=2.0,
            cycle_duration=5.0,
            init_stp=0.0,
        )


def test_derivation_is_byte_for_byte_reproducible():
    a, b = derive(3), derive(3)
    assert a == b


def test_digest_separates_distinct_macros():
    geometry = ng.build_geometry(3, 1.0)
    base = rt.macro_digest(2, ng.SimParams(), ng.DriveSpec(10.0), geometry, 2.0, 10.0, 0.0)
    other_rate = rt.macro_digest(2, ng.SimParams(), ng.DriveSpec(5.0), geometry, 2.0, 10.0, 0.0)
    other_t = rt.macro_digest(4, ng.SimParams(), ng.DriveSpec(10.0), geometry, 2.0, 10.0, 0.0)
    assert base != other_rate and base != other_t
