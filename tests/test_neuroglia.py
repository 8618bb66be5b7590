"""Oracles and invariants for the neuron-astrocyte simulator."""

import numpy as np
import pytest

from astroseq import neuroglia as ng
from astroseq.errors import InvalidArgumentError, NumericalOverflowError


def default_setup(n=3, scale=2.0, **overrides):
    params = ng.SimParams(**overrides)
    coupling = ng.coupling_tensor(ng.build_geometry(n, 1.0), scale)
    return params, coupling


# ---------------------------------------------------------------------------
# the reference Euler step: each variable's update composed on its own, the
# form ``ng.step``'s stacked update must reproduce bit for bit


def reference_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise NumericalOverflowError(name)


def reference_step(state, params, coupling, spikes_in):
    n = state.v.shape[0]
    spikes_in = np.asarray(spikes_in, dtype=np.float64)
    dt = params.dt

    current = state.fac @ (state.spikes / dt) + params.bias
    v_new = state.v + (dt / params.tau_mem) * (
        -params.leak * (state.v - params.v_reset) + current
    )
    crossed = v_new >= params.v_th
    emitted = np.maximum(crossed.astype(np.float64), spikes_in)
    v_new = np.where(emitted > 0, params.v_reset, v_new)

    rate_new = state.rate + (dt / params.tau_mem) * (emitted / dt - state.rate)
    hebb = np.tanh(np.tanh(state.rate))
    astro = np.tanh(state.stp)

    fac_new = state.fac + (dt / params.tau_fac) * (
        -params.fac_decay * state.fac
        + np.outer(hebb, hebb)
        + astro
        + params.fac_input
    )

    influence = (coupling @ astro.ravel()).reshape(n, n)
    stp_new = state.stp + (dt / params.tau_stp) * (
        -params.stp_decay * state.stp + influence + params.stp_input
    )

    ltp_new = state.ltp + (dt / params.tau_ltp) * (
        -params.ltp_decay * state.ltp + (reference_sigmoid(state.fac) - 0.5)
    )

    reference_check_finite("v", v_new)
    reference_check_finite("fac", fac_new)
    reference_check_finite("stp", stp_new)
    reference_check_finite("ltp", ltp_new)

    return ng.SimState(
        v=v_new, fac=fac_new, stp=stp_new, ltp=ltp_new, rate=rate_new, spikes=emitted
    )


STATE_FIELDS = ("v", "fac", "stp", "ltp", "rate", "spikes")


def assert_same_bits(a, b):
    """Equal dtype, shape and bytes, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# geometry and coupling


def test_geometry_positions_and_midpoints():
    d = ng.build_geometry(4, 0.5)
    # neurons sit at 0, 0.5, 1.0, 1.5: synapse (i, i) sits at neuron i
    assert np.allclose(d[0, [0, 5, 10, 15]], [0.0, 0.5, 1.0, 1.5])
    # synapse (0, 0) sits at 0 and synapse (1, 3) at the midpoint 1.0
    assert d[0, 1 * 4 + 3] == pytest.approx(1.0)
    # synapses (i, j) and (j, i) share a midpoint
    for i in range(4):
        for j in range(4):
            assert d[i * 4 + j, j * 4 + i] == 0.0


def test_geometry_distance_matrix_properties():
    d = ng.build_geometry(3, 1.0)
    assert d.shape == (9, 9)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    # row-major indexing: synapse (i, j) lives at i*n + j
    assert d[0 * 3 + 0, 2 * 3 + 2] == pytest.approx(2.0)
    assert d[0 * 3 + 1, 1 * 3 + 0] == pytest.approx(0.0)  # same midpoint


def test_coupling_tensor_range_and_symmetry():
    m = ng.coupling_tensor(ng.build_geometry(4, 1.0), 2.0)
    assert np.all(m > 0) and np.all(m <= 1.0)
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 1.0)


def test_coupling_decays_with_scale():
    d = ng.build_geometry(3, 1.0)
    near = ng.coupling_tensor(d, 0.5)
    far = ng.coupling_tensor(d, 3.0)
    separated = d > 0  # distinct-midpoint pairs only
    assert np.all(far[separated] < near[separated])
    assert np.allclose(far[~separated], 1.0)


def test_geometry_validation():
    with pytest.raises(InvalidArgumentError):
        ng.build_geometry(0)
    with pytest.raises(InvalidArgumentError):
        ng.build_geometry(3, spacing=0.0)
    # 2**14 neurons have 2**28 synapses; one more is refused before numpy
    # is asked for the (n^2, n^2) matrix.
    with pytest.raises(InvalidArgumentError, match="n_neurons"):
        ng.build_geometry(2**14 + 1)
    with pytest.raises(InvalidArgumentError):
        ng.coupling_tensor(ng.build_geometry(2), scale=-1.0)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        ng.SimParams(dt=0.0)
    with pytest.raises(InvalidArgumentError):
        ng.SimParams(dt=0.6)  # not below tau_mem
    with pytest.raises(InvalidArgumentError):
        ng.SimParams(tau_ltp=0.5, tau_stp=1.0)
    with pytest.raises(InvalidArgumentError):
        ng.SimParams(v_th=-1.0, v_reset=-1.0)


def test_drive_spec_regular_spiking():
    drive = ng.DriveSpec(rate_hz=10.0)
    dt = 0.04
    hits = sum(bool(drive.fires(k * dt, dt)) for k in range(int(1.0 / dt)))
    assert hits == 10  # 10 Hz over one second
    starts = np.arange(int(1.0 / dt)) * dt
    assert [bool(drive.fires(t, dt)) for t in starts] == list(drive.fires(starts, dt))
    silent = ng.DriveSpec(rate_hz=0.0)
    assert not silent.fires(starts, dt).any()
    with pytest.raises(InvalidArgumentError):
        ng.DriveSpec(rate_hz=-1.0)


# ---------------------------------------------------------------------------
# single-step dynamics


def test_zero_state_is_fixed_point_without_input():
    """Zero bias, zero drive, reset at zero: all four equations stay at 0."""
    params, coupling = default_setup(v_reset=0.0)
    state = ng.initial_state(3, params)
    for _ in range(50):
        state = ng.step(state, params, coupling, np.zeros(3))
    assert np.allclose(state.v, 0.0)
    assert np.allclose(state.fac, 0.0)
    assert np.allclose(state.stp, 0.0)
    assert np.allclose(state.ltp, 0.0)


def test_threshold_crossing_resets_to_v_reset():
    params, coupling = default_setup(bias=100.0)  # strong constant current
    state = ng.initial_state(3, params)
    spiked = False
    for _ in range(200):
        state = ng.step(state, params, coupling, np.zeros(3))
        assert np.all(state.v <= params.v_th)
        assert np.all(state.v >= params.v_reset)
        if state.spikes.any():
            spiked = True
            assert np.all(state.v[state.spikes > 0] == params.v_reset)
    assert spiked


def test_forced_drive_spikes_reset_and_count():
    params, coupling = default_setup()
    state = ng.initial_state(3, params)
    state = ng.step(state, params, coupling, np.ones(3))
    assert np.all(state.spikes == 1.0)
    assert np.all(state.v == params.v_reset)
    assert np.all(state.rate > 0)


def test_step_matches_hand_rolled_euler_update():
    """One step against an explicit loop transcription of the equations."""
    params, coupling = default_setup()
    rng = np.random.default_rng(5)
    n = 3
    state = ng.SimState(
        v=rng.uniform(-1, 0.5, n),
        fac=rng.uniform(0, 1, (n, n)),
        stp=rng.uniform(0, 1, (n, n)),
        ltp=rng.uniform(0, 1, (n, n)),
        rate=rng.uniform(0, 5, n),
        spikes=(rng.uniform(0, 1, n) > 0.5).astype(float),
    )
    spikes_in = np.zeros(n)
    new = ng.step(state, params, coupling, spikes_in)

    dt = params.dt
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    x = np.tanh(state.rate)
    for i in range(n):
        current = sum(state.fac[i, j] * state.spikes[j] / dt for j in range(n))
        v_exp = state.v[i] + dt / params.tau_mem * (
            -params.leak * (state.v[i] - params.v_reset) + current
        )
        if v_exp >= params.v_th:
            v_exp = params.v_reset
        assert new.v[i] == pytest.approx(v_exp, rel=1e-12)
        for j in range(n):
            fac_exp = state.fac[i, j] + dt / params.tau_fac * (
                -params.fac_decay * state.fac[i, j]
                + np.tanh(x[i]) * np.tanh(x[j])
                + np.tanh(state.stp[i, j])
            )
            assert new.fac[i, j] == pytest.approx(fac_exp, rel=1e-12)
            influence = sum(
                coupling[i * n + j, k * n + l] * np.tanh(state.stp[k, l])
                for k in range(n)
                for l in range(n)
            )
            stp_exp = state.stp[i, j] + dt / params.tau_stp * (
                -params.stp_decay * state.stp[i, j] + influence
            )
            assert new.stp[i, j] == pytest.approx(stp_exp, rel=1e-12)
            ltp_exp = state.ltp[i, j] + dt / params.tau_ltp * (
                -params.ltp_decay * state.ltp[i, j]
                + (sig(state.fac[i, j]) - 0.5)
            )
            assert new.ltp[i, j] == pytest.approx(ltp_exp, rel=1e-12)


def test_non_finite_state_raises_with_variable_name():
    params, coupling = default_setup()
    state = ng.initial_state(3, params)
    state.v[0] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericalOverflowError) as err:
            ng.step(state, params, coupling, np.zeros(3))
    assert err.value.variable == "v"


@pytest.mark.parametrize(
    "field,variable", [("fac", "v"), ("stp", "stp"), ("ltp", "ltp"), ("rate", None)]
)
def test_first_non_finite_variable_is_named(field, variable):
    """The first non-finite variable of v, fac, stp, ltp is named: an
    infinite ``fac`` times silent spikes makes the current NaN, so ``v``
    fails first.  ``rate`` is not checked: an infinite rate leaves a NaN
    rate, which fails ``fac`` one step later."""
    params, coupling = default_setup()
    state = ng.initial_state(3, params)
    getattr(state, field).flat[0] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        if variable is None:
            state = ng.step(state, params, coupling, np.zeros(3))
            assert np.isnan(state.rate[0])
            variable = "fac"
        with pytest.raises(NumericalOverflowError) as err:
            ng.step(state, params, coupling, np.zeros(3))
    assert err.value.variable == variable


def test_step_rejects_mismatched_sizes():
    params, coupling = default_setup()
    state = ng.initial_state(4, params)
    with pytest.raises(InvalidArgumentError):
        ng.step(state, params, coupling, np.zeros(4))
    state3 = ng.initial_state(3, params)
    with pytest.raises(InvalidArgumentError):
        ng.step(state3, params, coupling, np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        ng.step(state3, params, coupling[:8, :8], np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        ng.run_stp_cycles(params, coupling, 1, 1.0, ng.DriveSpec(10.0), initial=state)


# ---------------------------------------------------------------------------
# cycle runs


def test_trace_times_and_boundaries():
    params, coupling = default_setup()
    trace = ng.run_stp_cycles(params, coupling, 3, 2.0, ng.DriveSpec(10.0))
    spc = round(2.0 / params.dt)
    assert len(trace.times) == 3 * spc + 1
    assert trace.cycle_ends == (spc, 2 * spc, 3 * spc)
    diffs = np.diff(trace.times)
    assert np.all(diffs > 0)
    assert np.allclose(diffs, params.dt, atol=1e-9)


def test_cycle_reset_fast_variables_but_not_ltp():
    params, coupling = default_setup()
    trace = ng.run_stp_cycles(params, coupling, 2, 10.0, ng.DriveSpec(10.0))
    end1 = trace.cycle_ends[0]
    # facilitation built up by the end of cycle 1, then restarted near zero
    assert trace.fac[end1].mean() > 0.5
    assert trace.fac[end1 + 1].mean() < 0.2
    # slow level is continuous across the boundary (no reset jump) and the
    # second cycle still adds to it even though facilitation re-warms first
    boundary_step = abs(trace.ltp[end1 + 1].mean() - trace.ltp[end1].mean())
    assert boundary_step < 0.01 * trace.ltp[end1].mean()
    assert trace.ltp[trace.cycle_ends[1]].mean() > trace.ltp[end1].mean()


def test_ltp_monotone_wherever_drive_exceeds_decay():
    """d(ltp)/dt >= 0 exactly when the squashed drive beats the decay term."""
    params, coupling = default_setup()
    trace = ng.run_stp_cycles(params, coupling, 1, 20.0, ng.DriveSpec(10.0))
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    drive_term = sig(trace.fac[:-1]) - 0.5
    decay_term = params.ltp_decay * trace.ltp[:-1]
    rising = drive_term >= decay_term
    deltas = trace.ltp[1:] - trace.ltp[:-1]
    assert np.all(deltas[rising] >= -1e-15)


def test_silent_network_accumulates_nothing():
    params, coupling = default_setup()
    trace = ng.run_stp_cycles(params, coupling, 2, 5.0, ng.DriveSpec(0.0))
    assert np.allclose(trace.ltp[-1], 0.0)
    assert np.allclose(trace.fac[-1], 0.0)


def test_run_is_bitwise_deterministic():
    params, coupling = default_setup()
    a = ng.run_stp_cycles(params, coupling, 2, 5.0, ng.DriveSpec(10.0))
    b = ng.run_stp_cycles(params, coupling, 2, 5.0, ng.DriveSpec(10.0))
    assert np.array_equal(a.ltp, b.ltp)
    assert np.array_equal(a.fac, b.fac)
    assert np.array_equal(a.stp, b.stp)


def test_euler_step_size_consistency():
    """Halving dt moves the final slow level by well under 5 percent."""
    coarse_p, coupling = default_setup()
    fine_p = ng.SimParams(dt=0.02)
    drive = ng.DriveSpec(10.0)
    coarse = ng.run_stp_cycles(coarse_p, coupling, 2, 50.0, drive)
    fine = ng.run_stp_cycles(fine_p, coupling, 2, 50.0, drive)
    a = coarse.ltp[-1].mean()
    b = fine.ltp[-1].mean()
    assert abs(a - b) / abs(b) < 0.05


def test_cycle_duration_must_divide_dt():
    params, coupling = default_setup()
    with pytest.raises(InvalidArgumentError):
        ng.run_stp_cycles(params, coupling, 1, 0.05, ng.DriveSpec(10.0))
    with pytest.raises(InvalidArgumentError):
        ng.run_stp_cycles(params, coupling, 0, 1.0, ng.DriveSpec(10.0))


def test_initial_state_overrides():
    params = ng.SimParams()
    st = ng.initial_state(3, params, stp=0.05)
    assert np.all(st.stp == 0.05)
    assert not st.fac.any() and not st.ltp.any()
    assert np.all(st.v == params.v_reset)
    assert not ng.initial_state(3, params).stp.any()


def test_spatial_modulation_centre_exceeds_corner():
    """With proximity coupling, the central synapse's fast process outgrows
    the corner synapse's when both start from the same uniform level."""
    params = ng.SimParams(bias=0.1)
    coupling = ng.coupling_tensor(ng.build_geometry(5, 1.0), 2.0)
    init = ng.initial_state(5, params, stp=0.05)
    trace = ng.run_stp_cycles(params, coupling, 1, 50.0, ng.DriveSpec(10.0), initial=init)
    centre_peak = trace.stp[:, 2, 2].max()
    corner_peak = trace.stp[:, 0, 0].max()
    assert centre_peak > corner_peak
