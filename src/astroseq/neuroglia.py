"""Neuron-astrocyte dynamical system integrated with forward Euler.

A single population of ``n`` leaky integrate-and-fire neurons sits on a 1-D
line.  Every ordered pair (i, j) carries a facilitating synapse, and every
synapse is watched by an astrocyte process with two timescales: a fast one
(``stp``) that couples synapses by spatial proximity, and a slow one
(``ltp``) that integrates facilitation into a long-term level.  The slow
level is the quantity the retention module turns into per-segment factors.

State variables per step (n neurons, n x n synapses):

* ``v``      membrane potentials, reset on threshold crossing
* ``rate``   exponential moving average of each neuron's spike rate (Hz)
* ``fac``    synaptic facilitation, driven by co-activity of the two
             endpoint neurons plus feedback from the fast astrocyte process
* ``stp``    fast astrocyte process, coupled across synapses through a
             distance-decay tensor
* ``ltp``    slow astrocyte process, integrating a squashed copy of ``fac``

The nonlinearities are fixed.  The rate, Hebbian and astrocyte terms pass
through tanh; the slow process integrates sigmoid(fac) - 1/2, which is 0
at fac = 0, so the all-zero state stays a fixed point; and the synaptic
gain is the identity, so the current is ``fac`` times the spikes.

``rate``, ``fac``, ``stp`` and ``ltp`` are leaky integrators of one form,
x + k (-d x + drive), so ``step`` updates them as one stacked buffer with
per-element k and d (``_Integrators``); each float is the one its own
equation gives.  ``v`` and its threshold are updated on their own.

The spatial coupling is a plain (n^2, n^2) matrix: ``build_geometry``
gives the distances between synapse midpoints and ``coupling_tensor``
their exp(-distance * scale) weights.  The state carries no clock: step k
of an experiment starts at k * dt (``step_times``), so a run that starts
mid-experiment names its first step.

Spikes use delta-function semantics: an emitted spike contributes
``1 / dt`` to the synaptic current for one step, so the injected charge is
independent of the step size.  Spikes emitted at step k (externally driven
or threshold crossings) arrive at the synapses at step k + 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, NumericalOverflowError


def _sigmoid(x):
    """The logistic function, computed without overflow on either side:
    with e = exp(-|x|) <= 1 it is 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere, and exp(min(x, 0)) is exactly 1 and e there."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


@dataclass(frozen=True)
class SimParams:
    """Integration constants; the nonlinearities are fixed (module docstring).

    Defaults are the reference configuration used throughout the tests:
    membrane/facilitation/fast/slow time constants 0.5 / 0.75 / 1 / 6 s,
    decay rates 0.2 / 0.25 / 0.2 / 0.1, thresholds +-1 mV, zero input
    offsets, dt = 40 ms.
    """

    tau_mem: float = 0.5
    tau_fac: float = 0.75
    tau_stp: float = 1.0
    tau_ltp: float = 6.0
    leak: float = 0.2
    fac_decay: float = 0.25
    stp_decay: float = 0.2
    ltp_decay: float = 0.1
    v_th: float = 1.0
    v_reset: float = -1.0
    bias: float = 0.0
    fac_input: float = 0.0
    stp_input: float = 0.0
    dt: float = 0.04

    def __post_init__(self):
        for name in ("tau_mem", "tau_fac", "tau_stp", "tau_ltp", "dt"):
            if getattr(self, name) <= 0:
                raise InvalidArgumentError(f"{name} must be positive")
        for name in ("leak", "fac_decay", "stp_decay", "ltp_decay"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be non-negative")
        if self.dt >= min(self.tau_mem, self.tau_fac, self.tau_stp, self.tau_ltp):
            raise InvalidArgumentError(
                "dt must be smaller than every time constant for a stable Euler step"
            )
        if self.tau_ltp <= self.tau_stp:
            raise InvalidArgumentError(
                "the slow astrocyte timescale must exceed the fast one"
            )
        if self.v_th <= self.v_reset:
            raise InvalidArgumentError("v_th must exceed v_reset")


# The most synapses (n_neurons**2) a network may have.  The (n^2, n^2)
# coupling matrix then has two axes of at most 2**28, as a model array does,
# so numpy can size it, and one too large for memory raises MemoryError when
# it is allocated, which the CLI reports with exit 2.
MAX_SYNAPSES = 2**28


def build_geometry(n_neurons: int, spacing: float = 1.0) -> np.ndarray:
    """The (n^2, n^2) distances between synapse midpoints, with neurons at
    0, spacing, 2*spacing, ...; synapse (i, j) is row-major entry i*n + j."""
    if n_neurons < 1:
        raise InvalidArgumentError("n_neurons must be at least 1")
    if n_neurons * n_neurons > MAX_SYNAPSES:
        raise InvalidArgumentError(
            f"n_neurons = {n_neurons} is too large: a network holds at most "
            f"{MAX_SYNAPSES} synapses (n_neurons**2)"
        )
    if spacing <= 0:
        raise InvalidArgumentError("spacing must be positive")
    positions = np.arange(n_neurons, dtype=np.float64) * spacing
    midpoints = 0.5 * (positions[:, None] + positions[None, :])
    flat = midpoints.ravel()
    return np.abs(flat[:, None] - flat[None, :])


def coupling_tensor(distances: np.ndarray, scale: float) -> np.ndarray:
    """exp(-distance * scale) influence weights between the synapse pairs of
    a ``build_geometry`` distance matrix."""
    if scale < 0:
        raise InvalidArgumentError("coupling scale must be non-negative")
    return np.exp(-distances * scale)


@dataclass(frozen=True)
class DriveSpec:
    """Regular forced spiking applied to every neuron at a fixed rate."""

    rate_hz: float = 10.0

    def __post_init__(self):
        if self.rate_hz < 0:
            raise InvalidArgumentError("drive rate must be non-negative")

    def fires(self, t, dt: float):
        """Whether a forced spike falls in the step covering (t, t + dt].

        ``t`` may be an array of step start times; the answer then has its
        shape.
        """
        eps = 1e-9
        before = np.floor(np.multiply(t, self.rate_hz) + eps)
        after = np.floor(np.multiply(np.add(t, dt), self.rate_hz) + eps)
        return after > before


@dataclass
class SimState:
    v: np.ndarray
    fac: np.ndarray
    stp: np.ndarray
    ltp: np.ndarray
    rate: np.ndarray
    spikes: np.ndarray


def initial_state(n_neurons: int, params: SimParams, stp: float = 0.0) -> SimState:
    """Rest state: v at reset, every fast-plasticity level at ``stp``, and
    everything else zero."""
    return SimState(
        v=np.full(n_neurons, params.v_reset, dtype=np.float64),
        fac=np.zeros((n_neurons, n_neurons)),
        stp=np.full((n_neurons, n_neurons), float(stp)),
        ltp=np.zeros((n_neurons, n_neurons)),
        rate=np.zeros(n_neurons),
        spikes=np.zeros(n_neurons),
    )


class _Integrators:
    """The per-element constants of the four leaky integrators, stacked.

    Each of ``rate``, ``fac``, ``stp`` and ``ltp`` is updated as
    x + k (-d x + drive):

        rate + dt/tau_mem (-rate + emitted / dt)
        fac  + dt/tau_fac (-fac_decay fac + hebb hebb^T + tanh(stp) + fac_input)
        stp  + dt/tau_stp (-stp_decay stp + coupling tanh(stp) + stp_input)
        ltp  + dt/tau_ltp (-ltp_decay ltp + (sigmoid(fac) - 1/2))

    so ``step`` updates them as one flat float64 buffer, in that order, with
    per-element k (``gain``) and -d (``neg_decay``).  The slices name each
    variable's span of the buffer, ``checked`` the span of the finite check
    (every variable but ``rate``) and ``inputs`` the span of ``fac`` and
    ``stp``, whose constant inputs are ``input``.  The arrays are read-only:
    one instance serves every step with the same parameters and size.
    """

    def __init__(self, params: SimParams, n: int):
        n2 = n * n
        self.rate = slice(0, n)
        self.fac = slice(n, n + n2)
        self.stp = slice(n + n2, n + 2 * n2)
        self.ltp = slice(n + 2 * n2, n + 3 * n2)
        self.checked = slice(n, n + 3 * n2)
        self.inputs = slice(n, n + 2 * n2)
        sizes = [n, n2, n2, n2]
        dt = params.dt
        # -1.0 * rate is exactly -rate, so the rate keeps the bits of
        # rate + k (emitted / dt - rate).
        self.neg_decay = np.repeat(
            [-1.0, -params.fac_decay, -params.stp_decay, -params.ltp_decay], sizes
        )
        self.gain = np.repeat(
            [dt / params.tau_mem, dt / params.tau_fac, dt / params.tau_stp, dt / params.tau_ltp],
            sizes,
        )
        self.input = np.repeat([params.fac_input, params.stp_input], n2)
        for constant in (self.neg_decay, self.gain, self.input):
            constant.flags.writeable = False


@functools.lru_cache(maxsize=16)
def _integrators(params: SimParams, n: int) -> _Integrators:
    return _Integrators(params, n)


_CHECKED = ("fac", "stp", "ltp")


def _check_finite(v: np.ndarray, checked: np.ndarray, n: int) -> None:
    """Raise NumericalOverflowError naming the first non-finite variable in
    the order v, fac, stp, ltp; ``checked`` holds the last three flat, in
    that order, n * n values each."""
    if not np.isfinite(v).all():
        raise NumericalOverflowError("v")
    finite = np.isfinite(checked)
    if not finite.all():
        raise NumericalOverflowError(_CHECKED[int(np.argmin(finite)) // (n * n)])


def step(
    state: SimState,
    params: SimParams,
    coupling: np.ndarray,
    spikes_in: np.ndarray,
) -> SimState:
    """One forward-Euler update; all right-hand sides use the old state.

    The new state's arrays are fresh: a state's own arrays are never
    written.  ``v`` is updated on its own; ``rate``, ``fac``, ``stp`` and
    ``ltp`` as one stacked buffer (``_Integrators``).
    """
    n = state.v.shape[0]
    if coupling.shape != (n * n, n * n):
        raise InvalidArgumentError(
            f"coupling has shape {coupling.shape}, a state of {n} neurons needs "
            f"({n * n}, {n * n})"
        )
    spikes_in = np.asarray(spikes_in, dtype=np.float64)
    if spikes_in.shape != (n,):
        raise InvalidArgumentError(f"spikes_in must have shape ({n},)")
    dt = params.dt

    # Membrane update: leak toward reset plus synaptic current from spikes
    # emitted at the previous step (delta semantics, hence the 1/dt).
    current = state.fac @ (state.spikes / dt) + params.bias
    v_new = state.v + (dt / params.tau_mem) * (
        -params.leak * (state.v - params.v_reset) + current
    )
    crossed = v_new >= params.v_th
    emitted = np.maximum(crossed.astype(np.float64), spikes_in)
    v_new = np.where(emitted > 0, params.v_reset, v_new)

    c = _integrators(params, n)
    x = np.concatenate((state.rate, state.fac, state.stp, state.ltp), axis=None)
    new = np.empty(x.size)
    # Each variable's first drive term, written in place.  The rate's is
    # the instantaneous spike rate; tanh squashes the rate to a bounded
    # activity, whose tanh is the Hebbian factor of both the pre- and
    # postsynaptic side of the step.
    np.divide(emitted, dt, out=new[c.rate])
    hebb = np.tanh(np.tanh(state.rate))
    np.multiply(hebb[:, None], hebb, out=new[c.fac].reshape(n, n))
    astro = np.tanh(x[c.stp])
    np.matmul(coupling, astro, out=new[c.stp])
    np.subtract(_sigmoid(x[c.fac]), 0.5, out=new[c.ltp])
    # Then -d x, the later terms of fac and stp in their equations' order,
    # the gain and x.  IEEE addition and multiplication commute, so every
    # float is that of the equation evaluated left to right.
    new += x * c.neg_decay
    new[c.fac] += astro
    new[c.inputs] += c.input
    new *= c.gain
    new += x

    _check_finite(v_new, new[c.checked], n)
    return SimState(
        v=v_new,
        fac=new[c.fac].reshape(n, n),
        stp=new[c.stp].reshape(n, n),
        ltp=new[c.ltp].reshape(n, n),
        rate=new[c.rate],
        spikes=emitted,
    )


@dataclass(frozen=True)
class SimTrace:
    """Recorded state snapshots, one per step plus the initial sample.

    ``cycle_ends[k]`` is the sample index where cycle k + 1 finished; the
    fast variables were reset immediately after that sample.
    """

    times: np.ndarray
    fac: np.ndarray
    stp: np.ndarray
    ltp: np.ndarray
    cycle_ends: tuple[int, ...]


# Step k of an experiment starts at k * dt, computed from k, which a float64
# holds exactly only up to 2**53; a run that would pass it is refused before
# anything is allocated for it.
MAX_STEPS = 2**53


def steps_per_cycle(cycle_duration: float, dt: float) -> int:
    ratio = cycle_duration / dt
    if not ratio <= MAX_STEPS:
        raise InvalidArgumentError(f"a cycle of {cycle_duration} s is over 2**53 steps of dt {dt}")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise InvalidArgumentError(
            f"cycle duration {cycle_duration} is not a positive multiple of dt {dt}"
        )
    return n


def step_times(first_step: int, n_steps: int, dt: float) -> np.ndarray:
    """Start times of steps ``first_step`` .. ``first_step + n_steps - 1``:
    step k starts at k * dt, computed from k rather than accumulated, so a
    drive keeps its phase over any number of steps."""
    if first_step + n_steps > MAX_STEPS:
        raise InvalidArgumentError(f"the run passes step 2**53 of dt {dt}: too many cycles")
    return (first_step + np.arange(n_steps)) * dt


def run_stp_cycles(
    params: SimParams,
    coupling: np.ndarray,
    n_cycles: int,
    cycle_duration: float,
    drive: DriveSpec,
    initial: SimState | None = None,
    first_step: int = 0,
) -> SimTrace:
    """Integrate repeated stimulation cycles from step ``first_step`` of
    the experiment; step k of the run starts at ``(first_step + k) * dt``.

    At each cycle boundary the fast variables (v, rate, spikes, fac, stp)
    are reset to their initial values; the slow ltp level persists, which
    is what lets it accumulate across cycles.  The default initial state
    is the rest state of the ``coupling``'s (n^2, n^2) network.
    """
    if n_cycles < 1:
        raise InvalidArgumentError("n_cycles must be at least 1")
    spc = steps_per_cycle(cycle_duration, params.dt)
    if initial is None:
        initial = initial_state(math.isqrt(coupling.shape[0]), params)
    n = initial.v.shape[0]
    state = initial

    n_samples = n_cycles * spc + 1
    times = step_times(first_step, n_samples, params.dt)
    fired = drive.fires(times[:-1], params.dt)
    fac = np.empty((n_samples, n, n))
    stp = np.empty((n_samples, n, n))
    ltp = np.empty((n_samples, n, n))

    def record(k: int, s: SimState) -> None:
        fac[k] = s.fac
        stp[k] = s.stp
        ltp[k] = s.ltp

    record(0, state)
    silent, driven = np.zeros(n), np.ones(n)
    k = 0
    for cycle in range(n_cycles):
        if cycle > 0:
            # ``step`` never writes into a state's arrays, so the fast
            # variables can restart from ``initial``'s own arrays.
            state = replace(initial, ltp=state.ltp)
        for _ in range(spc):
            state = step(state, params, coupling, driven if fired[k] else silent)
            k += 1
            record(k, state)

    cycle_ends = tuple((c + 1) * spc for c in range(n_cycles))
    return SimTrace(times=times, fac=fac, stp=stp, ltp=ltp, cycle_ends=cycle_ends)
