"""Retention schedules derived from the slow astrocyte trace.

One stimulation cycle of the dynamical system stands in for one segment of
the sequence model.  The mean slow-process level at consecutive cycle
boundaries gives per-cycle increments; normalizing the increments to sum
to one yields the per-segment retention factors.

The slow level ``ltp`` is linear in itself and never feeds back into the
fast variables, which restart every cycle.  So the mean level at the end
of cycle c is L_c = A L_{c-1} + B_c, where A = (1 - dt ltp_decay /
tau_ltp) ** steps_per_cycle is the slow decay over one cycle and the gain
B_c depends only on the cycle's drive pattern: the steps of the cycle in
which the forced drive fires.  A schedule therefore simulates one cycle
per distinct pattern, whatever the number of segments.

When the drive repeats every cycle (``cycle_seconds * drive_hz`` whole,
as in the default 10 Hz x 50 s experiment) there is one pattern, B
cancels in the normalization, and the factors are geometric: f_t is
proportional to A ** (t - 1), with A = 0.4345 on the default experiment,
so early segments receive the largest factors.  The factors then move
only with ``cycle_seconds`` and the ``SimParams`` ``dt``, ``ltp_decay``
and ``tau_ltp``.  A drive that does not repeat every cycle gives several
patterns, and the ratios of their gains, which the network settings and
``drive_hz`` shape, move the factors too.

The multi-cycle run (``simulate_cycles``, and ``ltp_increments`` on its
trace) integrates every cycle; it serves ``simulate`` and is the reference
the tests hold the schedule to.

The simulated experiment has one description: the ``(params, extras)``
pair of ``RunConfig.sim_params``, where ``params`` holds the ``SimParams``
constants and ``extras`` the six experiment keys ``n_neurons``,
``spacing``, ``scale``, ``cycle_seconds``, ``drive_hz`` and ``init_stp``.
``simulate`` and derived schedules both take that pair as it is, so
training, evaluation and ``simulate`` see the same system and the same
initial state.

Schedules are plain data: factors plus a provenance record that holds A,
the pattern gains, the experiment keys and a digest of everything that
determines the factors.  They are derived afresh by every run that asks
for one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateScheduleError, InvalidArgumentError
from .neuroglia import (
    DriveSpec,
    SimParams,
    SimState,
    SimTrace,
    build_geometry,
    check_neurons,
    check_scale,
    check_spacing,
    coupling_tensor,
    initial_state,
    run_stp_cycles,
    step_times,
    steps_per_cycle,
)

SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RetentionSchedule:
    """Per-segment memory scaling factors.

    Derived schedules have strictly positive factors summing to one; the
    uniform ablation keeps every factor at exactly 1.0 (memory passes
    through unscaled).  ``source`` records where the factors came from.
    """

    n_segments: int
    factors: tuple[float, ...]
    source: dict

    def __post_init__(self):
        if self.n_segments < 1:
            raise InvalidArgumentError("n_segments must be at least 1")
        if len(self.factors) != self.n_segments:
            raise InvalidArgumentError(
                f"{len(self.factors)} factors for {self.n_segments} segments"
            )
        arr = np.asarray(self.factors, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("factors must be finite")
        if np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise InvalidArgumentError("factors must lie in (0, 1]")
        if self.source.get("kind") == "derived":
            if abs(arr.sum() - 1.0) > SUM_TOLERANCE:
                raise InvalidArgumentError(
                    f"derived factors must sum to 1 (got {arr.sum()!r})"
                )

    def factor(self, t: int) -> float:
        """Factor for 1-based segment index t."""
        if not (1 <= t <= self.n_segments):
            raise InvalidArgumentError(
                f"segment index {t} outside 1..{self.n_segments}"
            )
        return self.factors[t - 1]


def uniform_schedule(n_segments: int) -> RetentionSchedule:
    """Ablation schedule: every factor exactly 1.0, memory unscaled."""
    return RetentionSchedule(
        n_segments=n_segments,
        factors=(1.0,) * n_segments,
        source={"kind": "uniform"},
    )


def ltp_levels(trace: SimTrace) -> list[float]:
    """Synapse-mean slow level at the trace's first sample and at each of
    its cycle ends."""
    return [float(trace.ltp[i].mean()) for i in (0, *trace.cycle_ends)]


def ltp_increments(trace: SimTrace, n_segments: int) -> np.ndarray:
    """Mean slow-level gain of each of the first n_segments cycles: the
    differences of ``ltp_levels``.  The trace must cover at least
    n_segments full cycles.
    """
    if n_segments < 1:
        raise InvalidArgumentError("n_segments must be at least 1")
    if len(trace.cycle_ends) < n_segments:
        raise InvalidArgumentError(
            f"trace has {len(trace.cycle_ends)} cycles, need {n_segments}"
        )
    return np.diff(ltp_levels(trace)[: n_segments + 1])


def check_experiment(params: SimParams, extras: dict) -> None:
    """Refuse, naming its ``[retention]`` key, an experiment key that
    ``simulate_cycles`` or ``retention_schedule`` would refuse, without
    building anything for it.  ``init_stp`` takes any finite level."""
    checks = {
        "n_neurons": check_neurons,
        "spacing": check_spacing,
        "scale": check_scale,
        "drive_hz": DriveSpec,
        "cycle_seconds": lambda seconds: steps_per_cycle(seconds, params.dt),
    }
    for key, check in checks.items():
        try:
            check(extras[key])
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"[retention] {key}: {exc}") from exc


def _experiment(params: SimParams, extras: dict) -> tuple[np.ndarray, SimState, DriveSpec]:
    """The coupling matrix, initial state and drive of the experiment
    ``extras`` describes: neurons ``spacing`` apart, synapses coupled with
    exp(-distance * ``scale``), every fast-plasticity level at ``init_stp``,
    and every neuron driven at ``drive_hz``."""
    distances = build_geometry(extras["n_neurons"], extras["spacing"])
    coupling = coupling_tensor(distances, extras["scale"])
    initial = initial_state(extras["n_neurons"], params, stp=extras["init_stp"])
    return coupling, initial, DriveSpec(rate_hz=extras["drive_hz"])


def simulate_cycles(n_cycles: int, params: SimParams, extras: dict) -> SimTrace:
    """Integrate n_cycles stimulation cycles of the experiment ``extras``
    describes, as ``RunConfig.sim_params`` returns it with ``params``.

    Each cycle lasts ``cycle_seconds``; the system starts from rest and its
    fast variables are reset there each cycle.
    """
    coupling, initial, drive = _experiment(params, extras)
    return run_stp_cycles(
        params, coupling, n_cycles, extras["cycle_seconds"], drive, initial=initial
    )


def drive_patterns(
    n_segments: int, params: SimParams, extras: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Group the first n_segments cycles by their drive pattern, the steps
    of the cycle in which the drive fires.

    Returns ``(first, which)``: ``first[p]`` is the first cycle with pattern
    p and ``which[c]`` is the pattern of cycle c.  The steps are timed by
    ``step_times``, as in ``run_stp_cycles``.
    """
    if n_segments < 1:
        raise InvalidArgumentError("n_segments must be at least 1")
    spc = steps_per_cycle(extras["cycle_seconds"], params.dt)
    drive = DriveSpec(rate_hz=extras["drive_hz"])
    fired = drive.fires(step_times(0, n_segments * spc, params.dt), params.dt)
    return unique_rows(fired.reshape(n_segments, spc))


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)``'s
    ``(first, which)`` for a boolean matrix, the inverse flat, keyed by each
    row's bytes: bytes order as numpy orders boolean rows, lexicographically
    with False first, so the distinct rows keep ``np.unique``'s order."""
    keys = [row.tobytes() for row in rows]
    first_of: dict[bytes, int] = {}
    for index, key in enumerate(keys):
        first_of.setdefault(key, index)
    order = sorted(first_of)
    rank = {key: p for p, key in enumerate(order)}
    first = np.array([first_of[key] for key in order], dtype=np.intp)
    which = np.array([rank[key] for key in keys], dtype=np.intp)
    return first, which


def retention_schedule(n_segments: int, params: SimParams, extras: dict) -> RetentionSchedule:
    """Normalize the slow-level increments of n_segments cycles of the
    experiment.

    Each drive pattern's gain B is the mean ``ltp`` at the end of one
    cycle simulated from ``ltp = 0``, starting at the first step of the
    first cycle with that pattern; the levels then follow
    L_c = A L_{c-1} + B_c.

    ``source`` records what determines the factors: the slow decay A
    (``decay``), the number of drive patterns (``patterns``) and each
    pattern's gain B in ``drive_patterns`` order (``gains``); and the inputs
    they came from: the experiment keys as given, ``dt``, and the sha256 of
    ``n_segments``, all ``SimParams`` fields and ``extras``.
    """
    first, which = drive_patterns(n_segments, params, extras)
    coupling, initial, drive = _experiment(params, extras)
    spc = steps_per_cycle(extras["cycle_seconds"], params.dt)
    gains = []
    for cycle in first:
        trace = run_stp_cycles(
            params, coupling, 1, extras["cycle_seconds"], drive,
            initial=initial, first_step=int(cycle) * spc,
        )
        gains.append(float(trace.ltp[-1].mean()))
    decay = (1.0 - params.dt / params.tau_ltp * params.ltp_decay) ** spc
    levels = [0.0]
    for p in which:
        levels.append(decay * levels[-1] + gains[p])
    increments = np.diff(np.asarray(levels))
    total = float(increments.sum())
    if not np.isfinite(total) or total <= 0.0 or np.any(increments <= 0.0):
        raise DegenerateScheduleError(
            "slow-level increments are not strictly positive; "
            "the drive configuration produced no usable retention signal"
        )
    blob = json.dumps(
        {"n_segments": n_segments, "params": asdict(params), **extras}, sort_keys=True
    )
    return RetentionSchedule(
        n_segments=n_segments,
        factors=tuple(float(f) for f in increments / total),
        source={
            "kind": "derived",
            "digest": hashlib.sha256(blob.encode()).hexdigest(),
            "dt": params.dt,
            "decay": decay,
            "gains": gains,
            "patterns": len(gains),
            **extras,
        },
    )
