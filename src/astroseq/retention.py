"""Retention schedules derived from the slow astrocyte trace.

One stimulation cycle of the dynamical system stands in for one segment of
the sequence model.  The mean slow-process level at consecutive cycle
boundaries gives per-cycle increments; normalizing the increments to sum
to one yields the per-segment retention factors.  Because the slow level
saturates, the increments shrink with every cycle, so early segments
receive the largest factors.

The simulated experiment has one description: the ``(params, extras)``
pair of ``RunConfig.sim_params``, where ``params`` holds the ``SimParams``
constants and ``extras`` the six experiment keys ``n_neurons``,
``spacing``, ``scale``, ``cycle_seconds``, ``drive_hz`` and ``init_stp``.
``simulate`` and derived schedules both take that pair as it is, so
training, evaluation and ``simulate`` see the same system and the same
initial state.

Schedules are plain data: factors plus a provenance record that holds the
experiment keys and a digest of everything that determines the factors.
They are derived afresh by every run that asks for one.
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
    SimTrace,
    build_geometry,
    coupling_tensor,
    initial_state,
    run_stp_cycles,
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
        factors=tuple(1.0 for _ in range(n_segments)),
        source={"kind": "uniform"},
    )


def ltp_increments(trace: SimTrace, n_segments: int) -> np.ndarray:
    """Mean slow-level gain of each of the first n_segments cycles.

    Uses the synapse-averaged level at cycle boundaries; the trace must
    cover at least n_segments full cycles.
    """
    if n_segments < 1:
        raise InvalidArgumentError("n_segments must be at least 1")
    if len(trace.cycle_ends) < n_segments:
        raise InvalidArgumentError(
            f"trace has {len(trace.cycle_ends)} cycles, need {n_segments}"
        )
    boundary_means = [float(trace.ltp[0].mean())]
    for k in range(n_segments):
        boundary_means.append(float(trace.ltp[trace.cycle_ends[k]].mean()))
    return np.diff(np.asarray(boundary_means))


def simulate_cycles(n_cycles: int, params: SimParams, extras: dict) -> SimTrace:
    """Integrate n_cycles stimulation cycles of the experiment ``extras``
    describes, as ``RunConfig.sim_params`` returns it with ``params``.

    The neurons sit ``spacing`` apart, synapses couple with
    exp(-distance * ``scale``), every neuron is driven at ``drive_hz``, and
    each cycle lasts ``cycle_seconds``.  The system starts from rest with
    every fast-plasticity level at ``init_stp``, and is reset there each cycle.
    """
    geometry = build_geometry(extras["n_neurons"], extras["spacing"])
    coupling = coupling_tensor(geometry, extras["scale"])
    initial = initial_state(extras["n_neurons"], params, stp=extras["init_stp"])
    drive = DriveSpec(rate_hz=extras["drive_hz"])
    return run_stp_cycles(
        params, coupling, n_cycles, extras["cycle_seconds"], drive, initial=initial
    )


def retention_schedule(n_segments: int, params: SimParams, extras: dict) -> RetentionSchedule:
    """Simulate n_segments cycles of the experiment and normalize the
    slow-level increments.

    ``source`` records the experiment keys as given, ``dt``, and the sha256
    of every input: ``n_segments``, all ``SimParams`` fields and ``extras``.
    """
    trace = simulate_cycles(n_segments, params, extras)
    increments = ltp_increments(trace, n_segments)
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
            **extras,
        },
    )
