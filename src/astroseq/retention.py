"""Retention schedules derived from the slow astrocyte trace.

One stimulation cycle of the dynamical system stands in for one segment of
the sequence model.  The mean slow-process level at consecutive cycle
boundaries gives per-cycle increments; normalizing the increments to sum
to one yields the per-segment retention factors.  Because the slow level
saturates, the increments shrink with every cycle, so early segments
receive the largest factors.

Schedules are plain data: factors plus a provenance record whose digest
hashes everything that determines them.  They are derived afresh by every
run that asks for one, so training, evaluation and ``simulate`` always see
the same dynamical system.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScheduleError, InvalidArgumentError
from .neuroglia import (
    DriveSpec,
    SimParams,
    SimTrace,
    SynapseGeometry,
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


def macro_digest(
    n_segments: int,
    params: SimParams,
    drive: DriveSpec,
    geometry: SynapseGeometry,
    scale: float,
    cycle_duration: float,
    init_stp: float,
) -> str:
    """Stable hash of everything that determines a derived schedule."""
    payload = {
        "n_segments": n_segments,
        "params": {k: getattr(params, k) for k in sorted(params.__dataclass_fields__)},
        "drive_hz": drive.rate_hz,
        "positions": list(map(float, geometry.positions)),
        "scale": scale,
        "cycle_duration": cycle_duration,
        "init_stp": init_stp,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def simulate_cycles(
    n_cycles: int,
    params: SimParams,
    drive: DriveSpec,
    geometry: SynapseGeometry,
    scale: float,
    cycle_duration: float,
    init_stp: float,
) -> SimTrace:
    """Integrate n_cycles stimulation cycles from rest, with every
    fast-plasticity level starting (and reset each cycle) at ``init_stp``."""
    coupling = coupling_tensor(geometry, scale)
    initial = initial_state(geometry.n_neurons, params, stp=init_stp)
    return run_stp_cycles(params, coupling, n_cycles, cycle_duration, drive, initial=initial)


def retention_schedule(
    n_segments: int,
    params: SimParams,
    drive: DriveSpec,
    geometry: SynapseGeometry,
    scale: float,
    cycle_duration: float,
    init_stp: float,
) -> RetentionSchedule:
    """Run n_segments stimulation cycles and normalize the level increments."""
    trace = simulate_cycles(
        n_segments, params, drive, geometry, scale, cycle_duration, init_stp
    )
    increments = ltp_increments(trace, n_segments)
    total = float(increments.sum())
    if not np.isfinite(total) or total <= 0.0 or np.any(increments <= 0.0):
        raise DegenerateScheduleError(
            "slow-level increments are not strictly positive; "
            "the drive configuration produced no usable retention signal"
        )
    factors = increments / total
    return RetentionSchedule(
        n_segments=n_segments,
        factors=tuple(float(f) for f in factors),
        source={
            "kind": "derived",
            "digest": macro_digest(
                n_segments, params, drive, geometry, scale, cycle_duration, init_stp
            ),
            "n_neurons": geometry.n_neurons,
            "cycle_seconds": cycle_duration,
            "dt": params.dt,
            "drive_hz": drive.rate_hz,
            "scale": scale,
            "init_stp": init_stp,
        },
    )
