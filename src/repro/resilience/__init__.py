"""Resilient execution runtime: governors, checkpoints, chaos.

Three pieces, one goal -- faults degrade instead of crash:

* :mod:`~repro.resilience.budget` -- the unified :class:`Budget`
  governor (fuel + heap cells + stack depth) threaded through all three
  machines, replacing the old per-machine fuel parameters.
* :mod:`~repro.resilience.checkpoint` -- picklable, content-hashed
  :class:`MachineSnapshot` so a run can suspend at a fuel epoch and
  resume elsewhere (another process, another serve worker).
* :mod:`~repro.resilience.chaos` -- a seeded :class:`FaultPlane`
  injecting deterministic faults at named seams, so every one of the
  degradation paths is exercised by tests and ``funtal chaos``.
"""

from repro.resilience.budget import (
    Budget, DEFAULT_BUDGET, DEFAULT_DEPTH, DEFAULT_FUEL, DEFAULT_HEAP,
)
from repro.resilience.chaos import SEAMS, FaultPlane, active_plane, probe
from repro.resilience.checkpoint import MachineSnapshot

__all__ = [
    "Budget", "DEFAULT_BUDGET", "DEFAULT_FUEL", "DEFAULT_HEAP",
    "DEFAULT_DEPTH",
    "FaultPlane", "SEAMS", "probe", "active_plane",
    "MachineSnapshot",
]
