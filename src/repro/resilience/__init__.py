"""Resilient execution runtime: governors, checkpoints, chaos, safety net.

Four pieces, one goal -- faults degrade instead of crash:

* :mod:`~repro.resilience.budget` -- the unified :class:`Budget`
  governor (fuel + heap cells + stack depth) threaded through all three
  machines, replacing the old per-machine fuel parameters.
* :mod:`~repro.resilience.checkpoint` -- picklable, content-hashed
  :class:`MachineSnapshot` so a run can suspend at a fuel epoch and
  resume elsewhere (another process, another serve worker).
* :mod:`~repro.resilience.safety_net` -- a differential guard around the
  JIT: any fault in jitted code falls back to the interpreter and
  quarantines the offending lambda in a circuit breaker.
* :mod:`~repro.resilience.chaos` -- a seeded :class:`FaultPlane`
  injecting deterministic faults at named seams, so every one of the
  degradation paths above is exercised by tests and ``funtal chaos``.

``safety_net`` is exported lazily: it imports :mod:`repro.compile`,
which itself probes :mod:`repro.resilience.chaos`, so an eager re-export
here would close an import cycle through this package ``__init__``.
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
    "Quarantine", "QUARANTINE", "SafetyNetReport",
    "jit_rewrite_guarded", "run_guarded",
]

_LAZY = {"Quarantine", "QUARANTINE", "SafetyNetReport",
         "jit_rewrite_guarded", "run_guarded"}


def __getattr__(name):
    if name in _LAZY:
        from repro.resilience import safety_net
        return getattr(safety_net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
