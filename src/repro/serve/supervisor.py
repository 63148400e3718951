"""Supervision policy for the serve fleet.

The :class:`~repro.serve.pool.WorkerPool` mechanism (pipes, selectors,
respawns) stays in :mod:`repro.serve.pool`; this module holds the
*policy* objects the pool consults, each independently testable:

* :class:`SupervisorConfig` -- every knob in one dataclass: heartbeat
  cadence and miss budget for hung-worker detection, per-slot restart
  budgets, the per-kind circuit breaker, digest quarantine, and the
  shed policy of the bounded queue.
* :class:`CircuitBreaker` -- counts worker-fatal attempts per job
  *kind* inside a sliding window; past the threshold the kind's
  breaker opens for a cooldown and admission control refuses new work
  of that kind instead of feeding it to workers.
* :class:`DigestQuarantine` -- job digests that exhausted their retry
  budget fatally (crash/hang) are quarantined, so a poison job cannot
  keep killing workers via resubmission.
* :class:`RestartTracker` -- per-worker-slot respawn budget: a slot
  that keeps dying respawns with exponential backoff plus jitter
  instead of hot-looping fork/exec.

``job_fault_key`` is deliberately *not* the result-cache key: the
cache key drops non-semantic options (``inject_crash`` among them),
but for blame purposes two submissions that differ only in a fault
injection flag are different jobs -- quarantining the faulty one must
not condemn its clean twin.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["SupervisorConfig", "CircuitBreaker", "DigestQuarantine",
           "RestartTracker", "job_fault_key"]


def job_fault_key(job) -> str:
    """Content address of a job *for blame purposes*: SHA-256 over the
    canonical full wire dict (fault-injection options included, trace
    context and id excluded)."""
    wire = job.to_dict()
    wire.pop("id", None)
    wire.pop("trace_ctx", None)
    blob = json.dumps(wire, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SupervisorConfig:
    """Fleet supervision knobs, with production-ish defaults.

    The breaker defaults to *disabled* (``breaker_threshold=0``):
    opening it is an explicit operational choice (the serve drill and
    the chaos tests enable it), because a breaker that trips during a
    normal burst of poison jobs would refuse unrelated work.
    """

    #: Seconds between heartbeat pings to each worker; ``0`` disables
    #: hung-worker detection entirely.
    heartbeat_interval: float = 1.0
    #: Silent intervals tolerated before a worker is declared hung.
    heartbeat_misses: int = 4
    #: Respawns one slot may consume inside ``restart_window`` seconds
    #: before its respawns start backing off.
    restart_budget: int = 5
    restart_window: float = 30.0
    #: Base backoff once over budget; doubles per excess respawn.
    restart_backoff: float = 0.5
    restart_backoff_max: float = 10.0
    #: Worker-fatal attempts of one kind inside ``breaker_window``
    #: seconds that open its breaker; ``0`` disables the breaker.
    breaker_threshold: int = 0
    breaker_window: float = 30.0
    #: Seconds an open breaker refuses the kind before half-opening.
    breaker_cooldown: float = 5.0
    #: Put job digests whose retry budget died fatally in quarantine.
    quarantine_fatal: bool = True
    #: Bounded-queue policy: ``"reject"`` (block or raise QueueFull) or
    #: ``"shed-oldest"`` (evict the oldest pending job as ``overloaded``
    #: to admit the new one).
    shed_policy: str = "reject"

    def __post_init__(self) -> None:
        if self.shed_policy not in ("reject", "shed-oldest"):
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r} "
                f"(expected 'reject' or 'shed-oldest')")


class CircuitBreaker:
    """Per-job-kind circuit breaker over worker-fatal attempts.

    ``record_fatal(kind)`` notes one crash/hang attempt; once a kind
    accumulates ``threshold`` of them inside ``window`` seconds its
    breaker opens for ``cooldown`` seconds.  While open, ``is_open``
    is true and admission control sheds the kind.  A
    successful result (``record_ok``) closes the breaker and clears
    the kind's history -- the classic half-open probe: the first job
    admitted after the cooldown decides whether it reopens.
    """

    def __init__(self, threshold: int = 0, window: float = 30.0,
                 cooldown: float = 5.0):
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self.opened = 0     # times any kind's breaker tripped (stats)
        self._fatal: Dict[str, collections.deque] = {}
        self._open_until: Dict[str, float] = {}

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def record_fatal(self, kind: str,
                     now: Optional[float] = None) -> bool:
        """Note one worker-fatal attempt; True if this one opened the
        breaker."""
        if not self.enabled:
            return False
        now = time.monotonic() if now is None else now
        recent = self._fatal.setdefault(kind, collections.deque())
        recent.append(now)
        while recent and recent[0] < now - self.window:
            recent.popleft()
        if len(recent) >= self.threshold \
                and self._open_until.get(kind, 0.0) <= now:
            self._open_until[kind] = now + self.cooldown
            self.opened += 1
            return True
        return False

    def record_ok(self, kind: str) -> None:
        """A job of ``kind`` completed normally: close and forgive."""
        self._fatal.pop(kind, None)
        self._open_until.pop(kind, None)

    def is_open(self, kind: str, now: Optional[float] = None) -> bool:
        until = self._open_until.get(kind)
        if until is None:
            return False
        now = time.monotonic() if now is None else now
        if now >= until:
            # Cooldown over: half-open.  Leave the fatal history in
            # place so the next fatal re-opens immediately.
            self._open_until.pop(kind, None)
            return False
        return True

    def retry_after_ms(self, kind: str,
                       now: Optional[float] = None) -> int:
        until = self._open_until.get(kind)
        if until is None:
            return 0
        now = time.monotonic() if now is None else now
        return max(0, int((until - now) * 1000))

    def snapshot(self) -> Dict[str, object]:
        now = time.monotonic()
        return {
            "enabled": self.enabled,
            "threshold": self.threshold,
            "opened_total": self.opened,
            "open": sorted(k for k in list(self._open_until)
                           if self.is_open(k, now)),
        }


class DigestQuarantine:
    """Job digests barred from dispatch, with the reason each earned it."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._reasons: Dict[str, str] = {}

    def add(self, key: str, reason: str) -> None:
        if self.enabled:
            self._reasons.setdefault(key, reason)

    def __contains__(self, key: str) -> bool:
        return self.enabled and key in self._reasons

    def __len__(self) -> int:
        return len(self._reasons)

    def reason(self, key: str) -> str:
        return self._reasons.get(key, "")

    def clear(self) -> None:
        self._reasons.clear()

    def snapshot(self) -> Dict[str, object]:
        return {"enabled": self.enabled, "entries": len(self._reasons)}


class RestartTracker:
    """Per-worker-slot respawn budget with exponential backoff + jitter.

    ``delay(wid)`` records one respawn need for slot ``wid`` and
    returns how long the pool should wait before actually respawning:
    ``0.0`` while the slot is inside its budget, then
    ``backoff * 2**excess`` (jittered, capped) once it keeps dying --
    a crash-looping slot must not turn the manager thread into a
    fork bomb.
    """

    def __init__(self, budget: int = 5, window: float = 30.0,
                 backoff: float = 0.5, backoff_max: float = 10.0,
                 seed: Optional[int] = None):
        self.budget = max(1, budget)
        self.window = window
        self.backoff = backoff
        self.backoff_max = backoff_max
        self._rng = random.Random(seed)
        self._history: Dict[int, collections.deque] = {}
        self.delayed = 0    # respawns that had to back off (stats)

    def delay(self, wid: int, now: Optional[float] = None) -> float:
        now = time.monotonic() if now is None else now
        recent = self._history.setdefault(wid, collections.deque())
        while recent and recent[0] < now - self.window:
            recent.popleft()
        recent.append(now)
        excess = len(recent) - self.budget
        if excess <= 0:
            return 0.0
        self.delayed += 1
        base = min(self.backoff * (2 ** (excess - 1)), self.backoff_max)
        # Full jitter on top of the base keeps simultaneously-dying
        # slots from thundering back in lockstep.
        return min(base + self._rng.uniform(0, self.backoff),
                   self.backoff_max)

    def snapshot(self) -> Dict[str, object]:
        return {"budget": self.budget, "delayed_total": self.delayed}
