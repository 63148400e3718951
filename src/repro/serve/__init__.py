"""``repro.serve`` -- a concurrent, fault-isolated FunTAL evaluation service.

The paper shipped as an interactive artifact: an in-browser typechecker
and machine stepper.  Its natural production shape is therefore a
*service* that accepts programs and returns typing / evaluation results.
This package is that service, built from four layers:

* :mod:`repro.serve.protocol` -- typed :class:`Job` / :class:`JobResult`
  dataclasses and the JSON-lines wire format.  Seven job kinds:
  ``parse``, ``typecheck``, ``run``, ``compile``, ``equiv`` and ``link``
  mirror the CLI, and ``resume`` continues a fuel-suspended ``run``;
  each carries fuel/timeout options.
* :mod:`repro.serve.cache` -- a content-addressed LRU result cache keyed
  on ``(kind, source hash, options)``.  Its generic :class:`LRUCache` also
  backs the compile cache.
* :mod:`repro.serve.pool` -- a multiprocessing worker pool with per-job
  wall-clock timeouts and crash isolation: a worker that dies or hangs is
  reaped and respawned, its job retried with backoff up to a retry budget,
  then reported failed -- the pool itself never goes down.
* :mod:`repro.serve.supervisor` -- the fleet supervision policy layered
  over the pool: heartbeat-based hung-worker detection, per-slot restart
  budgets with backoff, a per-kind circuit breaker, digest quarantine,
  deadline shedding, and checkpoint-based mid-job crash recovery.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` -- an asyncio
  JSON-lines TCP server over the pool plus a synchronous client library
  with ``submit``, ``submit_batch``, and streaming result iteration;
  the client retries ``overloaded`` refusals with jittered backoff.
* :mod:`repro.serve.drill` -- the seeded serve-level chaos drill
  (``funtal chaos drill --serve``): a mixed job corpus under worker
  kills, hangs, corrupt envelopes, and store faults, verifying that no
  job is ever lost.

Everything is instrumented through :mod:`repro.obs` (``serve.*`` counters,
a queue-depth gauge, per-job spans).  CLI front-ends: ``funtal serve``,
``funtal submit``, ``funtal batch``.  See ``docs/serving.md``.
"""

from repro.serve.cache import LRUCache, ResultCache, job_cache_key
from repro.serve.executor import execute_job
from repro.serve.pool import PoolClosed, QueueFull, Ticket, WorkerPool
from repro.serve.protocol import (
    JOB_KINDS, Job, JobResult, ProtocolError, decode_line, encode_line,
)
from repro.serve.supervisor import SupervisorConfig, job_fault_key

__all__ = [
    "JOB_KINDS", "Job", "JobResult", "ProtocolError",
    "decode_line", "encode_line",
    "LRUCache", "ResultCache", "job_cache_key",
    "execute_job",
    "PoolClosed", "QueueFull", "Ticket", "WorkerPool",
    "SupervisorConfig", "job_fault_key",
]
