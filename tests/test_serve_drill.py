"""The serve chaos drill's per-result accounting (:func:`tally`)."""

import collections

from repro.serve.drill import tally
from repro.serve.protocol import Job, JobResult

JOB = Job("run", id="j", example="fact-f")


def _counts(*results):
    counts = collections.Counter()
    for result in results:
        tally(result, counts)
    return counts


class TestTally:
    def test_queue_pressure_shed_counts(self):
        """shed-oldest eviction sets no ``shed`` key, only QueueFull."""
        evicted = JobResult.failure(
            JOB, "overloaded", "shed under queue pressure",
            error_type="QueueFull", output={"retry_after_ms": 50})
        assert _counts(evicted)["shed"] == 1

    def test_deadline_shed_counts(self):
        expired = JobResult.failure(
            JOB, "overloaded", "deadline expired before dispatch",
            error_type="DeadlineExpired", output={"shed": True})
        assert _counts(expired)["shed"] == 1

    def test_other_refusals_are_not_shed(self):
        breaker = JobResult.failure(
            JOB, "overloaded", "circuit breaker open",
            error_type="BreakerOpen", output={"retry_after_ms": 50})
        quarantined = JobResult.failure(
            JOB, "rejected", "digest quarantined",
            error_type="QuarantinedJob")
        counts = _counts(breaker, quarantined)
        assert counts["shed"] == 0
        assert counts["quarantined"] == 1

    def test_recovered_and_degraded(self):
        ok = JobResult(id="j", kind="run", status="ok",
                       output={"value": "1", "recovered": True,
                               "degraded": True})
        plain = JobResult(id="k", kind="run", status="ok",
                          output={"value": "1"})
        counts = _counts(ok, plain)
        assert (counts["recovered"], counts["degraded"],
                counts["shed"]) == (1, 1, 0)
