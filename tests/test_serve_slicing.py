"""``options.checkpoint_every`` slices a run without changing its answer.

``checkpoint_every`` is a non-semantic option (the result cache shares
entries across its values), so a sliced run must report exactly what
the unsliced run reports: the same status, value and ``steps``, and the
same fuel verdict at any budget.  Each slice that runs dry has executed
exactly its fuel; the refused charge that tripped the governor never
ran and must not be counted.

The guarded JIT re-runs on faults and never slices, so ``options.jit``
is refused together with ``checkpoint_every`` (as with ``checkpoint``).
"""

import pytest

from repro.serve.executor import execute_job
from repro.serve.protocol import Job, JobOptions, ProtocolError

EXAMPLES = ("fact-f", "fig17", "jit")
SLICES = (1, 3, 8, 16)


def _run(example, **options):
    return execute_job(Job("run", example=example,
                           options=JobOptions(**options)))


def _verdict(result):
    """Everything a caller may observe of a result, minus timings."""
    out = result.output
    return (result.status, out.get("value"), out.get("steps"),
            out.get("fuel"), result.error)


@pytest.mark.parametrize("every", SLICES)
@pytest.mark.parametrize("example", EXAMPLES)
class TestSlicedRunsMatchUnsliced:
    def test_default_fuel(self, example, every):
        whole = _run(example)
        assert whole.ok
        assert _verdict(_run(example, checkpoint_every=every)) \
            == _verdict(whole)

    def test_exact_fuel(self, example, every):
        need = _run(example).output["steps"]
        whole = _run(example, fuel=need)
        assert whole.ok and whole.output["steps"] == need
        assert _verdict(_run(example, fuel=need, checkpoint_every=every)) \
            == _verdict(whole)

    def test_one_step_short(self, example, every):
        need = _run(example).output["steps"]
        whole = _run(example, fuel=need - 1)
        assert whole.status == "fuel_exhausted"
        assert _verdict(_run(example, fuel=need - 1,
                             checkpoint_every=every)) == _verdict(whole)


def _suspended_snapshot(example):
    """A snapshot of ``example`` suspended at half its fuel."""
    need = _run(example).output["steps"]
    half = _run(example, fuel=need // 2, checkpoint=True)
    assert half.status == "suspended"
    return half.output["snapshot"]


def _resume(snapshot, **options):
    return execute_job(Job("resume", snapshot=snapshot,
                           options=JobOptions(**options)))


@pytest.mark.parametrize("every", SLICES)
@pytest.mark.parametrize("example", EXAMPLES)
class TestSlicedResumesMatchUnsliced:
    def test_default_fuel(self, example, every):
        snapshot = _suspended_snapshot(example)
        whole = _resume(snapshot)
        assert whole.ok
        assert _verdict(_resume(snapshot, checkpoint_every=every)) \
            == _verdict(whole)

    def test_exact_fuel(self, example, every):
        snapshot = _suspended_snapshot(example)
        need = _resume(snapshot).output["steps"]
        whole = _resume(snapshot, fuel=need)
        assert whole.ok and whole.output["steps"] == need
        assert _verdict(_resume(snapshot, fuel=need,
                                checkpoint_every=every)) == _verdict(whole)


class TestJitRefusesSlicing:
    def test_jit_with_checkpoint_every_is_refused(self):
        with pytest.raises(ProtocolError, match="checkpoint_every"):
            Job("run", example="fact-f",
                options=JobOptions(jit=True, checkpoint_every=8))

    def test_refused_on_the_wire_too(self):
        with pytest.raises(ProtocolError, match="mutually exclusive"):
            Job.from_dict({"kind": "run", "example": "fact-f",
                           "options": {"jit": True,
                                       "checkpoint_every": 8}})
