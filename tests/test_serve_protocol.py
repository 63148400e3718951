"""Tests for the ``repro.serve`` wire protocol dataclasses."""

import dataclasses
import pathlib
import subprocess
import sys

import pytest

from repro.serve.protocol import (
    JOB_KINDS, NON_SEMANTIC_OPTIONS, SEMANTIC_OPTIONS, Job, JobOptions,
    JobResult, ProtocolError, decode_line, encode_line, jobs_from_jsonl,
)


class TestJob:
    def test_roundtrip_minimal(self):
        job = Job("run", id="j1", source="(1 + 2)")
        assert Job.from_dict(job.to_dict()) == job

    def test_roundtrip_with_options(self):
        job = Job("equiv", id="e", source="lam (x: int). (x + x)",
                  options=JobOptions(right="lam (x: int). (x * 2)",
                                     type="(int) -> int", fuel=5000,
                                     seed=7))
        again = Job.from_dict(job.to_dict())
        assert again == job
        assert again.options.seed == 7

    def test_default_options_stay_off_the_wire(self):
        job = Job("run", source="(1 + 2)")
        assert "options" not in job.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            Job("transpile", source="x")

    def test_source_xor_example(self):
        with pytest.raises(ProtocolError):
            Job("run")
        with pytest.raises(ProtocolError):
            Job("run", source="(1 + 1)", example="fig17")

    def test_equiv_requires_right_and_type(self):
        with pytest.raises(ProtocolError):
            Job("equiv", source="(1 + 1)")
        with pytest.raises(ProtocolError):
            Job("equiv", source="(1 + 1)",
                options=JobOptions(right="(2 + 0)"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError):
            Job.from_dict({"kind": "run", "source": "x", "srouce": "typo"})

    def test_unknown_option_rejected(self):
        with pytest.raises(ProtocolError):
            Job.from_dict({"kind": "run", "source": "x",
                           "options": {"feul": 10}})

    def test_every_kind_constructs(self):
        for kind in JOB_KINDS:
            opts = JobOptions(right="y", type="int") if kind == "equiv" \
                else JobOptions()
            if kind == "resume":
                Job(kind, snapshot={"kind": "ft", "digest": "x", "data": ""},
                    options=opts)
            else:
                Job(kind, source="x", options=opts)


class TestJobOptions:
    def test_semantic_dict_excludes_operational_knobs(self):
        opts = JobOptions(fuel=100, timeout=2.5, no_cache=True,
                          inject_crash=True, inject_sleep=1.0)
        assert opts.semantic_dict() == {"fuel": 100}

    def test_wire_dict_keeps_operational_knobs(self):
        opts = JobOptions(timeout=2.5)
        assert opts.to_dict() == {"timeout": 2.5}


class TestJobOptionsPartition:
    def test_every_field_classified_exactly_once(self):
        """Adding a JobOptions field without classifying it (semantic:
        part of the result-cache key; non-semantic: execution policy
        only) must fail here."""
        names = {f.name for f in dataclasses.fields(JobOptions)}
        semantic = set(SEMANTIC_OPTIONS)
        non_semantic = set(NON_SEMANTIC_OPTIONS)
        assert semantic & non_semantic == set(), \
            "options classified twice"
        unclassified = names - semantic - non_semantic
        assert not unclassified, (
            f"unclassified JobOptions fields {sorted(unclassified)}: add "
            "each to SEMANTIC_OPTIONS (cache-key-relevant) or "
            "NON_SEMANTIC_OPTIONS (execution policy) in "
            "repro.serve.protocol with a rationale")
        phantom = (semantic | non_semantic) - names
        assert not phantom, f"classified but nonexistent: {sorted(phantom)}"

    def test_class_constant_is_the_audited_list(self):
        assert tuple(JobOptions.NON_SEMANTIC) == NON_SEMANTIC_OPTIONS

    def test_cache_key_ignores_exactly_the_non_semantic(self):
        """The result-cache key must change with any semantic option
        and with no non-semantic one."""
        from repro.serve.cache import job_cache_key

        base = Job("run", source="(1 + 2)")
        key = job_cache_key(base)

        probes = {
            "fuel": 123, "heap": 44, "depth": 45, "checkpoint": True,
            "jit": True, "result_type": "unit", "trace": True,
            "validate": True, "ir": True, "seed": 9, "type": "int",
            "right": "(2 + 2)", "run": False,
        }
        for name in SEMANTIC_OPTIONS:
            job = Job("run", source="(1 + 2)")
            setattr(job.options, name, probes.get(name, "probe"))
            assert job_cache_key(job) != key, \
                f"semantic option {name} must change the cache key"

        non_probes = {
            "timeout": 9.0, "no_cache": True, "engine": "subst",
            "tal_engine": "fast", "store": "/tmp/x", "deadline_ms": 5,
            "checkpoint_every": 10, "degraded": True,
            "inject_crash": True, "inject_sleep": 1.0,
            "inject_hang": True, "inject_corrupt": True,
            "inject_crash_at": 2, "chaos_rate": 0.5, "chaos_seed": 3,
            "chaos_seams": "jit.run",
        }
        for name in NON_SEMANTIC_OPTIONS:
            job = Job("run", source="(1 + 2)")
            setattr(job.options, name, non_probes.get(name, "probe"))
            assert job_cache_key(job) == key, \
                f"non-semantic option {name} must not change the cache key"


class TestRemovedTieringSurface:
    """Adaptive tiering is gone; its wire and CLI surface is refused,
    never silently ignored."""

    @pytest.mark.parametrize("options", [{"promoted": True},
                                         {"tiering": {}}])
    def test_options_refused(self, options):
        with pytest.raises(ProtocolError, match="unknown job option"):
            JobOptions.from_dict(options)

    def test_promote_kind_refused(self):
        assert "promote" not in JOB_KINDS
        with pytest.raises(ProtocolError, match="unknown job kind"):
            Job("promote", source="(1 + 2)")

    def test_serve_tiering_flag_is_a_usage_error(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--tiering", "auto"],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert "--tiering" in proc.stderr


class TestRemovedJitSurface:
    """The ``jit`` job kind, its options and ``funtal jit`` duplicated
    ``compile`` and are gone; their wire and CLI surface is refused,
    never silently ignored."""

    def test_jit_kind_refused(self):
        assert "jit" not in JOB_KINDS
        with pytest.raises(ProtocolError, match="unknown job kind"):
            Job("jit", source="lam (x: int). (x + 1)")

    @pytest.mark.parametrize("options", [{"tier": "arith"},
                                         {"optimize": True},
                                         {"check": True}])
    def test_options_refused(self, options):
        with pytest.raises(ProtocolError, match="unknown job option"):
            JobOptions.from_dict(options)

    @pytest.mark.parametrize("argv", [
        ["jit", "F"],
        ["compile", "F", "--tier", "arith"],
        ["submit", "F", "--kind", "jit"],
    ], ids=["jit-command", "compile-tier", "submit-kind-jit"])
    def test_cli_usage_error(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestJobResult:
    def test_roundtrip(self):
        result = JobResult(id="j1", kind="run", status="ok",
                           output={"value": "5"}, attempts=2,
                           duration_ms=1.25, worker=4242)
        assert JobResult.from_dict(result.to_dict()) == result

    def test_error_fields_elided_when_clean(self):
        out = JobResult(id="j", kind="run", status="ok").to_dict()
        assert "error" not in out and "error_type" not in out
        assert "worker" not in out

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError):
            JobResult.from_dict({"id": "j", "kind": "run",
                                 "status": "exploded"})

    def test_ok_property(self):
        assert JobResult(id="j", kind="run", status="ok").ok
        assert not JobResult(id="j", kind="run", status="timeout").ok

    def test_failure_constructor(self):
        job = Job("run", id="j9", source="x")
        result = JobResult.failure(job, "crashed", "boom", attempts=3)
        assert (result.id, result.status, result.attempts) == \
            ("j9", "crashed", 3)
        assert result.error_type == "crashed"


class TestWireFormat:
    def test_encode_decode(self):
        line = encode_line({"kind": "run", "id": "a"})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"kind": "run", "id": "a"}

    def test_encode_is_canonical(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")


class TestJsonlBatch:
    def test_parses_with_comments_and_blanks(self):
        text = "\n".join([
            '# a comment',
            '{"kind": "run", "source": "(1 + 1)"}',
            '',
            '{"kind": "parse", "id": "named", "example": "fig17"}',
        ])
        jobs = jobs_from_jsonl(text)
        assert [j.kind for j in jobs] == ["run", "parse"]
        assert jobs[0].id == "job-2"       # auto id carries the line number
        assert jobs[1].id == "named"

    def test_bad_line_reports_line_number(self):
        with pytest.raises(ProtocolError, match="line 2"):
            jobs_from_jsonl('{"kind": "run", "source": "x"}\n{"kind": "?"}')
