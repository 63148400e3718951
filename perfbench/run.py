"""FunTAL's benchmark: one seeded workload, default configuration.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics from spans the benchmark wraps around
the program's public calls.  Every job's answer is checked against the
closed form the generator computed.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The configuration under test is the default one: no engine, tier or
tiering flags, every ``FUNTAL_*`` variable removed from the environment,
and the artifact store pointed at a fresh, empty directory, so no run
starts warm from an earlier one.  The workloads, metrics and which
layer should move which metric are described in ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()       # set-up time counts from here

import argparse                 # noqa: E402
import hashlib                  # noqa: E402
import json                     # noqa: E402
import os                       # noqa: E402
import platform                 # noqa: E402
import shutil                   # noqa: E402
import statistics               # noqa: E402
import subprocess               # noqa: E402
import sys                      # noqa: E402
from pathlib import Path        # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: fresh stores and written traces.
SCRATCH = ROOT / ".perfbench"
#: Extra processes that only set up, so set-up time is a median.
SETUP_PROBES = 4
END_TO_END = ("setup_s", "jobs_per_s", "latency_p50_ms", "latency_p90_ms",
              "peak_rss_mb")
#: Printed with the end-to-end metrics but not in the result: p99 has
#: under ten samples beyond it on the in-process workloads, and on
#: serve-mix it swung by a third between runs on a shared 2-CPU host.
UNGATED = ("latency_p99_ms",)


def _hermetic_env(tag: str) -> Path:
    """Strip every FUNTAL_* knob and give the run its own empty artifact
    store; returns the store directory."""
    for key in [k for k in os.environ if k.startswith("FUNTAL_")]:
        del os.environ[key]
    store = SCRATCH / f"store-{tag}-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    store.mkdir(parents=True)
    os.environ["FUNTAL_STORE"] = str(store)
    return store


def _host_block(seed: int, workload: str) -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def _setup_probe(args: argparse.Namespace) -> float:
    """Set up in a fresh process (imports, pool start, warm-up) and
    return its set-up seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _print_table(metrics) -> None:
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m.value:>14.4f} {m.unit:<8} "
              f"n={m.samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing "
              "(run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (expected one of "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    store = _hermetic_env(args.workload)
    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            SCRATCH.mkdir(exist_ok=True)
            trace_path = SCRATCH / f"trace-{args.workload}-{args.seed}.jsonl"
            out = workload.measure_traced(args.seconds, str(trace_path))
        else:
            out = workload.measure(args.seconds)
        workload.close()
        rss = workload.peak_rss_mb()
        workload.self_check(out)
    finally:
        workload.close()
        shutil.rmtree(store, ignore_errors=True)

    if args.trace:
        metrics = out.metrics
        print(f"per-layer metrics ({args.workload}, traced; spans in "
              f"{trace_path.relative_to(ROOT)}):")
    else:
        probes = [_setup_probe(args) for _ in range(SETUP_PROBES)]
        setups = [setup_s] + probes
        out.put("setup_s", statistics.median(setups), "s", len(setups))
        out.put("peak_rss_mb", rss, "MB", 1)
        metrics = {name: out.metrics[name] for name in END_TO_END}
        print(f"end-to-end metrics ({args.workload}, untraced):")
    _print_table(metrics)
    if not args.trace:
        print("  not gated:")
        _print_table({name: out.metrics[name] for name in UNGATED})
    print(f"  failed_frac {out.failed / max(1, out.attempted):.4f} "
          f"({out.failed} of {out.attempted} jobs)")
    for note in out.notes:
        print(f"  {note}")
    for err in out.errors:
        print(f"  FAILED {err}")
    print("host: " + json.dumps(_host_block(args.seed, args.workload)))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
