"""Benchmark entry point: one workload, one process.

    python3 perfbench/run.py --workload curvature4 --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the package from the
checkout's ``src`` directory and exits 2 without a result when there is
none.  Workloads are defined in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median over fresh interpreters of the time to import
  ``gaussbonnet`` and build every manifold, field and bundle the workload
  uses;
* ``solve_s``: median wall time of one pass over the workload's checks,
  after one untimed warm-up pass at reduced size;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spantrace.PER_LAYER``; spans of the last traced
pass are written under ``.perfbench-out/``.

Every pass checks every result against topology metadata at its declared
tolerance.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name each metric with its unit, ``fail_frac``, the result digest and
the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_PROBES_PER_PASS = 3

# What a fresh interpreter runs for one setup_s sample: import the package,
# build the workload, then print the time it became ready.  CLOCK_MONOTONIC
# is shared by all processes, so the sample excludes interpreter shutdown.
SETUP_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.WORKLOADS[sys.argv[3]](0); print(repr(time.monotonic()))")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("curvature4", "thom", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------

def run_pass(checks, tracer=None):
    """Run every check once; returns (wall seconds, [result rows])."""
    rows = []
    start = time.perf_counter()
    for check in checks:
        if tracer is None:
            rows.append(evaluate(check))
        else:
            with tracer.check(check.id):
                rows.append(evaluate(check))
    return time.perf_counter() - start, rows


def evaluate(check):
    """One check as a result row; an exception counts as a failure."""
    try:
        outcome = check.run()
    except Exception:  # a failing check must not stop the benchmark
        return {"id": check.id, "passed": False,
                "error": traceback.format_exc(limit=3), "payload": None}
    return {"id": check.id, "passed": outcome.passed, "value": outcome.value,
            "expected": outcome.expected, "tol": outcome.tol,
            "payload": repr(outcome.payload)}


def digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(f"{row['id']}\0{row['payload']}\n".encode())
    return h.hexdigest()


def setup_samples(workload, env, count):
    samples = []
    for _ in range(count):
        start = time.monotonic()
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                                str(BENCH_DIR), workload], cwd=ROOT, env=env,
                               check=True, timeout=120, capture_output=True, text=True)
        samples.append(float(probe.stdout.split()[-1]) - start)
    return samples


def measure(checks, seconds, after_pass):
    """Timed passes until the next round would overrun ``seconds``.

    Each round is one timed pass followed by ``after_pass()``: set-up
    probes (trace 0) or a traced pass (trace 1).  Interleaving spreads
    their samples over the whole run, as the timed passes are.
    """
    times, rows, rounds = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        elapsed, pass_rows = run_pass(checks)
        times.append(elapsed)
        rows.append(pass_rows)
        after_pass()
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return times, rows


# --------------------------------------------------------------------------
# Environment record (read only; no setting is changed)
# --------------------------------------------------------------------------

def _cache_bytes():
    # glibc sysconf names _SC_LEVEL2_CACHE_SIZE (191), _SC_LEVEL3_CACHE_SIZE (194)
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        return {"l2_bytes": libc.sysconf(191), "l3_bytes": libc.sysconf(194)}
    except (OSError, AttributeError):
        return {"l2_bytes": None, "l3_bytes": None}


def _blas():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment(seed, gbc_threads_seen):
    import inspect

    import numpy
    from gaussbonnet import quadrature

    worker_count = getattr(quadrature, "worker_count", None)
    integrate = getattr(quadrature, "integrate_chart", None)
    chunk = None
    if integrate is not None:
        param = inspect.signature(integrate).parameters.get("chunk")
        chunk = None if param is None else param.default
    return {"seed": seed, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": _blas(), "GBC_THREADS_seen": gbc_threads_seen,
            "worker_count": worker_count() if worker_count else None,
            "default_chunk": chunk, **_cache_bytes()}


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gaussbonnet" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'gaussbonnet'}; run from a checkout",
              file=sys.stderr)
        return 2
    # the program's own default worker count applies
    gbc_threads_seen = os.environ.pop("GBC_THREADS", None)
    sys.path.insert(0, str(SRC))

    import spantrace
    import workloads

    build = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, gbc_threads_seen)
    checks = build(args.seed)
    # Warm-up at reduced size, checked but not timed: imports, first-call
    # set-up and interpreter specialisation happen before timing.
    warm_seconds, warm_rows = run_pass(build(args.seed, "small"))
    setup, tracers, traced_times, traced_rows = [], [], [], []

    def setup_probes():
        setup.extend(setup_samples(args.workload, dict(os.environ), SETUP_PROBES_PER_PASS))

    def traced_pass():
        with spantrace.Tracer() as tracer:
            with tracer.check("setup"):
                build(args.seed)
            elapsed, pass_rows = run_pass(checks, tracer)
        tracers.append(tracer)
        traced_times.append(elapsed)
        traced_rows.append(pass_rows)

    times, rows = measure(checks, args.seconds,
                          traced_pass if args.trace else setup_probes)
    rows += traced_rows
    # traced and untraced full-size passes must agree bit for bit
    digests = [digest(r) for r in rows]
    deterministic = len(set(digests)) == 1
    attempted = sum(len(r) for r in [warm_rows] + rows)
    failed = sum(not row["passed"] for r in [warm_rows] + rows for row in r)

    if args.trace:
        per_pass = [t.layer_metrics() for t in tracers]
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead_frac"] = (statistics.median(traced_times)
                                          / statistics.median(times) - 1.0)
        units = {name: unit for name, unit, _ in spantrace.PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracers[-1].write(OUT_DIR / f"{stem}-spans.json.gz")
    record = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "result_digest": digests[0], "deterministic": deterministic,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "warmup_s": warm_seconds, "solve_samples_s": times,
        "traced_samples_s": traced_times, "setup_samples_s": setup,
        "missing_targets": tracers[-1].missing if tracers else [],
        "metrics": metrics,
        "checks": [{k: v for k, v in row.items() if k != "payload"} for row in rows[0]],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    samples = {"setup_s": len(setup), "solve_s": len(times)}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(times)} timed passes, {len(traced_times)} traced, 1 reduced-size "
          f"warm-up; {len(checks)} checks per pass")
    for name, value in metrics.items():
        note = f" (median of {samples[name]})" if name in samples else ""
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(f"  fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"  result_digest = {digests[0]} "
          f"({'identical' if deterministic else 'DIFFERS'} across {len(digests)} passes)")
    for r in [warm_rows] + rows:
        for row in r:
            if not row["passed"]:
                print(f"  FAILED {row['id']}: "
                      f"{row.get('error') or (row['value'], row['expected'], row['tol'])}")
    print(f"  environment = {json.dumps(env)}")
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
