"""qreflect benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload bulk_n3 --seed 1 --seconds 30 --trace 0

One closed-loop caller runs the workload's operations back to back for
``--seconds`` and validates each output outside its timed span.  With
``--trace 0`` the run reports the end-to-end metrics, including ``setup_s``,
the median time of several fresh interpreters that import numpy and
qreflect and build the inputs.  With ``--trace 1`` every other operation
runs with the per-layer tracer installed and the run reports per-layer
self times and counts, plus traced and untraced operation rates (their
ratio is the tracing overhead).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"  # temporary --out files and span dumps; git-ignored
WORKLOADS = ("bulk_n3", "boundary_scan", "cli_readme")
SETUP_PROBES = 15     # fresh interpreters timed per run; setup_s is their median
P90_MIN_SAMPLES = 100  # op_p90_ms needs at least ten samples beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (one setup_s probe)")
    return parser.parse_args(argv)


def load_workloads():
    """Import the benchmark's workloads against this checkout's qreflect sources."""
    sys.path[:0] = [str(BENCH), str(SRC)]
    import qreflect
    import workloads

    if Path(qreflect.__file__).resolve().parent != SRC / "qreflect":
        raise ImportError(f"qreflect imported from {qreflect.__file__}, not from {SRC}")
    return workloads


def measure_setup(args) -> list:
    """Wall times of fresh interpreters that import everything and build the inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for probe in range(SETUP_PROBES + 1):  # the first one fills the bytecode cache
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.decode(errors='replace')}")
        if probe:
            times.append(elapsed)
    return times


def timed_loop(wl, seconds: float, tracer=None) -> dict:
    """Run pool operations back to back until ``seconds`` have passed.

    With a tracer, each pool operation runs twice in a row, first traced and
    then untraced, so the two halves see the same inputs however short the
    run is.
    Returns latencies (untraced and traced), failure count and first errors.
    """
    clock = time.perf_counter
    pool = len(wl.ops)
    for k in range(wl.warmup):
        wl.run(k % pool)
    untraced, traced, errors = [], [], []
    min_ops = 2 if tracer else 1
    deadline = clock() + seconds
    i = 0
    while i < min_ops or (tracer is not None and i % 2) or clock() < deadline:
        trace_op = tracer is not None and i % 2 == 0
        k = (i // 2 if tracer else i) % pool
        try:
            if trace_op:
                tracer.install(i)
            t0 = clock()
            try:
                result = wl.run(k)
            finally:
                t1 = clock()
                if trace_op:
                    tracer.uninstall()
            error = wl.check(k, result)
        except Exception:  # a crashing operation is a failed one; keep measuring
            error = traceback.format_exc()
        (traced if trace_op else untraced).append(t1 - t0)
        if error:
            errors.append(f"op {i} (pool {k}): {error}")
        i += 1
    return {"untraced": untraced, "traced": traced, "errors": errors}


def latency_summary(latencies) -> dict:
    """Median and, from P90_MIN_SAMPLES samples on, the 90th percentile, in ms."""
    n = len(latencies)
    p90 = None
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
    return {"n": n, "p50_ms": statistics.median(latencies) * 1e3, "p90_ms": p90}


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), check=False)
        commit = git.stdout.strip() if git.returncode == 0 else "n/a (not a git checkout)"
    except OSError:
        commit = "n/a (git not found)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "qreflect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{k: os.environ.get(k, "unset")
           for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def end_to_end(loop, setup_times) -> tuple:
    lat = loop["untraced"]
    attempted, failed = len(lat), len(loop["errors"])
    summary = latency_summary(lat)
    metrics = {
        "ops_per_s": ((attempted - failed) / sum(lat), "1/s"),
        "op_p50_ms": (summary["p50_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    p90 = summary["p90_ms"]
    lines = [
        f"ops_per_s    {metrics['ops_per_s'][0]:12.4f} 1/s  "
        f"({attempted - failed} validated ops in {sum(lat):.3f} s of operation time)",
        f"op_p50_ms    {summary['p50_ms']:12.4f} ms   (n={summary['n']})",
        (f"op_p90_ms    {p90:12.4f} ms   (n={summary['n']})" if p90 is not None else
         f"op_p90_ms    {'n/a':>12}      (n={summary['n']} < {P90_MIN_SAMPLES})"),
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:12.1f} MB   (ru_maxrss of this process)",
        f"setup_s      {metrics['setup_s'][0]:12.4f} s    (median of {len(setup_times)} fresh "
        f"interpreters: {', '.join(f'{t:.3f}' for t in setup_times)})",
        f"error_rate   {failed / attempted:12.4f}      ({failed}/{attempted})",
    ]
    return metrics, lines, attempted, failed


def per_layer(loop, tracer) -> tuple:
    traced, untraced = loop["traced"], loop["untraced"]
    metrics, table = tracing.layer_metrics(tracer.spans, sum(traced), len(traced))
    traced_rate = len(traced) / sum(traced)
    untraced_rate = len(untraced) / sum(untraced)
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    op_s = sum(traced) / len(traced)
    lines = [f"traced ops {len(traced)}, untraced ops {len(untraced)}; tracing overhead "
             f"{(untraced_rate / traced_rate - 1) * 100:+.2f}% of untraced op time",
             f"{'span':40} {'calls/op':>10} {'self s/op':>12} {'share':>7}"]
    for name, calls, own in table:
        lines.append(f"{name:40} {calls:10.2f} {own:12.6f} {own / op_s:7.2%}")
    lines.append(f"{'metric':40} {'value':>14} unit")
    for name, (value, unit) in sorted(metrics.items()):
        lines.append(f"{name:40} {value:14.6g} {unit}")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qreflect" / "__init__.py").is_file():
        print(f"error: no qreflect sources at {SRC / 'qreflect'}", file=sys.stderr)
        return 2
    if args.setup_only:
        load_workloads().build(args.workload, args.seed, str(OUT / "unused"))
        return 0
    setup_times = None if args.trace else measure_setup(args)
    workloads = load_workloads()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        wl = workloads.build(args.workload, args.seed, tmp)
        tracer = tracing.Tracer() if args.trace else None
        loop = timed_loop(wl, args.seconds, tracer)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, one closed-loop caller")
    print("env " + json.dumps(environment(args.seed)))
    for error in loop["errors"][:5]:
        print("FAILED " + error.rstrip().replace("\n", "\n  "))
    if args.trace:
        metrics, lines = per_layer(loop, tracer)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        attempted = len(loop["traced"]) + len(loop["untraced"])
        failed = len(loop["errors"])
    else:
        metrics, lines, attempted, failed = end_to_end(loop, setup_times)
    for line in lines:
        print("  " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
