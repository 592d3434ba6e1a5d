"""markovmix benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload gmmc-fit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, taken from a traced
half of the window, plus the tracing overhead against an untraced half.
perfbench/README.md describes the workloads, metrics and predictions.
"""

from __future__ import annotations

import os

# set before numpy loads, here and in the set-up probes
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("gmmc-fit", "plugin-fit", "mc-part1")

SETUP_REPEATS = 4
# times the import, then the reference computation of speed.py in the
# same interpreter (numpy is loaded by then), for the host speed
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import markovmix; "
    "seconds = time.perf_counter() - t; sys.path.insert(0, {here!r}); import speed; "
    "print(speed.scaled([seconds], [speed.probe(20)])[0])"
)
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def measure_setup_s() -> float:
    """Median seconds of ``import markovmix`` in fresh interpreters, each
    at the reference speed sampled right after it in the same interpreter.

    One unrecorded import first, so every recorded one finds the files
    in the page cache.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    code = IMPORT_PROBE.format(here=HERE)
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_window(workload, main, seconds: float, tracer=None) -> list:
    """Closed loop: start the next operation when the previous one ends.

    The loop stops once the window has passed, or when the time left is
    less than half the last operation, so that a run overshoots its
    window by less than half an operation.  The host speed is sampled
    throughout.
    """
    results = []
    deadline = time.perf_counter() + seconds
    with speed.Sampler() as sampler:
        while True:
            if tracer is not None:
                tracer.op_id = len(results)
            start = time.perf_counter()
            results.append(workload.run_op(main, sampler, tracer))
            now = time.perf_counter()
            if deadline - now < (now - start) / 2:
                return results


def unit_estimates(results) -> list[float]:
    """Each unit's time at the reference speed, median over the run's repeats.

    Every operation runs the same units in the same order, so unit i of
    one operation repeats unit i of every other.  Scaling each
    operation by the host speed sampled during it removes most of the
    slowdown that other tenants of the host cause; the median over
    repeats removes most of the rest (see README.md).  Operations cut
    short by a failure are left out.
    """
    full = max(len(r.unit_s) for r in results)
    repeats = [speed.scaled(r.unit_s, r.samples) for r in results if len(r.unit_s) == full]
    return [statistics.median(times) for times in zip(*repeats)]


def summarize(workload, results) -> dict:
    units = [u for r in results for u in r.unit_s]
    named: dict[str, list[float]] = {}
    for r in results:
        for key, values in r.named_s.items():
            named.setdefault(key, []).extend(values)
    estimates = unit_estimates(results)
    return {
        "units": units,
        "named": named,
        "estimates": estimates,
        "repeats": sum(len(r.unit_s) == len(estimates) for r in results),
        "sample_s": statistics.median(p for r in results for p in r.samples),
        "trace_ops": len(units) if workload.per_unit_layers else len(results),
        "op_s": workload.op_s(estimates),
        "ops_per_s": len(estimates) / sum(estimates),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "errors": [e for r in results for e in r.errors],
    }


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct}", statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def report_lines(name: str, seed: int, summary: dict) -> list[str]:
    """Human-readable figures, including the workload-specific names."""
    lines = [
        f"workload {name}, seed {seed} (every seed runs the same inputs; see README.md)",
        f"  environment {json.dumps(environment(), sort_keys=True)}",
        f"  fail_share {summary['failed']}/{summary['attempted']}",
    ]
    repeats = summary["repeats"]
    lines.append(
        f"  host speed sample median {summary['sample_s'] * 1e3:.3f} ms"
        f" (reference {speed.REFERENCE_S * 1e3:.3f} ms)"
    )
    units = summary["units"]
    scale = f"at the reference speed, median of {repeats} repeats"
    if name == "mc-part1":
        lines.append(f"  rep_s.p50 {summary['op_s']:.4f} s ({scale} per replication)")
        found = tail(units)
        if found:
            lines.append(f"  rep_s.tail = rep_s.{found[0]} {found[1]:.4f} s wall over {len(units)} samples")
        else:
            lines.append(f"  rep_s.tail n/a: {len(units)} samples leave none with ten beyond it")
        lines.append(f"  reps_per_s {summary['ops_per_s']:.4f} 1/s ({scale} per replication)")
    else:
        # named times are in call order, as are the unit estimates
        for (key, values), estimate in zip(summary["named"].items(), summary["estimates"]):
            lines.append(
                f"  {key} {estimate:.4f} s ({scale}); wall median"
                f" {statistics.median(values):.4f} s over {len(values)} calls"
            )
        lines.append(f"  op_s {summary['op_s']:.4f} s (the sum of the fit_s figures)")
    lines.extend(f"  check failed: {e}" for e in summary["errors"][:20])
    return lines


def plain_run(workload, main, seconds: float) -> tuple[dict, dict]:
    summary = summarize(workload, run_window(workload, main, seconds))
    metrics = {
        "op_s": (summary["op_s"], "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (measure_setup_s(), "s"),
    }
    return summary, metrics


def traced_run(workload, main, seconds: float, trace_path: str) -> tuple[dict, dict]:
    """Untraced first half, traced second half; the spans go to trace_path."""
    from tracing import Tracer

    plain = summarize(workload, run_window(workload, main, seconds / 2))
    plain_rss = peak_rss_mb()
    tracer = Tracer()
    with tracer.install():
        traced = summarize(workload, run_window(workload, main, seconds / 2, tracer))
    metrics = trace_metrics(tracer, plain, traced, peak_rss_mb() - plain_rss)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), **tracer.to_dict()}, fh)
    print(f"spans written to {trace_path}")
    print(f"untraced op_s {plain['op_s']:.4f} s, traced op_s {traced['op_s']:.4f} s")
    summary = dict(
        traced,
        attempted=plain["attempted"] + traced["attempted"],
        failed=plain["failed"] + traced["failed"],
        errors=plain["errors"] + traced["errors"],
    )
    return summary, metrics


def trace_metrics(tracer, plain: dict, traced: dict, rss_growth_mb: float) -> dict:
    """Per-layer metrics with units, and the tracing overhead."""
    from tracing import layer_metrics

    n_ops = traced["trace_ops"]
    metrics = {name: (value, _unit(name)) for name, value in layer_metrics(tracer, n_ops).items()}
    metrics["trace.ops"] = (n_ops, "count")
    metrics["trace_overhead.op_s"] = (traced["op_s"] - plain["op_s"], "s")
    metrics["trace_overhead.ops_per_s"] = (traced["ops_per_s"] - plain["ops_per_s"], "1/s")
    metrics["trace_overhead.peak_rss_mb"] = (rss_growth_mb, "MB")
    return metrics


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric == "optim.evals_per_iter":
        return "evals/iter"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="markovmix benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "markovmix", "__init__.py")):
        print(f"error: no markovmix package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import markovmix.cli
    import workloads

    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.make(args.workload, work_dir, references)
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
            summary, metrics = traced_run(workload, markovmix.cli.main, args.seconds, trace_path)
        else:
            summary, metrics = plain_run(workload, markovmix.cli.main, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in report_lines(args.workload, args.seed, summary):
        print(line)
    result = {
        "correct": not summary["errors"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
