"""The benchmark's three workloads, each a closed loop in one process.

``run_op`` performs one operation through the public API, checks every
output against ``references.json`` and returns an ``OpResult``: the
timed units (CLI calls or replications, in the same order in every
operation), how many were attempted and failed, and the named times
behind the workload-specific figures (``fit_s.*``).  ``op_s`` turns the
units' figures (see run.unit_estimates) into the operation time.

Every run of a workload does the same work, whatever its seed: the
inputs come from ``INPUT_SEED`` and the Monte Carlo study from
``MC_STUDY_SEED``.  The weight solver's time is heavy-tailed in the
sample path (see README.md), so seeded inputs would make the spread
between seeds measure the sample path rather than the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import generate

INPUT_SEED = 0
# mc-part1: the Part I study of the acceptance suite, shortened
MC_STUDY_SEED = 7
MC_N_OBS = 100
MC_REPS = 25

# estimates may move by this much: the simplex Newton prototype of ROADMAP
# item 2 moved weights by up to 3.3e-5 against the Augmented Lagrangian
ESTIMATE_TOL = 1e-4
# relative amount a log-likelihood may fall below its reference
LOGLIK_TOL = 1e-6


@dataclass
class OpResult:
    unit_s: list[float]  # the timed units (CLI calls or replications), in order
    samples: list[float]  # host speed samples taken during the units (speed.py)
    attempted: int
    failed: int
    named_s: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def fit_summary(report: dict) -> dict:
    """The parts of an --out-json report that the checks compare."""
    return {
        "estimates": [eq["estimates"] for eq in report["equations"]],
        "logliks": [eq["loglik"] for eq in report["equations"]],
    }


def check_fit(summary: dict, reference: dict) -> list[str]:
    errors = []
    if len(summary["logliks"]) != len(reference["logliks"]):
        return [f"{len(summary['logliks'])} equations, reference has {len(reference['logliks'])}"]
    for j, (ll, ref_ll) in enumerate(zip(summary["logliks"], reference["logliks"])):
        if ll < ref_ll - LOGLIK_TOL * max(1.0, abs(ref_ll)):
            errors.append(f"equation {j + 1}: loglik {ll!r} below reference {ref_ll!r}")
    for j, (est, ref_est) in enumerate(zip(summary["estimates"], reference["estimates"])):
        gap = max(abs(a - b) for a, b in zip(est, ref_est)) if len(est) == len(ref_est) else None
        if gap is None or gap > ESTIMATE_TOL:
            errors.append(f"equation {j + 1}: estimates {est} differ from reference {ref_est}")
    return errors


def study_summary(report) -> dict:
    return {"n_failed": report.n_failed, "rejection_rates": list(report.rejection_rates)}


def check_study(summary: dict, reference: dict, n_reps: int) -> list[str]:
    errors = []
    if summary["n_failed"] != reference["n_failed"]:
        errors.append(f"n_failed {summary['n_failed']} != reference {reference['n_failed']}")
    gaps = [abs(a - b) for a, b in zip(summary["rejection_rates"], reference["rejection_rates"])]
    if len(gaps) != len(reference["rejection_rates"]) or max(gaps) > 1.0 / n_reps + 1e-12:
        errors.append(
            f"rejection rates {summary['rejection_rates']} differ from reference "
            f"{reference['rejection_rates']} by more than 1/{n_reps}"
        )
    return errors


def cli_calls(name: str, seed: int, work_dir: str) -> list[tuple[str, list[str], str]]:
    """Write the inputs; returns (model, argv, report path) per CLI call."""
    paths = generate.write_inputs(name, seed, work_dir)
    if name == "gmmc-fit":
        calls = [("gmmc", ["--y", paths["panel"], "--x", paths["x"]])]
    else:
        calls = [(model, ["--y", paths[model]]) for model in ("mtd", "mtd-probit")]
    out = os.path.join(work_dir, "report.json")
    return [
        (model, ["estimate", "--model", model, *args, "--out-json", out], out)
        for model, args in calls
    ]


class CliFits:
    """gmmc-fit and plugin-fit: one operation is one pass over the CLI calls."""

    per_unit_layers = False  # per-layer metrics are per pass

    def __init__(self, name: str, work_dir: str, references: dict):
        self.calls = cli_calls(name, INPUT_SEED, work_dir)
        self.references = references[name]

    def run_op(self, main, sampler, tracer=None) -> OpResult:
        result = OpResult(unit_s=[], samples=[], attempted=0, failed=0)
        for model, argv, out in self.calls:
            if os.path.exists(out):
                os.remove(out)
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            mark = sampler.mark()
            start = time.perf_counter()
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            seconds = time.perf_counter() - start
            samples, sampled_s = sampler.since(mark)
            seconds -= sampled_s
            result.unit_s.append(seconds)
            result.samples.extend(samples)
            result.named_s.setdefault(f"fit_s.{model}", []).append(seconds)
            result.attempted += 1
            errors = [f"exit code {code}"] if code != 0 else []
            if not errors:
                with open(out, encoding="utf-8") as fh:
                    errors = check_fit(fit_summary(json.load(fh)), self.references[model])
            if errors:
                result.failed += 1
                result.errors.extend(f"{model}: {e}" for e in errors)
        return result

    @staticmethod
    def op_s(unit_s: list[float]) -> float:
        """One operation is a pass over the CLI calls."""
        return sum(unit_s)


class McPart1:
    """mc-part1: one operation is one serial Part I study, timed per replication."""

    per_unit_layers = True  # per-layer metrics are per replication

    def __init__(self, references: dict):
        import markovmix.simulation as simulation
        from markovmix.exceptions import EstimationError

        self.simulation = simulation
        self.study_error = EstimationError
        self.reference = references["mc-part1"]

    def run_op(self, main, sampler, tracer=None) -> OpResult:
        sim = self.simulation
        config = sim.SimConfig(n_obs=MC_N_OBS, n_reps=MC_REPS, states=2, seed=MC_STUDY_SEED)
        result = OpResult(unit_s=[], samples=[], attempted=MC_REPS, failed=0)
        original = sim._part1_rep

        def timed_rep(payload):
            span = tracer.span("simulation.rep") if tracer else contextlib.nullcontext()
            mark = sampler.mark()
            start = time.perf_counter()
            with span:
                outcome = original(payload)
            seconds = time.perf_counter() - start
            samples, sampled_s = sampler.since(mark)
            result.unit_s.append(seconds - sampled_s)
            result.samples.extend(samples)
            return outcome

        sim._part1_rep = timed_rep
        span = tracer.span("simulation.study") if tracer else contextlib.nullcontext()
        try:
            with span:
                report = sim.run_part1(config, n_jobs=1)
        except self.study_error as err:  # the study aborts when too many reps fail
            result.failed = result.attempted
            result.errors.append(f"study aborted: {err}")
            return result
        finally:
            sim._part1_rep = original
        errors = check_study(study_summary(report), self.reference, MC_REPS)
        result.failed = result.attempted if errors else report.n_failed
        result.errors.extend(errors)
        return result

    @staticmethod
    def op_s(unit_s: list[float]) -> float:
        """One operation is a replication; its figure is the median one."""
        return statistics.median(unit_s)


def make(name: str, work_dir: str, references: dict):
    if name == "mc-part1":
        return McPart1(references)
    return CliFits(name, work_dir, references)
