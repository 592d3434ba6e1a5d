"""Layer tracing from outside the program.

``Tracer.install()`` replaces the module-level names through which
markovmix modules call each other (``markovmix.gmmc.maximize_auglag``,
``markovmix.cli.estimate_mtd``, ...) with wrappers, and puts every
original back when the block ends.  Nothing under ``src/`` changes.

Coarse boundaries become spans: name, start, end, parent span and the
operation id the benchmark set.  Hot functions, called thousands of
times per solve (the mixture likelihood and its derivatives, the probit
objective), only add to aggregated counters.  A span's self time is its
duration minus the time covered by its child spans and hot calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op_id: int | None
    parent: int | None  # index of the parent span in Tracer.spans
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s


# (module, attribute, layer) for the coarse boundaries
SPAN_POINTS = (
    ("markovmix.cli", "read_panel_csv", "data.read"),
    ("markovmix.cli", "read_covariates_csv", "data.read"),
    ("markovmix.cli", "estimate_gmmc", "gmmc.estimate"),
    ("markovmix.cli", "estimate_mtd", "mtd.estimate"),
    ("markovmix.cli", "estimate_mtd_probit", "probit.estimate"),
    ("markovmix.cli", "format_report", "inference.report"),
    ("markovmix.inference.FitReport", "to_dict", "inference.report"),
    ("markovmix.mtd", "transition_matrix_grid", "data.grid"),
    ("markovmix.probit", "transition_matrix_grid", "data.grid"),
    ("markovmix.gmmc", "build_prob_tensor", "gmmc.build_tensor"),
    ("markovmix.gmmc", "fit_mnlogit", "mnlogit.fit"),
    ("markovmix.gmmc", "predict_probs", "mnlogit.predict"),
    ("markovmix.gmmc", "maximize_auglag", "optim.auglag"),
    ("markovmix.probit", "maximize_unconstrained", "optim.unconstrained"),
    ("markovmix.probit", "numeric_hessian", "optim.numeric_hessian"),
    ("markovmix.simulation", "estimate_gmmc", "gmmc.estimate"),
    ("markovmix.simulation", "simulate_nonhomog_chain", "simulation.generate"),
    ("markovmix.simulation", "simulate_homog_chain", "simulation.generate"),
    ("markovmix.simulation", "_draw_part1_generator", "simulation.generate"),
    ("markovmix.simulation", "wald_test", "inference.wald"),
)

# (module, attribute, counter) for the hot functions
HOT_POINTS = (
    ("markovmix.gmmc", "mixture_loglik", "mixture.loglik"),
    ("markovmix.gmmc", "mixture_gradient", "mixture.gradient"),
    ("markovmix.gmmc", "mixture_hessian", "mixture.hessian"),
    ("markovmix.mtd", "mixture_loglik", "mixture.loglik"),
    ("markovmix.mtd", "mixture_gradient", "mixture.gradient"),
    ("markovmix.mtd", "mixture_hessian", "mixture.hessian"),
    ("markovmix.probit", "_equation_loglik", "probit.objective"),
)


def _resolve(path: str):
    """Module or class object for a dotted name such as markovmix.inference.FitReport."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans and counters for one traced run; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self.op_id, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += record.busy_s

    def _hot(self, name: str, seconds: float) -> None:
        self.counters[name + ".calls"] += 1
        self.counters[name + ".s"] += seconds
        if self._open:
            self.spans[self._open[-1]].child_s += seconds

    def _span_wrapper(self, fn, layer: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "optim.auglag":
                # count evaluations of the objective handed to the solver
                objective, *rest = args

                def counted(x):
                    counters["optim.auglag_evals"] += 1
                    return objective(x)

                args = (counted, *rest)
            with self.span(layer):
                result = fn(*args, **kwargs)
            if layer == "mnlogit.fit":
                counters["mnlogit.newton_iters"] += result.iterations
            elif layer == "optim.auglag":
                counters["optim.inner_iters"] += result.iterations
            return result

        return wrapper

    def _hot_wrapper(self, fn, name: str):
        hot = self._hot
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            hot(name, clock() - start)
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap every trace point for the duration of the block."""
        saved = []
        try:
            for path, attr, layer in SPAN_POINTS:
                owner = _resolve(path)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span_wrapper(getattr(owner, attr), layer))
            for path, attr, name in HOT_POINTS:
                owner = _resolve(path)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._hot_wrapper(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: busy seconds, self seconds and span count."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"busy_s": 0.0, "self_s": 0.0, "count": 0}
        )
        for record in self.spans:
            entry = totals[record.name]
            entry["busy_s"] += record.busy_s
            entry["self_s"] += record.self_s
            entry["count"] += 1
        return totals

    def to_dict(self) -> dict:
        return {
            "spans": [
                {
                    "name": s.name,
                    "op_id": s.op_id,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_s,
                }
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced operation."""
    totals = tracer.layer_totals()
    c = tracer.counters

    def busy(layer):
        return totals[layer]["busy_s"] if layer in totals else 0.0

    def self_s(*layers):
        return sum(totals[layer]["self_s"] for layer in layers if layer in totals)

    def count(layer):
        return totals[layer]["count"] if layer in totals else 0

    inner = c.get("optim.inner_iters", 0.0)
    raw = {
        "data.read_s": busy("data.read"),
        "data.grid_s": busy("data.grid"),
        "mnlogit.fit_s": busy("mnlogit.fit"),
        "mnlogit.fits": count("mnlogit.fit"),
        "mnlogit.newton_iters": c.get("mnlogit.newton_iters", 0.0),
        "mnlogit.predict_s": busy("mnlogit.predict"),
        "optim.auglag_s": busy("optim.auglag"),
        "optim.auglag_calls": count("optim.auglag"),
        "optim.inner_iters": inner,
        "mixture.loglik_calls": c.get("mixture.loglik.calls", 0.0),
        "mixture.gradient_calls": c.get("mixture.gradient.calls", 0.0),
        "mixture.s": sum(
            c.get(f"mixture.{fn}.s", 0.0) for fn in ("loglik", "gradient", "hessian")
        ),
        "optim.unconstrained_s": busy("optim.unconstrained"),
        "optim.numeric_hessian_s": busy("optim.numeric_hessian"),
        "probit.objective_evals": c.get("probit.objective.calls", 0.0),
        "probit.objective_s": c.get("probit.objective.s", 0.0),
        "mtd.self_s": self_s("mtd.estimate"),
        "gmmc.build_tensor_s": busy("gmmc.build_tensor"),
        "gmmc.self_s": self_s("gmmc.estimate"),
        "simulation.generate_s": busy("simulation.generate"),
        "simulation.self_s": self_s("simulation.study", "simulation.rep"),
        "inference.wald_s": busy("inference.wald"),
        "inference.report_s": busy("inference.report"),
        "cli.self_s": self_s("cli.main"),
    }
    metrics = {name: value / n_ops for name, value in raw.items()}
    # a ratio of two totals, not a per-operation mean
    metrics["optim.evals_per_iter"] = c.get("optim.auglag_evals", 0.0) / inner if inner else 0.0
    return metrics
