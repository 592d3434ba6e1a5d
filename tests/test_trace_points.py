"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces module-level names of the package
with wrappers; a rename there would only show when the benchmark runs
with ``--trace 1``.  These tests load it read-only and fail at once.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from markovmix.data import CovariateMatrix, Panel
from markovmix.gmmc import estimate_gmmc
from markovmix.simulation import simulate_homog_chain, simulate_nonhomog_chain

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_trace_point_resolves(tracing):
    points = tracing.SPAN_POINTS + tracing.HOT_POINTS
    missing = [
        f"{path}.{attr}"
        for path, attr, _ in points
        if not callable(getattr(tracing._resolve(path), attr, None))
    ]
    assert points and not missing


def test_traced_gmmc_fit_counts_the_weight_solve(tracing):
    # the tracer counts objective evaluations through the solver's first
    # positional argument and inner iterations through the result
    rng = np.random.default_rng(4)
    n = 300
    x = rng.normal(2.0, 5.0, size=n)
    s1 = simulate_nonhomog_chain(np.array([[-1.2, 1.4, 0.45]]), x, n, rng=rng)
    s2 = simulate_homog_chain(np.array([[0.55, 0.45], [0.3, 0.7]]), n, rng=rng)
    panel = Panel(np.column_stack([s1, s2]), (2, 2))
    tracer = tracing.Tracer()
    with tracer.install():
        estimate_gmmc(panel, CovariateMatrix(x.reshape(-1, 1), ["x"]))
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["optim.auglag_calls"] == 2
    assert metrics["optim.inner_iters"] > 0
    assert metrics["optim.evals_per_iter"] > 0
    # the weight solve reaches the kernels through gmmc's module names
    assert metrics["mixture.loglik_calls"] > 0
    assert metrics["mixture.gradient_calls"] > 0
    # one first-stage fit per (equation, source chain) pair, even though
    # each design is checked once for all its equations
    assert metrics["mnlogit.fits"] == 4
    assert metrics["mnlogit.newton_iters"] > 0
