"""Every benchmark workload's output check passes on the current code.

The benchmark rejects a run whose estimates drift more than
``ESTIMATE_TOL`` from ``perfbench/references.json``, whose
log-likelihoods fall below it, or whose Monte Carlo rejection rates
move by more than one replication.  These tests load the benchmark's
input generator and workload checks read-only and run its seed-0 CLI
calls and its Part I study, so a solver change that breaks the gate
fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from markovmix import optim
from markovmix._mixture import mixture_gradient, mixture_hessian, mixture_loglik
from markovmix.cli import main
from markovmix.data import CovariateMatrix, Panel
from markovmix.gmmc import build_prob_tensor
from markovmix.simulation import SimConfig, run_part1

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # workloads imports generate by this name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    saved = {name: sys.modules.get(name) for name in ("generate", "workloads")}
    try:
        _load("generate")
        yield _load("workloads")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _references(name):
    return json.loads((PERFBENCH / "references.json").read_text())[name]


def _check_cli_calls(workloads, name, work_dir, capsys):
    """Run the workload's CLI calls; returns the models they fitted."""
    references = _references(name)
    calls = workloads.cli_calls(name, workloads.INPUT_SEED, str(work_dir))
    for model, argv, out in calls:
        assert main(argv) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            summary = workloads.fit_summary(json.load(fh))
        assert workloads.check_fit(summary, references[model]) == []
    return [model for model, _, _ in calls]


def test_plugin_fit_matches_references(workloads, tmp_path, capsys):
    assert _check_cli_calls(workloads, "plugin-fit", tmp_path, capsys) == ["mtd", "mtd-probit"]


def test_gmmc_fit_matches_references(workloads, tmp_path, capsys):
    assert _check_cli_calls(workloads, "gmmc-fit", tmp_path, capsys) == ["gmmc"]


def test_mc_part1_matches_references(workloads):
    config = SimConfig(n_obs=workloads.MC_N_OBS, n_reps=workloads.MC_REPS, states=2,
                       seed=workloads.MC_STUDY_SEED)
    summary = workloads.study_summary(run_part1(config, n_jobs=1))
    assert workloads.check_study(summary, _references("mc-part1"), workloads.MC_REPS) == []


def test_gmmc_weight_solve_stays_off_the_inner_cap(workloads, monkeypatch):
    # q perturbed at the 1e-13 level moves the Augmented Lagrangian onto
    # zero-gain Newton steps that Armijo accepts while |g| sits above the
    # absolute inner gtol; such a solve used to run to MAX_INNER_ITER
    states, x = workloads.generate.gmmc_inputs(workloads.INPUT_SEED)
    panel = Panel(states, (3, 3, 3))
    tensors, _ = build_prob_tensor(panel, CovariateMatrix(x.reshape(-1, 1), ["x"]))
    inner = []
    solve = optim._maximize_newton

    def spy(*args, **kwargs):
        result = solve(*args, **kwargs)
        inner.append(result.iterations)
        return result

    monkeypatch.setattr(optim, "_maximize_newton", spy)
    start = np.full(3, 1.0 / 3.0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for tensor in tensors:
            q = tensor + 1e-13 * rng.normal(size=tensor.shape)
            problem = (lambda w: mixture_loglik(w, q), start,
                       lambda w: mixture_gradient(w, q), lambda w: mixture_hessian(w, q))
            result = optim.maximize_auglag(*problem)
            oracle = optim.maximize_simplex(*problem, n_obs=q.shape[0])
            assert result.converged and oracle.converged
            loglik = mixture_loglik(optim.project_simplex(result.argmax), q)
            assert loglik == pytest.approx(oracle.value, rel=1e-9)
    assert len(inner) >= 60 and max(inner) < optim.MAX_INNER_ITER
