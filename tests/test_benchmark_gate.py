"""The plugin-fit benchmark's output check passes on the current code.

The benchmark rejects a run whose estimates drift more than
``ESTIMATE_TOL`` from ``perfbench/references.json`` or whose
log-likelihoods fall below it.  These tests load the benchmark's input
generator and workload checks read-only and run its seed-0 plugin-fit
CLI calls, so a solver change that breaks the gate fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from markovmix.cli import main

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


def test_plugin_fit_matches_references(workloads, tmp_path, capsys):
    references = json.loads((PERFBENCH / "references.json").read_text())["plugin-fit"]
    calls = workloads.cli_calls("plugin-fit", workloads.INPUT_SEED, str(tmp_path))
    assert [model for model, _, _ in calls] == ["mtd", "mtd-probit"]
    for model, argv, out in calls:
        assert main(argv) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            summary = workloads.fit_summary(json.load(fh))
        assert workloads.check_fit(summary, references[model]) == []
