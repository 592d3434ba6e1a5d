"""``import markovmix`` and the gmmc and MTD fits load no scipy.

scipy costs most of a CLI call's start-up; only the probit fit, the
min-max weights and the rank check of a design that is not clearly
full-rank import it.
Each check runs in a fresh interpreter, so no other test's imports count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from markovmix.simulation import simulate_homog_chain, simulate_nonhomog_chain

SRC = Path(__file__).resolve().parents[1] / "src"

# prints, after each stage, the loaded modules the guard cares about
PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing"))

stages = {}
import markovmix
stages["import"] = loaded()
from markovmix.cli import main
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    stages[name] = (rc, loaded())
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    root = tmp_path_factory.mktemp("import-cost")
    rng = np.random.default_rng(5)
    n = 300
    x = rng.normal(2.0, 5.0, size=n)
    s1 = simulate_nonhomog_chain(np.array([[-1.0, 1.6, 0.4]]), x, n, rng=rng)
    s2 = simulate_homog_chain(np.array([[0.6, 0.4], [0.25, 0.75]]), n, rng=rng)
    panel = root / "panel.csv"
    panel.write_text("\n".join(f"{a},{b}" for a, b in zip(s1, s2)) + "\n")
    cov = root / "x.csv"
    cov.write_text("x\n" + "\n".join(f"{v:.8f}" for v in x) + "\n")
    runs = {
        "gmmc": ["estimate", "--model", "gmmc", "--y", str(panel), "--x", str(cov)],
        "mtd": ["estimate", "--model", "mtd", "--y", str(panel)],
        "mtd-probit": ["estimate", "--model", "mtd-probit", "--y", str(panel)],
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def test_import_loads_no_scipy_and_no_multiprocessing(stages):
    assert stages["import"] == []


@pytest.mark.parametrize("model", ["gmmc", "mtd"])
def test_fit_loads_no_scipy(stages, model):
    rc, modules = stages[model]
    assert rc == 0
    assert [m for m in modules if m.startswith("scipy")] == []


def test_probit_fit_loads_scipy_special(stages):
    # the guard can fail: the one fit that needs scipy shows it
    rc, modules = stages["mtd-probit"]
    assert rc in (0, 1)
    assert "scipy.special" in modules
