"""Smoke test: the fast demos run to completion and leave no files behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# power_study.py is left out: its Monte Carlo study alone takes longer
# than the five below together
FAST_DEMOS = (
    "transition_basics.py",
    "mtd_weight_estimation.py",
    "probit_mixture.py",
    "covariate_mixture.py",
    "returns_pipeline.py",
)


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
