"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/make_references.py [--workload NAME]

Runs the named workloads (all by default) once through the same calls
the benchmark makes and writes their outputs into
perfbench/references.json, keeping the entries of other workloads.
References record the program as it was when the benchmark was defined;
regenerating them after a change to the program would make the checks
compare the program with itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402  (first: pins the BLAS thread count before numpy loads)
import workloads  # noqa: E402


def fit_reference(name: str) -> dict:
    from markovmix.cli import main

    refs = {}
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as work_dir:
        for model, argv, out in workloads.cli_calls(name, workloads.INPUT_SEED, work_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{name}: {model} exited {code}")
            with open(out, encoding="utf-8") as fh:
                refs[model] = workloads.fit_summary(json.load(fh))
    return refs


def study_reference() -> dict:
    from markovmix.simulation import SimConfig, run_part1

    config = SimConfig(
        n_obs=workloads.MC_N_OBS,
        n_reps=workloads.MC_REPS,
        states=2,
        seed=workloads.MC_STUDY_SEED,
    )
    return workloads.study_summary(run_part1(config, n_jobs=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    refs = {}
    if os.path.exists(run.REFERENCES):
        with open(run.REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    for name in args.workload or run.WORKLOADS:
        refs[name] = study_reference() if name == "mc-part1" else fit_reference(name)
        print(name, "done", flush=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
