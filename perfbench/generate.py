"""Seeded inputs for the markovmix benchmark.

    python3 perfbench/generate.py --seed 3 --out DIR

writes the CSV inputs of every workload into DIR.  The same seed gives
byte-identical files.

Each workload's design (mixture weights, transition rows, logit
coefficients) is a fixed constant; the seed draws the sample path.
The MTD and probit panels come from a small MTD simulator here, because
the package only simulates the two designs of its simulation study.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

# gmmc-fit: n=20000, 3 chains, 3 states, one covariate ~ N(2, 5^2) as in
# Part I of the simulation study.  Chains 1 and 2 are covariate-driven
# (reduced logit coefficients: intercept, lag-state 2 and 3 indicators,
# covariate slope; reference state 1), chain 3 is homogeneous.
GMMC_N = 20000
X_MEAN = 2.0
X_SD = 5.0
GMMC_COEFS = (
    np.array([[0.4, 0.9, -0.3, 0.25], [-0.2, -0.5, 1.1, -0.15]]),
    np.array([[-0.6, 1.2, 0.2, -0.1], [0.3, 0.1, 0.8, 0.2]]),
)
GMMC_TRANSITION = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])

# plugin-fit: MTD-generated panels.  The probit panel stops at n=10000
# because of the run budget (see README.md).
MTD_N, MTD_CHAINS = 20000, 6
PROBIT_N, PROBIT_CHAINS = 10000, 3
MTD_STATES = 3
MTD_DESIGN_SEED = 2022  # fixed design: Dirichlet weights and rows
MIN_ROW_PROB = 0.02

FILES = {
    "gmmc-fit": ("gmmc_panel.csv", "gmmc_x.csv"),
    "plugin-fit": ("mtd_panel.csv", "probit_panel.csv"),
}


def _rng(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((tag, seed)))


def gmmc_inputs(seed: int):
    """(n, 3) state panel and (n,) covariate for the gmmc-fit workload."""
    from markovmix import simulate_homog_chain, simulate_nonhomog_chain

    rng = _rng(1, seed)
    x = rng.normal(X_MEAN, X_SD, size=GMMC_N)
    chains = [
        simulate_nonhomog_chain(coefs, x, GMMC_N, init_state=1, rng=rng)
        for coefs in GMMC_COEFS
    ]
    chains.append(simulate_homog_chain(GMMC_TRANSITION, GMMC_N, init_state=1, rng=rng))
    return np.column_stack(chains), x


def mtd_design(n_chains: int, m: int = MTD_STATES):
    """Mixture weights (s, s) and transition rows (s, s, m, m) of an MTD design."""
    rng = _rng(MTD_DESIGN_SEED, n_chains)
    weights = rng.dirichlet(np.ones(n_chains), size=n_chains)
    rows = rng.dirichlet(np.ones(m), size=(n_chains, n_chains, m))
    rows = np.maximum(rows, MIN_ROW_PROB)
    rows /= rows.sum(axis=-1, keepdims=True)
    return weights, rows


def simulate_mtd(n: int, n_chains: int, rng: np.random.Generator) -> np.ndarray:
    """Panel from the MTD design: chain j draws its next state from
    P_jk(. | state of chain k), with source k drawn from weights[j]."""
    weights, rows = mtd_design(n_chains)
    cum_rows = rows.cumsum(axis=-1)
    cum_weights = weights.cumsum(axis=1)
    chains = np.arange(n_chains)
    sources = np.empty((n - 1, n_chains), dtype=int)
    u_source = rng.random((n - 1, n_chains))
    for j in chains:
        sources[:, j] = np.minimum(
            np.searchsorted(cum_weights[j], u_source[:, j], side="right"), n_chains - 1
        )
    u_state = rng.random((n - 1, n_chains))
    states = np.zeros((n, n_chains), dtype=int)  # 0-based while simulating
    for t in range(1, n):
        k = sources[t - 1]
        cum = cum_rows[chains, k, states[t - 1, k]]
        states[t] = (u_state[t - 1][:, None] > cum[:, :-1]).sum(axis=1)
    return states + 1


def _write_panel(path: str, states: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in states.tolist())


def _write_covariate(path: str, x: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x\n")
        fh.writelines(f"{v!r}\n" for v in x.tolist())


def write_inputs(workload: str, seed: int, out_dir: str) -> dict[str, str]:
    """Write one workload's CSVs for this seed; returns {role: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if workload == "gmmc-fit":
        panel, x = gmmc_inputs(seed)
        paths["panel"] = os.path.join(out_dir, FILES[workload][0])
        paths["x"] = os.path.join(out_dir, FILES[workload][1])
        _write_panel(paths["panel"], panel)
        _write_covariate(paths["x"], x)
    elif workload == "plugin-fit":
        paths["mtd"] = os.path.join(out_dir, FILES[workload][0])
        paths["mtd-probit"] = os.path.join(out_dir, FILES[workload][1])
        _write_panel(paths["mtd"], simulate_mtd(MTD_N, MTD_CHAINS, _rng(2, seed)))
        _write_panel(
            paths["mtd-probit"], simulate_mtd(PROBIT_N, PROBIT_CHAINS, _rng(3, seed))
        )
    else:
        raise ValueError(f"workload {workload!r} reads no files")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    for workload in FILES:
        for path in write_inputs(workload, args.seed, args.out).values():
            print(path)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    sys.exit(main())
