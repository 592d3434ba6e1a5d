"""Covariate-driven mixture: fit, inference, and conditional matrices.

Chain 0's transition probabilities move with an exogenous series x
(its previous value), chain 1 is a plain homogeneous chain.  After the
constrained fit, the weight on chain 0's own conditionals should be
near one and strongly significant.  The payoff of the covariate model
is at the end: the equation-level transition matrix evaluated at
different covariate values, plus smoothed fitted probability paths.
"""

import os
import tempfile

import numpy as np

from markovmix import (
    CovariateMatrix,
    Panel,
    conditional_transition_matrix,
    estimate_gmmc,
    format_report,
    load_fit,
    save_fit,
    simulate_homog_chain,
    simulate_nonhomog_chain,
    smoothed_conditional_probs,
    transition_edge_list,
)

rng = np.random.default_rng(23)
n = 2000

x = rng.normal(2.0, 5.0, size=n)
own_coefs = np.array([[-1.1, 1.5, 0.5]])  # intercept, lag-2 indicator, slope on x
s0 = simulate_nonhomog_chain(own_coefs, x, n, rng=rng)
s1 = simulate_homog_chain(np.array([[0.6, 0.4], [0.3, 0.7]]), n, rng=rng)

panel = Panel(np.column_stack([s0, s1]), (2, 2))
covariates = CovariateMatrix(x.reshape(-1, 1), ["x"])

fit = estimate_gmmc(panel, covariates, initial=[1.0, 1.0], x_lag=1)
print(format_report(fit.fit_report))

for x_value in (np.min(x), np.mean(x), np.max(x)):
    matrix = conditional_transition_matrix(fit, 0, x_value)
    print(f"equation-0 transition matrix at x = {x_value:+.2f}:")
    print(np.round(matrix, 3), "\n")

print("edge list at x = 0 (source, destination, probability):")
for edge in transition_edge_list(fit, 0, 0.0):
    print("  ", edge)

smoothed = smoothed_conditional_probs(fit, panel, covariates, 0, 0, window=5)
print("\nsmoothed own-lag probability paths (first 5 rows):")
print(np.round(smoothed[:5], 3))

with tempfile.TemporaryDirectory() as tmp:
    fit_path = os.path.join(tmp, "covariate_mixture_fit.json")
    save_fit(fit, fit_path)
    reloaded = load_fit(fit_path)
    print(f"\nfit serialized to {fit_path} (the transmat CLI command reads it);")
    print("reloaded matrix at x = 0 matches:",
          np.array_equal(conditional_transition_matrix(reloaded, 0, 0.0),
                         conditional_transition_matrix(fit, 0, 0.0)))
    print("reloaded smoothed paths match:",
          np.array_equal(smoothed_conditional_probs(reloaded, panel, covariates, 0, 0), smoothed))
