"""Likelihood-based mixture weights for coupled categorical chains.

Chain 0 is built to shadow chain 1 with a one-step delay, so the
mixture weight on chain 1 in equation 0 should approach one.  The
demo fits the mixture by maximum likelihood (one Newton solve on the
simplex per equation), prints the reference-style report with each
equation's convergence flag, and compares the weights with the min-max
estimator on the stationary profiles.
"""

import numpy as np

from markovmix import (estimate_lambda_minmax, estimate_mtd, format_report, mtd_loglik,
                       simulate_homog_chain)

rng = np.random.default_rng(42)
n = 800

driver = simulate_homog_chain(np.array([[0.75, 0.25], [0.35, 0.65]]), n, rng=rng)
# shadow copies the driver's previous state 90% of the time
shadow = np.empty(n, dtype=int)
shadow[0] = 1
flips = rng.random(n - 1)
for t in range(1, n):
    shadow[t] = driver[t - 1] if flips[t - 1] < 0.9 else 3 - driver[t - 1]

from markovmix import Panel

panel = Panel(np.column_stack([shadow, driver]), (2, 2))

model = estimate_mtd(panel)
print("maximum-likelihood weights (rows = equations):")
print(np.round(model.weights, 4))
print("converged:", model.converged)
print()
print(format_report(model.fit_report))

minmax = estimate_lambda_minmax(panel)
print("min-max weights:")
print(np.round(minmax, 4))
print("log-likelihood gain of maximum likelihood over min-max:",
      np.round(model.logliks - mtd_loglik(panel, minmax, model.transmats), 6))
