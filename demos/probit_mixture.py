"""Normal-CDF-link mixture over plug-in transition probabilities.

The probit parameterization is unconstrained, so the likelihood is
maximized by BFGS on its closed-form score.  The demo fits a persistent
chain next to a noisy one and shows the conditional probabilities
implied by the fitted parameters.
"""

import numpy as np

from markovmix import (
    Panel,
    estimate_mtd_probit,
    format_report,
    probit_distribution,
    simulate_homog_chain,
)

rng = np.random.default_rng(7)
n = 1500

persistent = simulate_homog_chain(np.array([[0.85, 0.15], [0.2, 0.8]]), n, rng=rng)
noisy = simulate_homog_chain(np.array([[0.55, 0.45], [0.45, 0.55]]), n, rng=rng)
panel = Panel(np.column_stack([persistent, noisy]), (2, 2))

fit = estimate_mtd_probit(panel, initial=[1.0, 1.0, 1.0])
print(format_report(fit.fit_report))

print("\nconditional distributions of chain 0's next state:")
for lag in [(1, 1), (1, 2), (2, 1), (2, 2)]:
    dist = probit_distribution(fit.transmats, fit.etas[0], 0, lag)
    print(f"  lagged states {lag}: {np.round(dist, 3)}")
