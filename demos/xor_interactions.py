"""
Recovering a three-way rule that pairwise summaries understate
==============================================================

The third variable is the exclusive-or of the first two (with 5%
noise).  The first bit on its own looks unrelated to the third — their
correlation is zero and the 2x2 exact test is far from significant —
yet together with the second bit it determines the third almost
deterministically.  The mixture learns the full joint rule.
"""

import numpy as np

from catmix import (
    correlation_matrix,
    k_histogram,
    modal_k,
    pairwise_independence,
    pool_draws,
    predictive_cell,
    run_gibbs,
    sample_xor_dataset,
    saturated_model,
)

data, joint = sample_xor_dataset(n=300, seed=7)
truth = saturated_model(joint)

print("pairwise correlations of the generating distribution:")
print(np.round(correlation_matrix(truth), 3))
# V1 is uncorrelated with both others; only V2-V3 shows a moderate
# 0.38 (a side effect of V1 being Bernoulli(0.3) rather than fair).

draws = run_gibbs(data, seed=8)
pooled = pool_draws(draws)
ks = [m.k for m in draws]
print(f"\nfitted with modal component count {modal_k(ks)} "
      f"(histogram {k_histogram(ks)})")

print("\npairwise independence tests on the fitted model (n=300):")
for j1, j2, p in pairwise_independence(pooled, data.n_rows):
    print(f"  V{j1 + 1} vs V{j2 + 1}: p = {p:.3f}")

# Pairwise, V1 appears disconnected from V3.  But conditioning on both
# observed bits pins the missing third at ~0.95+, far beyond what the
# 0.38 correlation alone could deliver.
print("\npredicting V3 from the first two bits:")
for v1, v2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
    consistent = ((v1 - 1) ^ (v2 - 1)) + 1
    vec = predictive_cell([v1, v2, 0], 2, pooled)
    print(f"  V1={v1}, V2={v2}: P(V3={consistent}) = {vec[consistent - 1]:.3f}"
          f"  (true 0.975)")
