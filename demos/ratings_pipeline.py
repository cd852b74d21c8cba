"""
From rating triples to a dense matrix, with held-out recovery
=============================================================

Raw (user, item, rating) triples are filtered to the items enough
users rated and the users covering enough of those items, coded as
like/dislike, masked further, refit and imputed.  Accuracy on the
hidden cells says how much structure the kept matrix carries.
"""

import numpy as np

from catmix import (
    MechanismSpec,
    imputation_accuracy,
    impute,
    mask_fraction,
    modal_k,
    preprocess_ratings,
    run_gibbs,
)

rng = np.random.default_rng(12)

# Synthesize triples from two taste groups over 20 items: group 0
# likes the even items, group 1 the odd ones, with some noise.
triples = []
for user in range(60):
    group = user % 2
    for item in range(20):
        if rng.random() < 0.15:  # unrated
            continue
        likes = (item % 2 == group) ^ (rng.random() < 0.1)
        triples.append((user, item, 4.5 if likes else 1.5))

data = preprocess_ratings(triples, item_threshold=0.25,
                          user_threshold=0.5)
print(f"kept matrix: {data.n_rows} users x {data.n_variables} items, "
      f"{data.n_missing() / data.cells.size:.1%} unrated")

masked, record = mask_fraction(data, 0.4, seed=13)
print(f"hid {len(record)} observed cells "
      f"({record.fraction:.1%} of the matrix)")

draws = run_gibbs(masked, seed=14)
k = modal_k([m.k for m in draws])
print(f"modal component count: {k} "
      f"(the two taste groups{' found' if k == 2 else ''})")

completed = impute(masked, draws).completed
acc = imputation_accuracy(completed, data, record)
print(f"recovered {acc:.1%} of the hidden like/dislike codes")
