"""
Fitting and imputing a small incomplete table
=============================================

A walk through the core loop: parse a CSV with missing entries, fit the
mixture by Gibbs sampling, and fill the holes from the posterior
predictive.
"""

from catmix import (
    CategoricalSchema,
    GibbsConfig,
    dataset_to_csv,
    impute,
    k_histogram,
    parse_dataset,
    run_gibbs,
)

CSV = """\
color,size,texture
1,2,1
1,2,NA
2,1,2
2,NA,2
1,2,1
NA,1,2
2,1,2
1,2,NA
2,1,2
1,NA,1
"""

data = parse_dataset(CSV, CategoricalSchema([2, 2, 2]))
print(f"{data.n_rows} rows, {data.n_variables} variables, "
      f"{data.n_missing()} missing cells")

# A short chain is plenty for ten rows.
draws = run_gibbs(data, config=GibbsConfig(burnin=100, samples=50, thin=1),
                  seed=0)
print(f"retained {len(draws)} draws, "
      f"component count histogram: {k_histogram([m.k for m in draws])}")

result = impute(data, draws)
print("\ncompleted table:")
print(dataset_to_csv(result.completed))

print("predictive probabilities of the filled cells:")
# filled lists each cell's (row, column) in row-major order, and row c
# of cell_posteriors its vector over codes 1..d_j, zero padded after d_j
cards = data.schema.cardinalities
for (i, j), vec in zip(result.filled.tolist(), result.cell_posteriors):
    name = data.column_names[j]
    shown = ", ".join(f"P({name}={c})={p:.2f}"
                      for c, p in enumerate(vec[:cards[j]], start=1))
    print(f"  row {i}: {shown}")

# The rows with strong within-row agreement get confident fills; the
# probabilities above come from averaging each retained draw's own
# predictive, so they carry posterior uncertainty as well.
print(f"\nmost confident fill: {result.cell_posteriors.max():.2f}")
