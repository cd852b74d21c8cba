"""
Any joint table plus any missingness pattern fits inside the model
==================================================================

Given an arbitrary joint distribution pi over categorical variables and
arbitrary per-cell missingness probabilities q, one can write down a
mixture with one component per cell that reproduces both exactly: the
component puts q on the missing code and the rest on its cell's
categories.  Rescaling the missing mass away returns pi to the last
bit, which is what verify_construction measures.
"""

import numpy as np

from catmix import (
    CategoricalSchema,
    CollapsedModel,
    JointDistribution,
    MissingnessTable,
    construct_saturated_model,
    joint_distribution,
    verify_construction,
)
from catmix.core import rescale_missing

rng = np.random.default_rng(3)
schema = CategoricalSchema([2, 3, 2])

raw = rng.random((2, 3, 2))
raw[0, 2, 1] = 0.0  # an impossible cell, to show zeros are respected
pi = JointDistribution(schema, raw / raw.sum())

# missingness may depend on the variable AND on the full hidden cell
q = MissingnessTable(schema, rng.uniform(0.0, 0.9, (3, 2, 3, 2)))

augmented = construct_saturated_model(pi, q)
print(f"{augmented.k} components for {schema.n_cells()} cells "
      f"({np.count_nonzero(pi.table)} with positive probability)")

report = verify_construction(augmented, pi, q)
print(f"joint table error:  {report.pi_error}")
print(f"missingness error:  {report.q_error}")

# The rescaled components are exact point masses, so rebuilding the
# joint recovers pi bit for bit.  Each component's psi lays the codes
# 0 .. d_j of every variable end to end; rescaling drops the missing
# code 0 of each and leaves one flat table over the observable codes.
probs = rescale_missing(augmented.psi, schema)
implied = joint_distribution(
    CollapsedModel(schema, augmented.theta, probs))
print(f"tables identical: {np.array_equal(implied.table, pi.table)}")
