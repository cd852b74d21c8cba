"""
Dirichlet process mixtures of product multinomials for incomplete
categorical data.

The package models rows of a categorical table as draws from a
countable mixture in which every mixture component factorizes over
the variables.  Missing entries are treated as an extra category
(coded 0) during sampling and divided back out afterwards, which
lets a single collapsed Gibbs sampler handle complete and incomplete
tables alike.

Layout
------
``catmix.core``
    Schemas, datasets, model containers, JSON serialization, and the
    one CSV writer behind every CSV that catmix writes.
``catmix.sampler``
    The collapsed Gibbs sampler: ``run_gibbs`` and the raw sweep loop
    ``iterate_states``.
``catmix.inference``
    Posterior predictive queries: imputation, joint and pairwise
    distributions, correlation summaries, exact independence tests,
    and the closed-form construction used to sanity-check the
    missingness representation.
``catmix.synth``
    Synthetic data generators, masking mechanisms, and the ratings
    preprocessing pipeline.
``catmix.metrics``
    Benchmark metrics and the replication harness.
``catmix.cli``
    Command line entry points.

The ``__all__`` of each of the first five modules declares its public
names; the package re-exports exactly those, and its ``__all__`` is
their union.  Other module-level names stay importable from their
modules.
"""

from catmix import core, sampler, inference, synth, metrics  # dependency order

__version__ = "0.1.0"

_public = {name: getattr(module, name)
           for module in (core, sampler, inference, synth, metrics)
           for name in module.__all__}
globals().update(_public)
__all__ = list(_public)
