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
    Schemas, datasets, model containers, CSV and JSON serialization.
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
"""

from catmix.core import (
    CategoricalSchema,
    CollapsedModel,
    Dataset,
    JointDistribution,
    LoadError,
    MissingnessTable,
    ModelState,
    ParseError,
    dataset_to_csv,
    deserialize_models,
    model_from_dict,
    model_to_dict,
    parse_dataset,
    serialize_model,
    serialize_models,
)
from catmix.sampler import (
    GibbsConfig,
    PosteriorSample,
    collapse_state,
    iterate_states,
    run_gibbs,
)
from catmix.inference import (
    AugmentedModel,
    ConstructionReport,
    ImputationResult,
    class_posterior,
    construct_saturated_model,
    correlation_matrix,
    fisher_exact_2x2,
    impute,
    joint_distribution,
    largest_remainder_counts,
    pair_marginal,
    pairwise_independence,
    pool_draws,
    predictive_cell,
    saturated_model,
    verify_construction,
)
from catmix.synth import (
    MaskResult,
    MechanismSpec,
    mask,
    mask_fraction,
    parse_ratings_csv,
    preprocess_ratings,
    sample_mixture_dataset,
    sample_xor_dataset,
)
from catmix.metrics import (
    ReplicationReport,
    correlation_gap,
    imputation_accuracy,
    run_replications,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedModel",
    "CategoricalSchema",
    "CollapsedModel",
    "ConstructionReport",
    "Dataset",
    "GibbsConfig",
    "ImputationResult",
    "JointDistribution",
    "LoadError",
    "MaskResult",
    "MechanismSpec",
    "MissingnessTable",
    "ModelState",
    "ParseError",
    "PosteriorSample",
    "ReplicationReport",
    "class_posterior",
    "collapse_state",
    "construct_saturated_model",
    "correlation_gap",
    "correlation_matrix",
    "dataset_to_csv",
    "deserialize_models",
    "fisher_exact_2x2",
    "impute",
    "imputation_accuracy",
    "iterate_states",
    "joint_distribution",
    "largest_remainder_counts",
    "mask",
    "mask_fraction",
    "model_from_dict",
    "model_to_dict",
    "pair_marginal",
    "pairwise_independence",
    "parse_dataset",
    "parse_ratings_csv",
    "predictive_cell",
    "preprocess_ratings",
    "pool_draws",
    "run_gibbs",
    "run_replications",
    "sample_mixture_dataset",
    "sample_xor_dataset",
    "saturated_model",
    "serialize_model",
    "serialize_models",
    "verify_construction",
]
