"""
Benchmark metrics and the replication harness.

A replication draws a fresh synthetic dataset, masks it, fits the
mixture, imputes, and scores the result.  The harness repeats this for
independently seeded replications, optionally across worker processes,
and reports per-replication values plus their mean and spread.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from catmix.core import (
    CollapsedModel, Dataset, _check_count, _csv)
from catmix.inference import (
    correlation_matrix,
    impute,
    pool_draws,
    saturated_model,
)
from catmix.sampler import GibbsConfig, modal_k, run_gibbs
from catmix.synth import (
    MaskResult,
    MechanismSpec,
    mask,
    sample_mixture_dataset,
    sample_xor_dataset,
)

__all__ = [
    "ReplicationReport",
    "correlation_gap",
    "imputation_accuracy",
    "run_replications",
]

PROTOCOLS = ("mixture", "xor")


def imputation_accuracy(imputed: Dataset, truth: Dataset,
                        record: MaskResult) -> float:
    """Fraction of masked cells whose imputed code equals the truth.

    Parameters
    ----------
    imputed : Dataset
        The completed dataset.
    truth : Dataset
        The original complete dataset.
    record : MaskResult
        Which cells were masked.

    Raises
    ------
    ValueError
        If the schemas differ or the mask is empty (the metric is
        undefined without masked cells).
    """
    if imputed.schema.cardinalities != truth.schema.cardinalities:
        raise ValueError("imputed and truth datasets have different schemas")
    if imputed.cells.shape != truth.cells.shape:
        raise ValueError("imputed and truth datasets have different shapes")
    if len(record) == 0:
        raise ValueError("accuracy is undefined for an empty mask")
    got = imputed.cells[record.rows, record.cols]
    want = truth.cells[record.rows, record.cols]
    return float(np.mean(got == want))


def correlation_gap(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Sum of squared entrywise differences between correlation matrices.

    Runs over all entries including the diagonal (which contributes 0
    when both diagonals are 1) and therefore counts each variable pair
    twice, once per triangle.
    """
    estimated = np.asarray(estimated, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimated.shape != truth.shape:
        raise ValueError(
            f"matrix shapes differ: {estimated.shape} vs {truth.shape}"
        )
    return float(((estimated - truth) ** 2).sum())


@dataclass(frozen=True)
class ReplicationReport:
    """Per-replication benchmark metrics with summary statistics.

    Attributes
    ----------
    protocol : str
    mechanism : MechanismSpec
    per_replication : tuple of dict
        One metric dictionary per replication, in replication order.
    seed : object
        The master seed the replication seeds were spawned from.
    """

    protocol: str
    mechanism: MechanismSpec
    per_replication: tuple[dict, ...]
    seed: object = None

    @property
    def n_replications(self) -> int:
        return len(self.per_replication)

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(self.per_replication[0])

    def values(self, name: str) -> np.ndarray:
        return np.asarray([r[name] for r in self.per_replication], dtype=np.float64)

    @property
    def means(self) -> dict[str, float]:
        return {m: float(self.values(m).mean()) for m in self.metric_names}

    @property
    def sds(self) -> dict[str, float]:
        """Across-replication sample standard deviations.

        This is the spread of the replication values themselves, not of
        their mean.  With a single replication it is reported as NaN.
        """
        out = {}
        for m in self.metric_names:
            v = self.values(m)
            out[m] = float(v.std(ddof=1)) if v.size > 1 else math.nan
        return out

    def to_csv(self) -> str:
        """One row per replication, columns in metric order."""
        rows = ((i, *map(float, rep.values()))
                for i, rep in enumerate(self.per_replication))
        return _csv(("replication", *self.metric_names), rows)

    def summary(self) -> dict:
        """JSON-friendly summary block; an undefined spread is ``None``."""
        sds = {m: None if math.isnan(sd) else sd for m, sd in self.sds.items()}
        return {
            "protocol": self.protocol,
            "mechanism": self.mechanism.kind,
            "replications": self.n_replications,
            "seed": self.seed if isinstance(self.seed, (int, type(None))) else repr(self.seed),
            "metrics": {
                m: {"mean": self.means[m], "sd": sds[m]}
                for m in self.metric_names
            },
        }


def simulate(protocol: str, seed=None,
             **table) -> tuple[Dataset, CollapsedModel]:
    """Draw one complete benchmark dataset and its generating mixture.

    Parameters
    ----------
    protocol : {"mixture", "xor"}
        "mixture" draws from a random product-multinomial mixture (see
        :func:`~catmix.synth.sample_mixture_dataset`); "xor" draws the
        exclusive-or data (see :func:`~catmix.synth.sample_xor_dataset`),
        whose truth is the point-mass mixture of its joint table.
    seed : int, SeedSequence or Generator, optional
    **table
        Keywords of the protocol's generator, whose defaults apply; xor
        takes only ``n`` and refuses others with ``TypeError``.

    Returns
    -------
    (Dataset, CollapsedModel)
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if protocol == "mixture":
        return sample_mixture_dataset(seed=seed, **table)
    data, joint = sample_xor_dataset(seed=seed, **table)
    return data, saturated_model(joint)


def _replicate(seed_seq, protocol: str, mechanism: MechanismSpec,
               gibbs: GibbsConfig, **table) -> dict:
    """Run one benchmark replication on its own random stream."""
    rng = np.random.default_rng(seed_seq)
    data, truth_model = simulate(protocol, seed=rng, **table)
    masked, record = mask(data, mechanism, seed=rng)
    draws = run_gibbs(masked, config=gibbs, seed=rng)
    completed = impute(masked, draws, rule="argmax").completed
    pooled = pool_draws(draws)
    return {
        "accuracy": imputation_accuracy(completed, data, record),
        "correlation_gap": correlation_gap(
            correlation_matrix(pooled), correlation_matrix(truth_model)
        ),
        "estimated_k": float(modal_k([m.k for m in draws])),
    }


def run_replications(protocol: str, mechanism: MechanismSpec = MechanismSpec(),
                     reps: int = 20, gibbs: GibbsConfig = GibbsConfig(),
                     seed=None, jobs: int = 1, on_result=None,
                     **table) -> ReplicationReport:
    """Repeat a synthetic benchmark and aggregate its metrics.

    Each replication re-synthesizes the data, masks it with
    ``mechanism``, fits with ``gibbs``, imputes by the argmax rule, and
    records accuracy, correlation gap against the generating truth, and
    the modal component count.  Replication seeds are spawned from
    ``seed``, so the report is reproducible and does not depend on
    ``jobs``.

    Parameters
    ----------
    protocol : {"mixture", "xor"}
    mechanism : MechanismSpec, optional
        The kind and rates of the masking; MCAR at rate 0.2 by default.
    reps : int
    gibbs : GibbsConfig, optional
    seed : int or SeedSequence, optional
    jobs : int
        Worker processes, at most one per replication; 1 runs in-process.
    on_result : callable, optional
        Called as ``on_result(report)`` as each replication finishes, in
        replication order, with the report of the replications so far.
        When a replication raises, the callback has seen exactly the
        replications before it.
    **table
        The dataset's shape, passed unchanged to :func:`simulate`.

    Returns
    -------
    ReplicationReport
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    _check_count("reps", reps, 1)
    _check_count("jobs", jobs, 1)

    master = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    children = master.spawn(reps)
    task = partial(_replicate, protocol=protocol, mechanism=mechanism,
                   gibbs=gibbs, **table)
    results: list[dict] = []
    jobs = min(jobs, reps)
    if jobs > 1:  # imported here: it loads multiprocessing, about 2 MB
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for rep in (pool.map if pool else map)(task, children):
            results.append(rep)
            report = ReplicationReport(protocol, mechanism, tuple(results), seed)
            if on_result is not None:
                on_result(report)
    return report
