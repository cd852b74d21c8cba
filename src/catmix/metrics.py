"""
Benchmark metrics and the replication harness.

A replication draws a fresh synthetic dataset, masks it, fits the
mixture, imputes, and scores the result.  The harness repeats this for
independently seeded replications, optionally across worker processes,
and reports per-replication values plus their mean and spread.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from catmix.core import (
    CollapsedModel, Dataset, _check_count, _csv, as_generator)
from catmix.inference import (
    correlation_matrix,
    impute,
    pool_draws,
    saturated_model,
)
from catmix.sampler import GibbsConfig, run_gibbs
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

#: Default row counts per protocol.
_PROTOCOL_N = {"mixture": 50, "xor": 300}


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
        """JSON-friendly summary block."""
        return {
            "protocol": self.protocol,
            "mechanism": self.mechanism.kind,
            "replications": self.n_replications,
            "seed": self.seed if isinstance(self.seed, (int, type(None))) else repr(self.seed),
            "metrics": {
                m: {"mean": self.means[m], "sd": self.sds[m]}
                for m in self.metric_names
            },
        }


def simulate(protocol: str, n: int | None = None, p: int = 20, k: int = 3,
             cardinality=2, seed=None) -> tuple[Dataset, CollapsedModel]:
    """Draw one complete benchmark dataset and its generating mixture.

    Parameters
    ----------
    protocol : {"mixture", "xor"}
        "mixture" draws from a random product-multinomial mixture (see
        :func:`~catmix.synth.sample_mixture_dataset`); "xor" draws the
        exclusive-or data, whose truth is the point-mass mixture of its
        joint table.
    n : int, optional
        Rows; defaults to 50 (mixture) or 300 (xor).
    p, k : int
        Mixture protocol dimensions (ignored by xor).
    cardinality : int or sequence
        Mixture protocol cardinalities (ignored by xor).
    seed : int, SeedSequence or Generator, optional

    Returns
    -------
    (Dataset, CollapsedModel)
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if n is None:
        n = _PROTOCOL_N[protocol]
    if protocol == "mixture":
        return sample_mixture_dataset(
            n=n, p=p, k=k, cardinality=cardinality, seed=seed
        )
    data, joint = sample_xor_dataset(n=n, seed=seed)
    return data, saturated_model(joint)


def _replicate(seed_seq, protocol: str, mechanism: MechanismSpec,
               gibbs: GibbsConfig, n: int | None, p: int, k: int,
               cardinality) -> dict:
    """Run one benchmark replication on its own random stream."""
    rng = as_generator(seed_seq)
    data, truth_model = simulate(protocol, n, p, k, cardinality, seed=rng)
    masked, record = mask(data, mechanism, seed=rng)
    sample = run_gibbs(masked, config=gibbs, seed=rng)
    completed = impute(masked, sample, rule="argmax").completed
    pooled = pool_draws(sample)
    return {
        "accuracy": imputation_accuracy(completed, data, record),
        "correlation_gap": correlation_gap(
            correlation_matrix(pooled), correlation_matrix(truth_model)
        ),
        "estimated_k": float(sample.modal_k),
    }


def run_replications(protocol: str, mechanism: MechanismSpec | None = None,
                     reps: int = 20, gibbs: GibbsConfig | None = None,
                     seed=None, jobs: int = 1, n: int | None = None,
                     p: int = 20, k: int = 3, cardinality=2,
                     on_result=None) -> ReplicationReport:
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
        Defaults to MCAR at rate 0.2.
    reps : int
    gibbs : GibbsConfig, optional
    seed : int or SeedSequence, optional
    jobs : int
        Worker processes, at most one per replication; 1 runs in-process.
    n, p, k, cardinality
        Dataset shape, passed to :func:`simulate`.
    on_result : callable, optional
        Called as ``on_result(i, metrics)`` as each replication finishes,
        in replication order.  When a replication raises, the callback
        has seen exactly the replications before it.

    Returns
    -------
    ReplicationReport
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    _check_count("reps", reps, 1)
    _check_count("jobs", jobs, 1)
    if mechanism is None:
        mechanism = MechanismSpec.mcar()
    if gibbs is None:
        gibbs = GibbsConfig()

    master = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    children = master.spawn(reps)
    task = partial(
        _replicate, protocol=protocol, mechanism=mechanism, gibbs=gibbs,
        n=n, p=p, k=k, cardinality=cardinality,
    )
    results: list[dict] = []
    jobs = min(jobs, reps)
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for i, rep in enumerate((pool.map if pool else map)(task, children)):
            results.append(rep)
            if on_result is not None:
                on_result(i, rep)
    return ReplicationReport(
        protocol=protocol,
        mechanism=mechanism,
        per_replication=tuple(results),
        seed=seed,
    )
