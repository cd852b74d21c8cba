"""
Posterior predictive queries on fitted mixtures.

The functions here consume :class:`~catmix.core.CollapsedModel` objects
(single draws, pooled draws, or hand-built models) and never touch the
sampler, so they work equally on fitted and synthetic models.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from catmix.core import (
    DEFAULT_CELL_LIMIT,
    CategoricalSchema,
    CollapsedModel,
    Dataset,
    JointDistribution,
    MissingnessTable,
    _check_shape,
    _check_tables,
    _check_weights,
    _checked,
    _freeze,
    rescale_missing,
)

__all__ = [
    "AugmentedModel",
    "ConstructionReport",
    "ImputationResult",
    "class_posterior",
    "construct_saturated_model",
    "correlation_matrix",
    "fisher_exact_2x2",
    "impute",
    "joint_distribution",
    "largest_remainder_counts",
    "pair_marginal",
    "pairwise_independence",
    "pool_draws",
    "predictive_cell",
    "saturated_model",
    "verify_construction",
]


@dataclass(frozen=True)
class ImputationResult:
    """A completed dataset plus the predictive vector of each filled cell.

    Attributes
    ----------
    completed : Dataset
        The input dataset with every missing cell replaced by a code in
        ``1 .. d_j``.
    cell_posteriors : dict
        Maps ``(row, column)`` of each originally missing cell to its
        averaged predictive probability vector over the codes
        ``1 .. d_j``.
    """

    completed: Dataset
    cell_posteriors: dict[tuple[int, int], np.ndarray]


def _as_draws(posterior) -> list[CollapsedModel]:
    """Accept a PosteriorSample, a model list, or a single model."""
    if isinstance(posterior, CollapsedModel):
        return [posterior]
    draws = list(getattr(posterior, "draws", posterior))
    for m in draws:
        if not isinstance(m, CollapsedModel):
            raise ValueError(f"expected CollapsedModel draws, got {type(m).__name__}")
    return list(_checked(draws))


def pool_draws(posterior) -> CollapsedModel:
    """Concatenate posterior draws into one mixture.

    Each draw's components enter with weight ``theta / n_draws``.  For
    any quantity that is linear in the joint distribution (joint tables,
    pair marginals and the moments behind the correlation matrix) the
    pooled model gives exactly the average over draws.
    """
    draws = _as_draws(posterior)
    theta = np.concatenate([m.theta for m in draws]) / len(draws)
    tilde = np.concatenate([m.tilde_psi for m in draws], axis=0)
    return CollapsedModel(draws[0].schema, theta, tilde)


# ---------------------------------------------------------------------------
# Class posteriors and imputation
# ---------------------------------------------------------------------------

def class_posterior(row, model: CollapsedModel) -> np.ndarray:
    """Posterior component probabilities for one partially observed row.

    Parameters
    ----------
    row : array-like of int, shape (p,)
        Codes in ``0 .. d_j``; zeros mark unobserved cells and
        contribute no evidence.  An all-zero row returns the mixture
        weights themselves.
    model : CollapsedModel

    Returns
    -------
    ndarray, shape (k,)

    Raises
    ------
    ValueError
        If the row has probability zero under every component.
    """
    row = _check_row(row, model)
    return next(_class_posteriors([model], row[None, :], [0]))[0]


def predictive_cell(row, j: int, model: CollapsedModel) -> np.ndarray:
    """Predictive distribution of one missing cell given the observed row.

    Parameters
    ----------
    row : array-like of int, shape (p,)
    j : int
        Variable index; ``row[j]`` must be 0 (missing).
    model : CollapsedModel

    Returns
    -------
    ndarray, shape (d_j,)
        ``P(x_j = c | observed cells)`` for codes ``c = 1 .. d_j``.
    """
    row = _check_row(row, model)
    if not 0 <= j < model.n_variables:
        raise ValueError(f"variable index {j} out of range")
    if row[j] != 0:
        raise ValueError(
            f"variable {j} is observed (code {row[j]}); the predictive "
            "is only defined for missing cells"
        )
    post = class_posterior(row, model)
    d = model.schema.cardinalities[j]
    return post @ model.tilde_psi[:, j, :d]


def impute(data: Dataset, posterior, rule: str = "argmax",
           seed=None) -> ImputationResult:
    """Fill every missing cell of a dataset from the posterior predictive.

    For each missing cell the predictive vector is computed under every
    retained draw separately (each draw normalizes its own component
    posterior) and the vectors are averaged.  The fill-in rule is then
    either the most probable code, ties going to the lowest code, or a
    random code drawn from the averaged predictive.

    Parameters
    ----------
    data : Dataset
    posterior : PosteriorSample, sequence of CollapsedModel, or CollapsedModel
    rule : {"argmax", "sample"}
    seed : int, SeedSequence or Generator, optional
        Only used by the "sample" rule, which draws one uniform per
        missing cell, in row-major order.

    Returns
    -------
    ImputationResult
    """
    if rule not in ("argmax", "sample"):
        raise ValueError(f"rule must be 'argmax' or 'sample', got {rule!r}")
    draws = _as_draws(posterior)
    if draws[0].schema.cardinalities != data.schema.cardinalities:
        raise ValueError(
            f"model cardinalities {draws[0].schema.cardinalities} do not "
            f"match the dataset's {data.schema.cardinalities}"
        )
    cells = np.asarray(data.cells)
    miss = cells == 0
    if not miss.any():
        return ImputationResult(data, {})

    hit_rows = np.nonzero(miss.any(axis=1))[0]
    width = data.schema.max_cardinality
    acc = np.zeros((hit_rows.size, data.n_variables, width))
    for m, post in zip(draws, _class_posteriors(draws, cells[hit_rows],
                                                hit_rows)):
        acc += np.einsum("mk,kjc->mjc", post, m.tilde_psi)
    acc /= len(draws)

    # one uniform per cell in row-major order, as Generator.choice(d, p=vec)
    # spends it: the code is the count of cdf / cdf[-1] that are <= u
    local, cols = np.nonzero(miss[hit_rows])
    rows = hit_rows[local]
    cards = data.schema.codes_array()[cols]
    u = np.random.default_rng(seed).random(cols.size) if rule == "sample" else None
    probs = np.zeros((cols.size, width))
    completed = cells.copy()
    for d in set(data.schema.cardinalities):
        at = np.nonzero(cards == d)[0]
        vec = acc[local[at], cols[at], :d]
        vec = vec / vec.sum(axis=1, keepdims=True)
        probs[at, :d] = vec
        if rule == "argmax":
            completed[rows[at], cols[at]] = vec.argmax(axis=1) + 1
        else:
            cdf = vec.cumsum(axis=1)
            completed[rows[at], cols[at]] = (
                cdf / cdf[:, -1:] <= u[at, None]).sum(axis=1) + 1
    probs.setflags(write=False)
    cell_posteriors = {(i, j): probs[c, :d] for c, (i, j, d) in enumerate(
        zip(rows.tolist(), cols.tolist(), cards.tolist()))}
    return ImputationResult(data.replace_cells(completed), cell_posteriors)


def _class_posteriors(draws, cells: np.ndarray, rows):
    """Yield each draw's (m, k) component posteriors for a batch of rows.

    ``cells`` is (m, p) with zeros marking unobserved entries, and
    ``rows[i]`` is the dataset index that error messages give for
    ``cells[i]``.  Draws are taken in groups whose evidence and log
    table hold about 2**15 floats.  A group's evidence is summed one
    variable at a time from a table with one row per variable and code
    ``0 .. D``, whose code-0 rows are zero, so a missing cell adds 0.0.
    """
    m, p = cells.shape
    width = draws[0].schema.max_cardinality + 1
    idx = cells + width * np.arange(p)
    step = max(1, 2 ** 15 // ((m + p * width) * max(g.k for g in draws)))
    for start in range(0, len(draws), step):
        group = draws[start:start + step]
        with np.errstate(divide="ignore"):
            log_tilde = np.log(np.concatenate([g.tilde_psi for g in group]))
        table = np.zeros((p * width, log_tilde.shape[0]))
        table.reshape(p, width, -1)[:, 1:] = log_tilde.transpose(1, 2, 0)
        evidence = table[idx[:, 0]]
        for j in range(1, p):
            evidence += table[idx[:, j]]
        ends = np.cumsum([g.k for g in group])
        for model, end in zip(group, ends):
            with np.errstate(divide="ignore"):
                logpost = np.log(model.theta) + evidence[:, end - model.k:end]
            top = logpost.max(axis=1, keepdims=True)
            if np.isneginf(top).any():
                bad = np.nonzero(np.isneginf(top.ravel()))[0][0]
                raise ValueError(
                    f"row {rows[bad]} has probability zero under every component"
                )
            shifted = logpost - top
            norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            yield np.exp(shifted - norm)


def _check_row(row, model: CollapsedModel) -> np.ndarray:
    row = np.asarray(row, dtype=np.int64)
    cards = model.schema.codes_array()
    _check_shape(row, (model.n_variables,), "row")
    if (row < 0).any() or (row > cards).any():
        raise ValueError("row codes must lie in 0 .. d_j for each variable")
    return row


# ---------------------------------------------------------------------------
# Joint, marginal and correlation summaries
# ---------------------------------------------------------------------------

def joint_distribution(model: CollapsedModel) -> JointDistribution:
    """Dense joint probability table implied by the mixture.

    ``table[c1 - 1, ..., cp - 1] = sum_h theta_h prod_j tilde_psi[h, j, cj - 1]``.

    Raises
    ------
    ValueError
        If the table would exceed ``DEFAULT_CELL_LIMIT`` cells; use
        :func:`pair_marginal` for high-dimensional models instead.
    """
    schema = model.schema
    if schema.n_cells() > DEFAULT_CELL_LIMIT:
        raise ValueError(
            f"joint table would hold {schema.n_cells()} cells "
            f"(limit {DEFAULT_CELL_LIMIT}); query pair_marginal instead"
        )
    cards = schema.cardinalities
    table = np.zeros(cards)
    for h in range(model.k):
        block = np.asarray(model.theta[h])
        for j, d in enumerate(cards):
            block = np.multiply.outer(block, model.tilde_psi[h, j, :d])
        table += block
    return JointDistribution(schema, table)


def pair_marginal(model: CollapsedModel, j1: int, j2: int) -> np.ndarray:
    """Joint probability table of two variables, shape (d_j1, d_j2).

    Computed from the component structure directly, without building
    the full joint.
    """
    p = model.n_variables
    if not (0 <= j1 < p and 0 <= j2 < p):
        raise ValueError(f"variable indices ({j1}, {j2}) out of range")
    if j1 == j2:
        raise ValueError("pair_marginal needs two distinct variables")
    d1 = model.schema.cardinalities[j1]
    d2 = model.schema.cardinalities[j2]
    return np.einsum(
        "h,hc,hd->cd",
        model.theta,
        model.tilde_psi[:, j1, :d1],
        model.tilde_psi[:, j2, :d2],
    )


def correlation_matrix(model: CollapsedModel) -> np.ndarray:
    """Pearson correlations of the integer-coded variables.

    Codes ``1 .. d_j`` are treated as numeric values; for binary
    variables this is the phi coefficient.  A variable with zero
    variance gets correlation 0 with everything (its diagonal entry
    stays 1), which keeps downstream gap sums finite.
    """
    cards = model.schema.codes_array()
    width = model.schema.max_cardinality
    codes = np.arange(1, width + 1, dtype=np.float64)
    comp_mean = model.tilde_psi @ codes          # (k, p)
    comp_sq = model.tilde_psi @ codes ** 2       # (k, p)
    m1 = model.theta @ comp_mean                 # E[X_j]
    m2 = model.theta @ comp_sq                   # E[X_j^2]
    cross = comp_mean.T @ (model.theta[:, None] * comp_mean)
    var = np.maximum(m2 - m1 ** 2, 0.0)
    cov = cross - np.outer(m1, m1)
    denom = np.sqrt(np.outer(var, var))
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return rho


# ---------------------------------------------------------------------------
# Exact independence testing
# ---------------------------------------------------------------------------

def fisher_exact_2x2(table) -> float:
    """Two-sided Fisher exact test p-value for a 2x2 count table.

    All tables sharing the observed margins whose hypergeometric
    probability does not exceed that of the observed table contribute
    to the p-value.  The computation is exact integer arithmetic, so
    probability ties are decided exactly rather than within a float
    tolerance.

    Parameters
    ----------
    table : array-like of int, shape (2, 2)

    Returns
    -------
    float
        p-value in (0, 1].  A table with a zero margin carries no
        evidence either way and returns 1.0 by convention.
    """
    t = np.asarray(table)
    if t.shape != (2, 2):
        raise ValueError(f"table must be 2x2, got shape {t.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        if not np.all(np.isfinite(t)) or not np.all(t == np.floor(t)):
            raise ValueError("table entries must be nonnegative integers")
        t = t.astype(np.int64)
    if (t < 0).any():
        raise ValueError("table entries must be nonnegative integers")
    a, b = int(t[0, 0]), int(t[0, 1])
    c, d = int(t[1, 0]), int(t[1, 1])
    r1, r2 = a + b, c + d
    c1 = a + c
    n = r1 + r2
    if n < 1:
        raise ValueError("table total must be at least 1")
    if min(r1, r2, c1, b + d) == 0:
        return 1.0
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    observed = comb(r1, a) * comb(r2, c1 - a)
    acc = 0
    for x in range(lo, hi + 1):
        weight = comb(r1, x) * comb(r2, c1 - x)
        if weight <= observed:
            acc += weight
    return acc / comb(n, c1)


def largest_remainder_counts(probs, n: int) -> np.ndarray:
    """Round ``n * probs`` to integers that sum exactly to ``n``.

    Every cell gets the floor of its scaled value; the leftover units
    go to the cells with the largest fractional parts, ties broken by
    position (row-major first).
    """
    probs = np.asarray(probs, dtype=np.float64)
    # a non-finite sum refuses NaN, infinite and overflowing entries alike
    with np.errstate(over="ignore", invalid="ignore"):
        total = probs.sum()
    if not np.isfinite(total) or (probs < 0).any() or total <= 0:
        raise ValueError("probs must be nonnegative with positive sum")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    scaled = probs / total * n
    base = np.floor(scaled).astype(np.int64)
    short = int(n - base.sum())
    if short > 0:
        frac = (scaled - base).ravel()
        order = np.lexsort((np.arange(frac.size), -frac))
        flat = base.ravel()
        flat[order[:short]] += 1
        base = flat.reshape(probs.shape)
    return base


def pairwise_independence(model: CollapsedModel, n: int) -> list[tuple[int, int, float]]:
    """Fisher exact tests for every variable pair of a binary model.

    The model's pair marginal is converted to a 2x2 count table of
    total ``n`` by largest-remainder rounding and tested.

    Parameters
    ----------
    model : CollapsedModel
        All variables must be binary.
    n : int
        Effective sample size behind the count tables; typically the
        number of rows the model was fitted on.

    Returns
    -------
    list of (j1, j2, p_value)
        Every pair ``j1 < j2`` (0-based), sorted by ascending p-value;
        ties sorted by the index pair.
    """
    for j, d in enumerate(model.schema.cardinalities):
        if d != 2:
            raise ValueError(
                f"variable {j} has cardinality {d}; the 2x2 test "
                "requires binary variables"
            )
    if n < 1:
        raise ValueError(f"effective sample size must be >= 1, got {n}")
    out = []
    p = model.n_variables
    for j1 in range(p):
        for j2 in range(j1 + 1, p):
            counts = largest_remainder_counts(pair_marginal(model, j1, j2), n)
            out.append((j1, j2, fisher_exact_2x2(counts)))
    out.sort(key=lambda r: (r[2], r[0], r[1]))
    return out


# ---------------------------------------------------------------------------
# Saturated construction (representability oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentedModel:
    """A mixture whose category vectors still include the missing code.

    In a saturated construction component ``h`` describes one complete
    row, the argmax of its rescaled vectors, and places that cell's
    missingness probability on code 0.

    Attributes
    ----------
    schema : CategoricalSchema
    theta : ndarray, shape (k,)
    psi : ndarray, shape (k, p, D + 1)
        Probabilities over codes ``0 .. d_j``, zero padded.
    """

    schema: CategoricalSchema
    theta: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        _freeze(self, theta=np.float64, psi=np.float64)
        _check_weights(self.theta, "theta", 1e-9)
        _check_tables(self.psi, self.schema, self.k, 1, "psi", 1e-9)

    @property
    def k(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class ConstructionReport:
    """Reproduction errors of a saturated construction.

    ``pi_error`` is the largest absolute deviation between the target
    joint table and the one implied by the rescaled construction;
    ``q_error`` is the largest absolute deviation between the target
    missingness probabilities and the constructed ones, over the
    represented cells.
    """

    pi_error: float
    q_error: float


def _point_masses(pi: JointDistribution, q: MissingnessTable | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Weights and psi of :func:`construct_saturated_model`, with the
    positive cells in C order; without ``q`` code 0 gets no mass."""
    schema = pi.schema
    positive = np.nonzero(pi.table > 0)
    theta = pi.table[positive]
    k, p = theta.size, schema.n_variables
    rate = np.zeros((k, p)) if q is None else q.q[(slice(None),) + positive].T
    psi = np.zeros((k, p, schema.max_cardinality + 1))
    comp, var = np.arange(k)[:, None], np.arange(p)[None, :]
    psi[comp, var, 0] = rate
    psi[comp, var, np.stack(positive, axis=1) + 1] = 1.0 - rate
    return theta, psi


def saturated_model(pi: JointDistribution) -> CollapsedModel:
    """Exact mixture representation of a joint table.

    One point-mass component per cell with positive probability; useful
    for feeding exact ground-truth joints to model-based summaries such
    as :func:`correlation_matrix`.
    """
    theta, psi = _point_masses(pi)
    return CollapsedModel(pi.schema, theta, rescale_missing(psi))


def construct_saturated_model(pi: JointDistribution,
                              q: MissingnessTable) -> AugmentedModel:
    """Build the one-component-per-cell mixture matching ``pi`` and ``q``.

    For every cell combination ``(c1, ..., cp)`` with positive joint
    probability, a component is created with weight ``pi[c1, ..., cp]``.
    Its vector for variable ``j`` places the cell's missingness
    probability on code 0, the remainder on ``cj``, and nothing
    anywhere else.  Rescaling such a model reproduces ``pi`` exactly,
    which is what :func:`verify_construction` checks.
    """
    if pi.schema.cardinalities != q.schema.cardinalities:
        raise ValueError("joint table and missingness table schemas differ")
    return AugmentedModel(pi.schema, *_point_masses(pi, q))


def verify_construction(augmented: AugmentedModel, pi: JointDistribution,
                        q: MissingnessTable) -> ConstructionReport:
    """Measure how well a saturated construction reproduces its targets.

    The augmented model is rescaled exactly like a chain state (divide
    the observable codes of each vector by their total mass),
    the implied joint table is rebuilt, and both it and the implied
    missingness probabilities are compared to the targets.  Each
    component's cell is read as the argmax of its rescaled vectors.

    Returns
    -------
    ConstructionReport
        Maximum absolute deviations; both are 0.0 for the exact
        construction.
    """
    if pi.schema.cardinalities != q.schema.cardinalities:
        raise ValueError("joint table and missingness table schemas differ")
    tilde = rescale_missing(augmented.psi)
    model = CollapsedModel(augmented.schema, augmented.theta, tilde)
    implied = joint_distribution(model)
    pi_error = float(np.abs(implied.table - pi.table).max())

    cells = tuple(tilde.argmax(axis=2).T)
    target = q.q[(slice(None),) + cells].T
    q_error = float(np.abs(augmented.psi[:, :, 0] - target).max())
    return ConstructionReport(pi_error=pi_error, q_error=q_error)
