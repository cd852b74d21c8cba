"""
Posterior predictive queries on fitted mixtures.

The functions here consume :class:`~catmix.core.CollapsedModel` objects
(single draws, pooled draws, or hand-built models) and never touch the
sampler, so they work equally on fitted and synthetic models.
"""

from __future__ import annotations

import itertools
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
    _BLOCK_FLOATS,
    _check_shape,
    _check_tables,
    _check_weights,
    _checked,
    _freeze,
    _layout,
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
    filled : ndarray of int, shape (m, 2)
        Read-only ``(row, column)`` of each missing cell, row-major.
    cell_posteriors : ndarray, shape (m, D)
        Read-only; row ``c`` is cell ``filled[c]``'s averaged predictive
        vector over codes ``1 .. d_j`` at ``code - 1``, zero padded.
    """

    completed: Dataset
    filled: np.ndarray
    cell_posteriors: np.ndarray

    def __post_init__(self):
        _freeze(self, filled=np.int64, cell_posteriors=np.float64)


def _as_draws(posterior):
    """Yield a single model, or the models of an iterable as they arrive,
    checked to be draws of one schema."""
    return _checked([posterior] if isinstance(posterior, CollapsedModel)
                    else posterior)


def pool_draws(posterior) -> CollapsedModel:
    """Concatenate posterior draws into one mixture.

    Each draw's components enter with weight ``theta / n_draws``.  For
    any quantity that is linear in the joint distribution (joint tables,
    pair marginals and the moments behind the correlation matrix) the
    pooled model gives exactly the average over draws.
    """
    draws = list(_as_draws(posterior))
    theta = np.concatenate([m.theta for m in draws]) / len(draws)
    probs = np.concatenate([m.probs for m in draws], axis=0)
    return CollapsedModel(draws[0].schema, theta, probs)


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
    return next(_class_posteriors([model], model.schema, row[None], [0]))[0][0]


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
    start, stop = model.schema.offsets(0)[j:j + 2]
    return post @ model.probs[:, start:stop]


def impute(data: Dataset, posterior, rule: str = "argmax",
           seed=None) -> ImputationResult:
    """Fill every missing cell of a dataset from the posterior predictive.

    For each missing cell the predictive vector is computed under every
    retained draw separately (each draw normalizes its own component
    posterior) and the vectors are averaged.  The fill-in rule is then
    either the most probable code, ties going to the lowest code, or a
    random code drawn from the averaged predictive.

    Besides its outputs it holds one sum and one index for each code of
    each missing cell, one group of draws, the gather index of the rows
    with a missing cell while it sums, and blocks of about 2**15 floats:
    the draws' terms are made one block of rows at a time, from which
    the block's missing cells add their own codes, each summed in draw
    order, and the cells are filled one block at a time.

    Parameters
    ----------
    data : Dataset
    posterior : iterable of CollapsedModel, or CollapsedModel
        Each draw is folded in as it arrives, so a generator of draws is
        never held whole.
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
    first = next(draws)
    if first.schema.cardinalities != data.schema.cardinalities:
        raise ValueError(
            f"model cardinalities {first.schema.cardinalities} do not "
            f"match the dataset's {data.schema.cardinalities}"
        )
    cells = np.asarray(data.cells)
    completed, filled, probs = _fill(
        cells, data.schema,
        _predictive_sums(itertools.chain([first], draws), data.schema, cells),
        np.random.default_rng(seed) if rule == "sample" else None)
    return ImputationResult(data.replace_cells(completed), filled, probs)


def _predictive_sums(draws, schema: CategoricalSchema,
                     cells: np.ndarray) -> np.ndarray:
    """The predictive vectors of the missing cells of ``cells``, averaged
    over ``draws`` and laid end to end in row-major order, each cell's
    codes ``1 .. d_j`` in turn.

    Each draw's terms are made one block of the rows with a missing cell
    at a time, in one scratch block of about ``_BLOCK_FLOATS`` floats, and
    the block's missing cells add their own codes from it; so every entry
    sums the draws in order.
    """
    rows = np.flatnonzero((cells == 0).any(axis=1))
    starts, codes = schema.offsets(0), schema.codes_array()
    block = np.empty((max(1, min(rows.size, _BLOCK_FLOATS // starts[-1])),
                      starts[-1]))
    # index[b]: each missing code of block b's rows at its place in the block
    index = []
    for lo in range(0, rows.size, len(block)):
        r, c = np.nonzero(cells[rows[lo:lo + len(block)]] == 0)
        d = codes[c]
        index.append(np.repeat(r * starts[-1] + starts[c] + d - d.cumsum(), d)
                     + np.arange(d.sum()))
    sums = np.zeros(sum(map(len, index)))
    posts = _class_posteriors(draws, schema, cells, rows)
    for n, (post, table) in enumerate(posts, 1):
        at = 0
        for lo, own in zip(range(0, rows.size, len(block)), index):
            terms = np.einsum("mk,kc->mc", post[lo:lo + len(block)], table,
                              out=block[:min(len(block), rows.size - lo)])
            sums[at:at + len(own)] += terms.take(own)
            at += len(own)
    sums /= n
    return sums


def _fill(cells: np.ndarray, schema: CategoricalSchema, sums: np.ndarray,
          rng):
    """The completed cells, every missing cell's ``(row, column)`` and its
    normalised predictive, zero padded, from :func:`_predictive_sums`;
    ``rng`` draws each code, or None takes the argmax.  The cells are
    filled ``_BLOCK_FLOATS // max_j d_j`` at a time."""
    filled = np.argwhere(cells == 0)
    codes = schema.codes_array()
    probs = np.zeros((len(filled), schema.max_cardinality))
    completed = cells.copy()
    step = max(1, _BLOCK_FLOATS // schema.max_cardinality)
    end = 0  # where the block's first cell's codes begin in ``sums``
    for lo in range(0, len(filled), step):
        rows, cols = filled[lo:lo + step].T
        cards = codes[cols]
        begin = end - cards + cards.cumsum()
        end = begin[-1] + cards[-1]
        # one uniform per cell in row-major order, as Generator.choice(d,
        # p=vec) spends it: the code is the count of cdf / cdf[-1] that
        # are <= u
        u = None if rng is None else rng.random(rows.size)
        for d in set(cards.tolist()):
            at = np.flatnonzero(cards == d)
            vec = sums[begin[at, None] + np.arange(d)]
            vec /= vec.sum(axis=1, keepdims=True)
            probs[lo + at, :d] = vec
            if u is None:
                code = vec.argmax(axis=1)
            else:
                cdf = vec.cumsum(axis=1)
                code = (cdf / cdf[:, -1:] <= u[at, None]).sum(axis=1)
            completed[rows[at], cols[at]] = code + 1
    return completed, filled, probs


def _class_posteriors(draws, schema: CategoricalSchema, cells: np.ndarray,
                      rows):
    """Yield each draw's (m, k) component posteriors of the rows
    ``cells[rows]``, with the draw's flat (k, sum_j d_j) table, as the
    draws arrive.

    ``cells`` is (n, p) with zeros marking unobserved entries, and
    ``rows`` holds the m row indices, which error messages give.  Draws
    are taken in groups whose evidence and log table hold about
    ``_BLOCK_FLOATS`` floats.  A group's evidence is summed one variable at a
    time from a table in the chain's flat layout, one row per variable
    and code ``0 .. d_j``, whose code-0 rows are zero, so a missing cell
    adds 0.0, and each column sums its component alone.
    """
    offsets = schema.offsets(1)
    # idx[j, i]: the table row of cell (rows[i], j)
    idx = cells.T.take(rows, axis=1)
    idx += offsets[:-1, None]
    p, m = idx.shape
    for group in _groups(draws, _BLOCK_FLOATS // (m + offsets[-1])):
        probs = np.concatenate([g.probs for g in group])
        # C order, so that take gathers rows without copying the table
        with np.errstate(divide="ignore"):
            log_probs = np.log(probs.T, order="C")
        table = np.insert(log_probs, offsets[:-1] - np.arange(p), 0.0, axis=0)
        evidence = table.take(idx[0], axis=0)
        for j in range(1, p):
            evidence += table.take(idx[j], axis=0)
        end = 0
        for model in group:
            end += model.k
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
            yield np.exp(shifted - norm), probs[end - model.k:end]


def _groups(draws, most: int):
    """Lists of consecutive ``draws`` as they arrive, each of at most
    ``most`` components in all or of one draw that has more."""
    group, k = [], 0
    for model in draws:
        if group and k + model.k > most:
            yield group
            group, k = [], 0
        group.append(model)
        k += model.k
    yield group


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

    ``table[c1 - 1, ..., cp - 1] = sum_h theta_h prod_j P_h(x_j = cj)``.

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
    starts = schema.offsets(0)
    table = np.zeros(schema.cardinalities)
    for h in range(model.k):
        block = np.asarray(model.theta[h])
        for start, stop in zip(starts[:-1], starts[1:]):
            block = np.multiply.outer(block, model.probs[h, start:stop])
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
    starts = model.schema.offsets(0)
    a, b = (model.probs[:, starts[j]:starts[j + 1]] for j in (j1, j2))
    return np.einsum("h,hc,hd->cd", model.theta, a, b)


def correlation_matrix(model: CollapsedModel) -> np.ndarray:
    """Pearson correlations of the integer-coded variables.

    Codes ``1 .. d_j`` are treated as numeric values; for binary
    variables this is the phi coefficient.  A variable with zero
    variance gets correlation 0 with everything (its diagonal entry
    stays 1), which keeps downstream gap sums finite.
    """
    comp_mean = np.empty((model.k, model.n_variables))
    comp_sq = np.empty_like(comp_mean)
    # one (k, variables, d) block per distinct cardinality d
    for cols, idx in _layout(model.schema.cardinalities, 0)[1]:
        block = model.probs.take(idx, axis=-1)
        codes = np.arange(1, idx.shape[1] + 1, dtype=np.float64)
        comp_mean[:, cols] = block @ codes
        comp_sq[:, cols] = block @ codes ** 2
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
        p-value in (0, 1].  A table with a zero margin is the only
        table with its margins, so it carries no evidence and gives 1.0.
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
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    observed = comb(r1, a) * comb(r2, c1 - a)
    # w(x) = C(r1, x) C(r2, c1 - x), stepped by its exact integer ratio
    weight = comb(r1, lo) * comb(r2, c1 - lo)
    acc = 0
    for x in range(lo, hi + 1):
        if weight <= observed:
            acc += weight
        weight = weight * (r1 - x) * (c1 - x) // ((x + 1) * (r2 - c1 + x + 1))
    return acc / comb(n, c1)


def largest_remainder_counts(probs, n: int) -> np.ndarray:
    """Round ``n * probs`` to integers that sum exactly to ``n``.

    Every cell gets the floor of its scaled value; the leftover units
    go to the cells with the largest fractional parts, ties broken by
    position (row-major first).  ``n`` is at most 2**53, beyond which
    float64 does not count by ones.
    """
    probs = np.asarray(probs, dtype=np.float64)
    # a non-finite sum refuses NaN, infinite and overflowing entries alike
    with np.errstate(over="ignore", invalid="ignore"):
        total = probs.sum()
    if not np.isfinite(total) or (probs < 0).any() or total <= 0:
        raise ValueError("probs must be nonnegative with positive sum")
    if not 0 <= n <= 2 ** 53:
        raise ValueError(f"n must lie in 0 .. 2**53, got {n}")
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
    psi : ndarray, shape (k, sum_j (d_j + 1))
        Probabilities over the codes ``0 .. d_j`` of every variable, laid
        flat as in :class:`~catmix.core.ModelState`.
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
    positive = np.nonzero(pi.table > 0)
    theta = pi.table[positive]
    k, p = theta.size, pi.schema.n_variables
    rate = np.zeros((k, p)) if q is None else q.q[(slice(None),) + positive].T
    starts = pi.schema.offsets(1)
    psi = np.zeros((k, starts[-1]))
    comp = np.arange(k)[:, None]
    psi[comp, starts[:-1]] = rate
    psi[comp, starts[:-1] + np.stack(positive, axis=1) + 1] = 1.0 - rate
    return theta, psi


def saturated_model(pi: JointDistribution) -> CollapsedModel:
    """Exact mixture representation of a joint table.

    One point-mass component per cell with positive probability; useful
    for feeding exact ground-truth joints to model-based summaries such
    as :func:`correlation_matrix`.
    """
    theta, psi = _point_masses(pi)
    return CollapsedModel(pi.schema, theta, rescale_missing(psi, pi.schema))


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
    schema = augmented.schema
    probs = rescale_missing(augmented.psi, schema)
    model = CollapsedModel(schema, augmented.theta, probs)
    implied = joint_distribution(model)
    pi_error = float(np.abs(implied.table - pi.table).max())

    cells = tuple(vec.argmax(axis=1) for vec in
                  np.split(probs, schema.offsets(0)[1:-1], axis=1))
    target = q.q[(slice(None),) + cells].T
    missing = augmented.psi[:, schema.offsets(1)[:-1]]
    q_error = float(np.abs(missing - target).max())
    return ConstructionReport(pi_error=pi_error, q_error=q_error)
