"""
Synthetic data generation, masking mechanisms, and ratings preprocessing.

The generators return complete datasets together with their ground
truth, so benchmark code can score imputations and compare model
summaries against the generating distribution.  The masking functions
knock observed cells out under the three classical regimes: missing
completely at random, missing at random (driven by a fully observed
variable), and missing not at random (driven by the value itself).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from catmix.core import (
    CategoricalSchema,
    CollapsedModel,
    Dataset,
    JointDistribution,
    MISSING,
    ParseError,
    _check_count,
    _csv_records,
    _freeze,
    padded_dirichlet,
)

__all__ = [
    "MaskResult",
    "MechanismSpec",
    "mask",
    "mask_fraction",
    "parse_ratings_csv",
    "preprocess_ratings",
    "sample_mixture_dataset",
    "sample_xor_dataset",
]


@dataclass(frozen=True)
class MechanismSpec:
    """Which missingness mechanism to apply, and at which rates.

    Attributes
    ----------
    kind : {"MCAR", "MAR", "MNAR"}
    mcar_rate : float
        Independent per-cell masking probability under MCAR.
    mar_rates : (float, float)
        Masking rates of columns 2..p under MAR, keyed on whether the
        row's first (never masked) variable equals 1 or 2.
    mnar_rates : (float, float)
        Masking rates under MNAR, keyed on the cell's own value 1 or 2.
    """

    kind: str = "MCAR"
    mcar_rate: float = 0.2
    mar_rates: tuple[float, float] = (0.1, 0.3)
    mnar_rates: tuple[float, float] = (0.1, 0.3)

    def __post_init__(self):
        kind = str(self.kind).upper()
        if kind not in ("MCAR", "MAR", "MNAR"):
            raise ValueError(
                f"kind must be MCAR, MAR or MNAR, got {self.kind!r}"
            )
        object.__setattr__(self, "kind", kind)
        rates = (self.mcar_rate,) + tuple(self.mar_rates) + tuple(self.mnar_rates)
        for r in rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"masking rates must lie in [0, 1], got {r}")
        object.__setattr__(self, "mar_rates", tuple(float(r) for r in self.mar_rates))
        object.__setattr__(self, "mnar_rates", tuple(float(r) for r in self.mnar_rates))

    @classmethod
    def mcar(cls, rate: float = 0.2) -> "MechanismSpec":
        return cls(kind="MCAR", mcar_rate=rate)

    @classmethod
    def mar(cls, rate_given_1: float = 0.1, rate_given_2: float = 0.3) -> "MechanismSpec":
        return cls(kind="MAR", mar_rates=(rate_given_1, rate_given_2))

    @classmethod
    def mnar(cls, rate_if_1: float = 0.1, rate_if_2: float = 0.3) -> "MechanismSpec":
        return cls(kind="MNAR", mnar_rates=(rate_if_1, rate_if_2))


@dataclass(frozen=True)
class MaskResult:
    """Record of which cells were masked and what they held.

    ``rows``/``cols`` are parallel index arrays in row-major order and
    ``values`` holds the original codes, so imputations can be scored
    against the truth later.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    n_total_cells: int

    def __post_init__(self):
        _freeze(self, rows=np.int64, cols=np.int64, values=np.int64)
        if not self.rows.shape == self.cols.shape == self.values.shape:
            raise ValueError("rows, cols and values must have equal length")

    def __len__(self) -> int:
        return self.rows.size

    @property
    def fraction(self) -> float:
        """Masked share of all cells."""
        return self.rows.size / self.n_total_cells

    def pairs(self) -> set[tuple[int, int]]:
        """Masked coordinates as a set of (row, column) tuples."""
        return {(int(i), int(j)) for i, j in zip(self.rows, self.cols)}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def sample_mixture_dataset(n: int = 50, p: int = 20, k: int = 3,
                           cardinality=2, theta_dirichlet: float = 10.0,
                           psi_dirichlet: float = 0.5,
                           seed=None) -> tuple[Dataset, CollapsedModel]:
    """Draw a complete dataset from a random product-multinomial mixture.

    The mixture itself is random: weights from a symmetric Dirichlet
    with concentration ``theta_dirichlet``, each component's category
    probabilities from a symmetric Dirichlet with concentration
    ``psi_dirichlet`` (small values give spiky, well separated
    components).  Rows then sample a component and draw every variable
    independently from it.

    Parameters
    ----------
    n, p, k : int
        Rows, variables, mixture components.
    cardinality : int or sequence of int
        Number of categories, shared or per variable.
    theta_dirichlet, psi_dirichlet : float
        Dirichlet concentrations for weights and category probabilities.
    seed : int, SeedSequence or Generator, optional

    Returns
    -------
    (Dataset, CollapsedModel)
        The complete data and the generating mixture.
    """
    for name, size in (("n", n), ("p", p), ("k", k)):
        _check_count(name, size, 1)
    if not (theta_dirichlet > 0 and psi_dirichlet > 0):
        raise ValueError("Dirichlet concentrations must be positive")
    if np.isscalar(cardinality):
        cards = (cardinality,) * p
    else:
        cards = tuple(cardinality)
    schema = CategoricalSchema(cards)
    if schema.n_variables != p:
        raise ValueError(f"{len(cards)} cardinalities supplied for p={p}")

    rng = np.random.default_rng(seed)
    theta = rng.dirichlet(np.full(k, float(theta_dirichlet)))
    width = schema.max_cardinality
    conc = np.zeros((k, p, width))
    for j, d in enumerate(cards):
        conc[:, j, :d] = psi_dirichlet
    tilde = padded_dirichlet(conc, rng)
    truth = CollapsedModel(schema, theta, tilde)

    z = rng.choice(k, size=n, p=theta)
    u = rng.random((n, p))
    # one variable at a time, so memory grows with n * d_j, not n * p * D
    idx = np.empty((n, p), dtype=np.int64)
    for j, d in enumerate(cards):
        edges = np.cumsum(tilde[:, j, :d], axis=1)[z]
        idx[:, j] = np.minimum((u[:, j, None] > edges).sum(axis=1), d - 1)
    data = Dataset(schema, idx + 1)
    return data, truth


def sample_xor_dataset(n: int = 300, seed=None) -> tuple[Dataset, JointDistribution]:
    """Draw the three-variable exclusive-or benchmark dataset.

    The first bit is Bernoulli(0.3), the second Bernoulli(0.5); the
    third equals their exclusive-or with probability 0.95 and is an
    independent fair coin otherwise.  Bits b are stored as codes b + 1.

    Returns
    -------
    (Dataset, JointDistribution)
        The complete data and the exact generating joint table.
    """
    _check_count("n", n, 1)
    rng = np.random.default_rng(seed)
    b1 = rng.random(n) < 0.3
    b2 = rng.random(n) < 0.5
    faithful = rng.random(n) < 0.95
    coin = rng.random(n) < 0.5
    b3 = np.where(faithful, b1 ^ b2, coin)
    cells = np.stack([b1, b2, b3], axis=1).astype(np.int64) + 1

    schema = CategoricalSchema((2, 2, 2))
    table = np.zeros((2, 2, 2))
    for v1 in (0, 1):
        for v2 in (0, 1):
            base = (0.3 if v1 else 0.7) * 0.5
            for v3 in (0, 1):
                agree = 0.975 if v3 == (v1 ^ v2) else 0.025
                table[v1, v2, v3] = base * agree
    return Dataset(schema, cells), JointDistribution(schema, table)


# ---------------------------------------------------------------------------
# Masking
# ---------------------------------------------------------------------------

def mask(data: Dataset, spec: MechanismSpec, seed=None) -> tuple[Dataset, MaskResult]:
    """Knock cells out of a complete dataset under a mechanism.

    Parameters
    ----------
    data : Dataset
        Must be complete (no code-0 cells).
    spec : MechanismSpec
        MCAR masks every cell independently at ``mcar_rate``.  MAR
        masks columns 2..p at ``mar_rates`` keyed on the first
        variable, which must be binary and is never masked itself.
        MNAR masks every cell at ``mnar_rates`` keyed on its own value
        and requires all variables binary.
    seed : int, SeedSequence or Generator, optional

    Returns
    -------
    (Dataset, MaskResult)
    """
    if data.n_missing():
        raise ValueError("mask expects complete data (no missing cells)")
    cells = np.asarray(data.cells)
    n, p = cells.shape
    cards = data.schema.cardinalities

    if spec.kind == "MCAR":
        prob = np.full((n, p), spec.mcar_rate)
    elif spec.kind == "MAR":
        if cards[0] != 2:
            raise ValueError(
                "MAR requires the first variable to be binary, "
                f"got cardinality {cards[0]}"
            )
        low, high = spec.mar_rates
        prob = np.where(cells[:, :1] == 1, low, high) * np.ones((1, p))
        prob[:, 0] = 0.0
    else:  # MNAR
        bad = [j for j, d in enumerate(cards) if d != 2]
        if bad:
            raise ValueError(
                f"MNAR requires binary variables; variable {bad[0]} has "
                f"cardinality {cards[bad[0]]}"
            )
        low, high = spec.mnar_rates
        prob = np.where(cells == 1, low, high)

    rng = np.random.default_rng(seed)
    hit = rng.random((n, p)) < prob
    rows, cols = np.nonzero(hit)
    masked = cells.copy()
    masked[rows, cols] = MISSING
    record = MaskResult(rows, cols, cells[rows, cols], n_total_cells=n * p)
    return data.replace_cells(masked), record


def mask_fraction(data: Dataset, fraction: float,
                  seed=None) -> tuple[Dataset, MaskResult]:
    """Mask an exact share of the observed cells, uniformly at random.

    Exactly ``round(fraction * #observed)`` observed cells are chosen
    without replacement and set to missing; already missing cells are
    left alone, so the function also applies to incomplete data.

    Parameters
    ----------
    data : Dataset
    fraction : float in [0, 1]
    seed : int, SeedSequence or Generator, optional

    Returns
    -------
    (Dataset, MaskResult)
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    cells = np.asarray(data.cells)
    flat_observed = np.nonzero(cells.ravel() != MISSING)[0]
    count = int(round(fraction * flat_observed.size))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(flat_observed, size=count, replace=False)
    chosen.sort()
    rows, cols = np.unravel_index(chosen, cells.shape)
    masked = cells.copy()
    masked[rows, cols] = MISSING
    record = MaskResult(rows, cols, cells[rows, cols], n_total_cells=cells.size)
    return data.replace_cells(masked), record


# ---------------------------------------------------------------------------
# Ratings preprocessing
# ---------------------------------------------------------------------------

def parse_ratings_csv(text: str) -> list[tuple]:
    """Parse (user, item, rating) triples from CSV text.

    The first line is a header; each data line holds at least three
    comma-separated fields, of which the first three are used (extra
    columns such as timestamps are ignored).  Identifiers are kept as
    integers when they look like integers.
    """
    records = _csv_records(text)
    if not records:
        raise ParseError("ratings document is empty")
    triples = []
    for lineno, ln in records[1:]:
        fields = [f.strip() for f in ln.split(",")]
        if len(fields) < 3:
            raise ParseError(
                f"line {lineno}: expected at least 3 fields, found {len(fields)}"
            )
        if "" in fields[:2]:
            raise ParseError(f"line {lineno}: empty user or item identifier")
        user, item = (int(f) if _is_int(f) else f for f in fields[:2])
        try:
            rating = float(fields[2])
        except ValueError:
            raise ParseError(
                f"line {lineno}: rating {fields[2]!r} is not a number"
            ) from None
        triples.append((user, item, rating))
    return triples


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True


def _id_key(ident):
    """Sort key that orders integer identifiers before string ones."""
    return isinstance(ident, str), ident


def preprocess_ratings(triples: Iterable[tuple], item_threshold: float = 0.25,
                       user_threshold: float = 0.95, coding: str = "binary",
                       cutoff: float = 3.0) -> Dataset:
    """Turn rating triples into a dense categorical user-item matrix.

    Filtering happens in two passes: first keep the items rated by
    strictly more than ``item_threshold`` of all users, then keep the
    users who rated strictly more than ``user_threshold`` of the kept
    items.  Rows are the kept users and columns the kept items, both in
    ascending identifier order, integer identifiers before string ones.
    Unrated cells become missing.

    Parameters
    ----------
    triples : iterable of (user, item, rating)
        Ratings on the half-star scale 0.5 .. 5.0.  When a pair appears
        more than once the last rating wins.
    item_threshold, user_threshold : float
        Strict popularity/coverage fractions.
    coding : {"binary", "five"}
        "binary" codes a rating as 2 when it reaches ``cutoff`` and 1
        otherwise; "five" rounds half stars up to the categories 1..5.
    cutoff : float
        Like-threshold of the binary coding.

    Returns
    -------
    Dataset

    Raises
    ------
    ValueError
        On invalid ratings, or when filtering leaves no users or items.
    """
    if coding not in ("binary", "five"):
        raise ValueError(f"coding must be 'binary' or 'five', got {coding!r}")
    five = coding != "binary"

    latest: dict[tuple, float] = {}
    for user, item, rating in triples:
        if not (0.5 <= rating <= 5.0) or (2 * rating) % 1 != 0:
            raise ValueError(
                f"rating {rating!r} of user {user!r} is not on the "
                "0.5 .. 5.0 half-star scale"
            )
        latest[(user, item)] = rating
    if not latest:
        raise ValueError("no ratings supplied")

    n_users = len({user for user, _ in latest})
    raters = Counter(item for _, item in latest)
    kept_items = sorted((item for item, count in raters.items()
                         if count > item_threshold * n_users), key=_id_key)
    if not kept_items:
        raise ValueError(
            f"no item was rated by more than {item_threshold:.0%} of "
            f"the {n_users} users"
        )
    item_col = {item: j for j, item in enumerate(kept_items)}

    rated_per_user = Counter(user for user, item in latest if item in item_col)
    min_rated = user_threshold * len(kept_items)
    kept_users = sorted((u for u, c in rated_per_user.items()
                         if c > min_rated), key=_id_key)
    if not kept_users:
        raise ValueError(
            f"no user rated more than {user_threshold:.0%} of the "
            f"{len(kept_items)} kept items"
        )
    user_row = {user: i for i, user in enumerate(kept_users)}

    cells = np.zeros((len(kept_users), len(kept_items)), dtype=np.int64)
    for (user, item), rating in latest.items():
        i = user_row.get(user)
        j = item_col.get(item)
        if i is None or j is None:
            continue
        if five:
            cells[i, j] = math.ceil(rating)
        else:
            cells[i, j] = 2 if rating >= cutoff else 1
    schema = CategoricalSchema((5 if five else 2,) * len(kept_items))
    return Dataset(schema, cells, tuple(str(it) for it in kept_items))
