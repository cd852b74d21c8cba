"""
Core data structures and serialization.

Conventions used throughout the package:

* A table of ``n`` rows and ``p`` categorical variables is stored as an
  ``(n, p)`` integer array.  Variable ``j`` takes codes ``1 .. d_j``;
  the code ``0`` is reserved for missing entries.
* Probability vectors over the codes of variable ``j`` come in two
  flavours.  Vectors that include the missing code have length
  ``d_j + 1`` and are indexed by ``0 .. d_j``.  Vectors over observable
  codes only have length ``d_j`` and are indexed by ``code - 1``.
* Tables of per-variable vectors lay every variable's codes end to end
  in one flat row per component, from its :meth:`CategoricalSchema.offsets`
  entry, unpadded: ``d_j + 1`` codes with the missing code (a chain
  state's psi), ``d_j`` without it (a :class:`CollapsedModel`).
  :func:`segment_sums` sums each variable's segment of such a row.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "CategoricalSchema",
    "CollapsedModel",
    "Dataset",
    "JointDistribution",
    "LoadError",
    "MissingnessTable",
    "ModelState",
    "ParseError",
    "dataset_to_csv",
    "deserialize_models",
    "model_from_dict",
    "parse_dataset",
    "serialize_model",
    "serialize_models",
]

#: Integer code reserved for missing cells.
MISSING = 0

#: Token used for missing cells in CSV files.
NA_TOKEN = "NA"

#: Largest number of cells a dense joint distribution may have.
DEFAULT_CELL_LIMIT = 10_000_000

#: Tolerance applied to probability vectors read from external files.
LOAD_TOL = 1e-8

#: Fields parsed per block of whole lines (one line at least), and cells
#: or table rows rendered per block: blocks four times as large run no
#: faster and hold four times the text.
_FIELDS = 4096
_BLOCK = 64

#: Floats (256 KiB) in each scratch block that the sampler's batched
#: passes and draws and ``impute``'s groups of draws, rows and cells work in.
_BLOCK_FLOATS = 1 << 15

#: Characters of a model file read at a time; a value is decoded from at
#: least this much text, so a shorter draw is decoded once (fits of the
#: 1500-row benchmark table, seeds 0 to 7, write draws of 39,000 to 101,000
#: characters).  A JSON value inside an array or an object is followed by
#: what _DELIMITED matches.
_CHUNK = 1 << 18
_DELIMITED = re.compile(r"[ \t\n\r]*[,:\]}]")


class ParseError(ValueError):
    """Raised when a CSV document cannot be parsed into a dataset."""


class LoadError(ValueError):
    """Raised when a model document is malformed or inconsistent."""


def _check_count(name: str, value, least: int) -> None:
    """Refuse all but integers (numpy's too, bools not) from ``least`` up."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def padded_dirichlet(conc: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Batched Dirichlet draws along the last axis of ``conc``.

    Zero concentrations yield exact zeros, so zero padded concentration
    arrays produce correspondingly padded probability arrays.
    """
    g = rng.standard_gamma(conc)
    return g / g.sum(axis=-1, keepdims=True)


@functools.lru_cache(maxsize=64)
def _layout(cards: tuple, extra: int) -> tuple:
    """The flat layout of ``d_j + extra`` codes per variable: the segment
    starts and the row's width, then the variables of each distinct
    cardinality d with their (variables, d + extra) block of positions."""
    starts = np.cumsum([0, *(d + extra for d in cards)])
    var = {d: np.flatnonzero(np.asarray(cards) == d) for d in set(cards)}
    return starts, tuple((v, starts[v, None] + np.arange(d + extra))
                         for d, v in var.items())


def segment_sums(a: np.ndarray, schema: CategoricalSchema,
                 extra: int) -> np.ndarray:
    """Each variable's sum over its ``d_j + extra`` flat codes on the last
    axis of ``a``: a C-ordered ``take`` per distinct cardinality, whose rows
    numpy sums pairwise as it sums a padded table's rows of that width."""
    out = np.empty(a.shape[:-1] + (schema.n_variables,))
    for var, idx in _layout(schema.cardinalities, extra)[1]:
        out[..., var] = a.take(idx, axis=-1).sum(axis=-1)
    return out


def rescale_missing(psi: np.ndarray, schema: CategoricalSchema) -> np.ndarray:
    """Divide the missing mass out of a flat ``psi`` over the codes
    ``0 .. d_j``: each vector's codes ``1 .. d_j`` over their own sum, with
    no cancellation near ``psi_j[0] = 1``.  Raises ValueError on zero mass."""
    # np.delete gathers in Fortran order, and mixed layouts grew the heap
    real = np.ascontiguousarray(np.delete(psi, schema.offsets(1)[:-1], axis=-1))
    mass = segment_sums(real, schema, 0)
    if (mass == 0).any():
        raise ValueError(
            "a component assigns probability 1 to the missing code, so it "
            "cannot be rescaled to the observable codes"
        )
    return real / np.repeat(mass, schema.cardinalities, axis=-1)


def _freeze(record, **dtypes) -> None:
    """Store each named field of the frozen dataclass ``record`` as a
    read-only C-ordered array of the dtype given for it."""
    for name, dtype in dtypes.items():
        a = np.asarray(getattr(record, name), dtype, order="C")
        a.setflags(write=False)
        object.__setattr__(record, name, a)


def _check_shape(a: np.ndarray, shape: tuple, name: str) -> None:
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")


def _check_weights(w: np.ndarray, name: str, tol: float) -> None:
    """Raise ValueError unless ``w`` is a nonempty vector of finite,
    nonnegative entries whose sum lies within ``tol`` of 1."""
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError(f"{name} entries must be finite and nonnegative")
    total = w.sum()
    if abs(total - 1.0) > tol:
        raise ValueError(f"{name} sums to {total!r}, expected 1")


def _check_tables(a: np.ndarray, schema: CategoricalSchema, k: int,
                  extra: int, name: str, tol: float) -> None:
    """Raise ValueError unless ``a`` is a ``(k, sum_j (d_j + extra))`` flat
    table of finite, nonnegative vectors summing to 1 within ``tol``;
    ``extra`` is 1 with the missing code and 0 without."""
    _check_shape(a, (k, int(schema.offsets(extra)[-1])), name)
    if not np.isfinite(a).all() or (a < 0).any():
        raise ValueError(f"{name} entries must be finite and nonnegative")
    off = (np.abs(segment_sums(a, schema, extra) - 1.0) > tol).any(axis=0)
    if off.any():
        raise ValueError(f"{name} rows of variable {off.argmax()} do not sum to 1")


@dataclass(frozen=True)
class CategoricalSchema:
    """Cardinalities of a block of categorical variables.

    Parameters
    ----------
    cardinalities : sequence of int
        ``cardinalities[j]`` is the number of observable categories of
        variable ``j``.  Every entry must be an integer (numpy's too,
        bools not) of at least 2; a "variable" with a single category
        carries no information.
    """

    cardinalities: tuple[int, ...]

    def __init__(self, cardinalities: Iterable[int]):
        cards = tuple(cardinalities)
        if len(cards) == 0:
            raise ValueError("schema needs at least one variable")
        for j, d in enumerate(cards):
            _check_count(f"variable {j}'s cardinality", d, 2)
        object.__setattr__(self, "cardinalities", tuple(map(int, cards)))

    @property
    def n_variables(self) -> int:
        return len(self.cardinalities)

    @property
    def max_cardinality(self) -> int:
        return max(self.cardinalities)

    def n_cells(self) -> int:
        """Number of cells in the full contingency table."""
        return math.prod(self.cardinalities)

    def codes_array(self) -> np.ndarray:
        """Cardinalities as an int array, handy for vectorized checks."""
        return np.asarray(self.cardinalities, dtype=np.int64)

    def offsets(self, extra: int) -> np.ndarray:
        """Start of each variable's segment in a flat row of ``d_j +
        extra`` codes per variable, then the row's width: ``extra`` is 1
        for the codes ``0 .. d_j`` and 0 for the observable codes."""
        return _layout(self.cardinalities, extra)[0].copy()


@dataclass(frozen=True)
class Dataset:
    """An ``(n, p)`` table of categorical codes with 0 marking missing.

    Parameters
    ----------
    schema : CategoricalSchema
    cells : array-like of int, shape (n, p)
        Codes in ``0 .. d_j`` per column, 0 meaning missing.
    column_names : sequence of str, optional
        Defaults to ``V1 .. Vp``.
    """

    schema: CategoricalSchema
    cells: np.ndarray
    column_names: tuple[str, ...] = ()

    def __post_init__(self):
        _freeze(self, cells=np.int64)
        cells = self.cells
        if cells.ndim != 2:
            raise ValueError(f"cells must be 2-dimensional, got shape {cells.shape}")
        p = self.schema.n_variables
        if cells.shape[1] != p:
            raise ValueError(
                f"cells has {cells.shape[1]} columns but schema has {p} variables"
            )
        cards = self.schema.codes_array()
        if cells.size and (cells.min() < 0 or (cells > cards[None, :]).any()):
            raise ValueError("cell codes must lie in 0 .. d_j for each column")
        names = tuple(self.column_names) or tuple(
            f"V{j + 1}" for j in range(p)
        )
        if len(names) != p:
            raise ValueError(
                f"{len(names)} column names supplied for {p} variables"
            )
        object.__setattr__(self, "column_names", names)

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_variables(self) -> int:
        return self.cells.shape[1]

    def n_missing(self) -> int:
        return int((self.cells == MISSING).sum())

    def replace_cells(self, cells: np.ndarray) -> "Dataset":
        """Same schema and names, new cell values."""
        return Dataset(self.schema, cells, self.column_names)


@dataclass(frozen=True)
class ModelState:
    """Full state of the Gibbs chain after a sweep.

    Attributes
    ----------
    schema : CategoricalSchema
    assignments : ndarray of int, shape (n,)
        Component index of each row, in ``0 .. k - 1``.
    counts : ndarray of int, shape (k,)
        Occupancy of each component; all entries positive.
    psi : ndarray, shape (k, sum_j (d_j + 1))
        Per component category probabilities over the codes
        ``0 .. d_j`` (missing included) of every variable, laid flat:
        variable ``j``'s code ``c`` sits at column
        ``schema.offsets(1)[j] + c``, and nothing pads a variable.
    """

    schema: CategoricalSchema
    assignments: np.ndarray
    counts: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        _freeze(self, assignments=np.int64, counts=np.int64, psi=np.float64)

    @property
    def k(self) -> int:
        """Number of occupied components."""
        return self.counts.shape[0]

    @property
    def n_rows(self) -> int:
        return self.assignments.shape[0]

    def validate(self) -> None:
        """Check the structural invariants, raising ValueError on failure."""
        k = self.k
        _check_tables(self.psi, self.schema, k, 1, "psi", 1e-10)
        if (self.counts <= 0).any():
            raise ValueError("every retained component must be occupied")
        if self.counts.sum() != self.n_rows:
            raise ValueError("component counts do not add up to the row count")
        if self.assignments.min() < 0 or self.assignments.max() >= k:
            raise ValueError("assignments reference missing components")
        obs = np.bincount(self.assignments, minlength=k)
        if not np.array_equal(obs, self.counts):
            raise ValueError("counts disagree with assignments")


@dataclass(frozen=True)
class CollapsedModel:
    """A finite mixture over observable codes, the end product of a fit.

    Attributes
    ----------
    schema : CategoricalSchema
    theta : ndarray, shape (k,)
        Mixture weights, summing to 1.
    probs : ndarray, shape (k, sum_j d_j)
        Per component probabilities over the observable codes ``1 ..
        d_j`` of every variable, laid flat: variable ``j``'s code ``c``
        sits at column ``schema.offsets(0)[j] + c - 1``.  The missing
        code has been divided out, so each vector sums to 1.
    """

    schema: CategoricalSchema
    theta: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        _freeze(self, theta=np.float64, probs=np.float64)
        _check_weights(self.theta, "theta", LOAD_TOL)
        _check_tables(self.probs, self.schema, self.k, 0, "probs", LOAD_TOL)

    @property
    def k(self) -> int:
        return self.theta.shape[0]

    @property
    def n_variables(self) -> int:
        return self.schema.n_variables

    @property
    def tilde_psi(self) -> np.ndarray:
        """``probs`` padded with zeros to a read-only (k, p, D) copy, for the
        benchmark's set-up alone until it reads the widths from the schema."""
        cards = self.schema.codes_array()
        real = np.arange(self.schema.max_cardinality) < cards[:, None]
        padded = np.zeros((self.k,) + real.shape)
        padded[:, real] = self.probs
        padded.setflags(write=False)
        return padded


@dataclass(frozen=True)
class JointDistribution:
    """Dense joint probability table over all variables.

    The table axis ``j`` has length ``d_j`` and index ``c`` corresponds
    to code ``c + 1``.  Construction refuses tables larger than
    ``DEFAULT_CELL_LIMIT`` cells; dense joints over many variables
    explode combinatorially and callers should fall back to
    :func:`catmix.inference.pair_marginal` style queries instead.
    """

    schema: CategoricalSchema
    table: np.ndarray

    def __post_init__(self):
        n_cells = self.schema.n_cells()
        if n_cells > DEFAULT_CELL_LIMIT:
            raise ValueError(
                f"joint table would hold {n_cells} cells, "
                f"limit is {DEFAULT_CELL_LIMIT}"
            )
        _freeze(self, table=np.float64)
        _check_shape(self.table, tuple(self.schema.cardinalities), "table")
        _check_weights(self.table.ravel(), "joint table", 1e-9)


@dataclass(frozen=True)
class MissingnessTable:
    """Cell-wise missingness probabilities.

    ``q[j]`` is an array of shape ``(d_1, ..., d_p)``;
    ``q[j][c1 - 1, ..., cp - 1]`` is the probability that variable ``j``
    goes missing in a row whose complete values are ``(c1, ..., cp)``.
    """

    schema: CategoricalSchema
    q: np.ndarray

    def __post_init__(self):
        _freeze(self, q=np.float64)
        q = self.q
        _check_shape(q, (self.schema.n_variables, *self.schema.cardinalities), "q")
        if not ((q >= 0) & (q <= 1)).all():
            raise ValueError("missingness probabilities must lie in [0, 1]")


# ---------------------------------------------------------------------------
# CSV datasets
# ---------------------------------------------------------------------------

def _csv_records(text: str) -> list[tuple[int, str]]:
    """``(number, line)`` for each nonblank line of ``text``, numbering
    every line from 1, blank ones included, as an editor does."""
    return [(i, ln) for i, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() != ""]


def _field_code(field: str) -> int:
    """The code of one raw CSV field, 0 for ``NA`` in any case or empty;
    raises ValueError unless the rest is an int64 above 0."""
    f = field.strip()
    if f == "" or f.upper() == NA_TOKEN:
        return MISSING
    try:
        code = int(f)
    except ValueError:
        raise ValueError(f"{f!r} is not an integer") from None
    if code <= 0:
        raise ValueError(f"codes must be positive, use {NA_TOKEN} for missing entries")
    if code > np.iinfo(np.int64).max:
        raise ValueError(f"code {f} does not fit in 64 bits")
    return code


def parse_dataset(text: str, schema: CategoricalSchema | None = None) -> Dataset:
    """Parse a CSV document into a :class:`Dataset`.

    The first line is a header of column names.  Each following line
    holds one integer code per column; missing cells are written as
    ``NA`` (an empty field is accepted as well).  Codes must be
    positive: 0 is reserved for missing and may not appear literally.

    All field counts are checked at once.  Blocks of lines are split
    into raw fields, each distinct field is decided once into a table of
    codes, and a block's fields are mapped through it into the array.
    An error names the first bad cell or line in reading order, blank
    lines counted.

    Parameters
    ----------
    text : str
        The CSV document.
    schema : CategoricalSchema, optional
        When given, codes are validated against it.  When omitted, the
        cardinality of each column is inferred as the largest code seen
        in that column.

    Returns
    -------
    Dataset

    Raises
    ------
    ParseError
        On structural problems, non integer fields, out of range codes,
        or columns whose cardinality cannot be inferred.
    """
    records = _csv_records(text)
    if not records:
        raise ParseError("document is empty")
    names = [f.strip() for f in records[0][1].split(",")]
    p = len(names)
    if schema is not None and schema.n_variables != p:
        raise ParseError(
            f"header has {p} columns but schema has "
            f"{schema.n_variables} variables"
        )

    body = records[1:]
    lines = [ln for _, ln in body]
    # the lines before the first of a wrong width are parsed first, so
    # that their cells' errors come before its own
    good = next((r for r, ln in enumerate(lines) if ln.count(",") != p - 1),
                len(lines))
    rows = np.empty((len(lines), p), dtype=np.int64)
    table = {}
    step = max(1, _FIELDS // p)
    for start in range(0, good, step):
        stop = min(start + step, good)
        fields = ",".join(lines[start:stop]).split(",")
        bad = {}
        for f in set(fields).difference(table):
            try:
                table[f] = _field_code(f)
            except ValueError as exc:
                bad[f] = str(exc)
        if bad:
            at = next(t for t, f in enumerate(fields) if f in bad)
            r, j = divmod(at, p)
            raise ParseError(f"line {body[start + r][0]}, column "
                             f"{names[j]!r}: {bad[fields[at]]}")
        rows[start:stop] = np.fromiter(map(table.__getitem__, fields),
                                       np.int64, len(fields)).reshape(-1, p)
    if good < len(lines):
        raise ParseError(f"line {body[good][0]}: expected {p} fields, "
                         f"found {lines[good].count(',') + 1}")

    if schema is None:
        cards = rows.max(axis=0, initial=0)
        bad = [names[j] for j in np.nonzero(cards < 2)[0]]
        if bad:
            raise ParseError(
                "cannot infer cardinalities for column(s) "
                f"{', '.join(bad)}; supply a schema"
            )
        schema = CategoricalSchema(cards.tolist())
    else:
        limit = schema.codes_array()
        over = rows > limit[None, :]
        if rows.size and over.any():
            r, j = np.argwhere(over)[0]
            raise ParseError(
                f"line {body[r][0]}, column {names[j]!r}: "
                f"code {rows[r, j]} exceeds cardinality {limit[j]}"
            )
    return Dataset(schema, rows, tuple(names))


def _csv(header, rows) -> str:
    """A CSV table: the ``header`` tuple, then a line per row tuple printed
    with ``str``; dataset rows and cell posteriors have their own templates."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return "".join([line % header, *(line % row for row in rows)])


def dataset_to_csv(dataset: Dataset) -> str:
    """Render a dataset in the CSV format understood by :func:`parse_dataset`,
    a block of rows at a time through a lookup of the block's distinct codes."""
    parts = [_csv(dataset.column_names, ())]
    for start in range(0, dataset.n_rows, _BLOCK):
        codes, at = np.unique(dataset.cells[start:start + _BLOCK],
                              return_inverse=True)
        texts = np.array([NA_TOKEN if c == MISSING else str(c)
                          for c in codes.tolist()], dtype=object)
        rows = texts[at.reshape(-1, dataset.n_variables)].tolist()
        parts.append("\n".join(map(",".join, rows)) + "\n")
    return "".join(parts)


def _cell_lines(names, schema: CategoricalSchema, filled: np.ndarray,
                posteriors: np.ndarray):
    """Yield the cell-posterior CSV of ``impute``'s ``filled`` cells and
    their zero padded ``cell_posteriors`` a block of cells at a time: each
    cell's ``row,column,`` prefix is built once for its d lines, and one
    ``%`` pass prints every probability."""
    yield "row,column,category,probability\n"
    names = [str(name).replace("%", "%%") for name in names]
    lines = ["".join(f"@{c},%r\n" for c in range(1, d + 1))
             for d in schema.cardinalities]  # "@" stands for a cell's prefix
    real = np.arange(posteriors.shape[1]) < schema.codes_array()[:, None]
    for start in range(0, len(filled), _BLOCK):
        rows, cols = filled[start:start + _BLOCK].T.tolist()
        form = "".join([lines[j].replace("@", f"{i},{names[j]},")
                        for i, j in zip(rows, cols)])
        yield form % tuple(posteriors[start:start + _BLOCK][real[cols]].tolist())


# ---------------------------------------------------------------------------
# Model JSON documents
# ---------------------------------------------------------------------------

def _json_numbers(values, kind=(int, float)) -> bool:
    """Whether ``values`` is a list of finite JSON numbers of ``kind``:
    no bools, and no integer beyond the float range."""
    return isinstance(values, list) and not any(
        isinstance(v, bool) or not isinstance(v, kind)
        or not abs(v) <= sys.float_info.max for v in values)


def model_from_dict(obj) -> CollapsedModel:
    """The model of a parsed :func:`serialize_model` document, validated.

    Raises
    ------
    LoadError
        If required keys are missing, shapes are inconsistent, entries
        are not JSON numbers, negative or not finite, or a probability
        vector deviates from sum 1 by more than 1e-8.
    """
    return _model_from_dict(obj, {})


def _model_from_dict(obj, schemas: dict) -> CollapsedModel:
    """:func:`model_from_dict`, keeping each checked schema in ``schemas``."""
    if not isinstance(obj, dict):
        raise LoadError(f"model document must be an object, got {type(obj).__name__}")
    for key in ("k", "cardinalities", "theta", "tildePsi"):
        if key not in obj:
            raise LoadError(f"model document lacks required key {key!r}")
    if not _json_numbers(obj["cardinalities"], int):
        raise LoadError("cardinalities must be a list of integers")
    cards = tuple(obj["cardinalities"])
    if cards not in schemas:
        try:
            schemas[cards] = CategoricalSchema(cards)
        except ValueError as exc:
            raise LoadError(f"bad cardinalities: {exc}") from None
    schema = schemas[cards]

    k = obj["k"]
    theta = obj["theta"]
    tilde = obj["tildePsi"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise LoadError(f"k must be a positive integer, got {k!r}")
    if not _json_numbers(theta) or len(theta) != k:
        raise LoadError(f"theta must be a list of finite numbers of length k={k}")
    if not isinstance(tilde, list) or len(tilde) != k:
        raise LoadError(f"tildePsi must be a list of length k={k}")

    # checked as whole arrays; the first failure in reading order is then
    # located: a component short of p vectors, or a vector of the wrong
    # length or with an entry that is not a finite JSON number
    p, cards = schema.n_variables, schema.cardinalities
    comps = next((h for h, comp in enumerate(tilde)
                  if not isinstance(comp, list) or len(comp) != p), k)
    vecs = [vec for comp in tilde[:comps] for vec in comp]
    fits = [isinstance(vec, list) and len(vec) == d
            for vec, d in zip(vecs, cards * comps)]
    whole = fits.index(False) if False in fits else len(vecs)
    flat = list(itertools.chain.from_iterable(vecs[:whole]))
    values = None
    if all(issubclass(t, (int, float)) and not issubclass(t, bool)
           for t in set(map(type, flat))):
        with contextlib.suppress(OverflowError):
            values = np.array(flat, np.float64)
    if values is None or not (np.abs(values) < sys.float_info.max).all():
        whole = next((v for v, vec in enumerate(vecs[:whole])
                      if not _json_numbers(vec)), whole)
    if whole < len(vecs):
        h, j = divmod(whole, p)
        raise LoadError(f"tildePsi[{h}][{j}] must have {cards[j]} entries, "
                        "all finite numbers")
    if comps < k:
        raise LoadError(f"tildePsi[{comps}] must list {p} variables")
    try:
        return CollapsedModel(schema, np.asarray(theta, dtype=np.float64),
                              values.reshape(k, -1))
    except (TypeError, ValueError) as exc:
        raise LoadError(str(exc)) from None


#: JSON text on one line, as json's C encoder writes it; the values are
#: built here, so none holds a cycle to check for.
_compact = functools.partial(json.dumps, separators=(",", ":"),
                             check_circular=False)


def _model_text(model: CollapsedModel) -> str:
    """One model's document on one line, as ``_compact`` writes the whole
    of it, each float as its ``repr``.  The components are encoded one at
    a time: the encoder holds the text of every number until it joins
    them, which for a whole draw raised a 1500-row fit's peak RSS 0.3 MB."""
    starts = model.schema.offsets(0).tolist()
    spans = list(zip(starts[:-1], starts[1:]))
    comps = ",".join(_compact([row[i:j] for i, j in spans])
                     for row in model.probs.tolist())
    return (f'{{"k":{model.k},"cardinalities":'
            f'{_compact(model.schema.cardinalities)},'
            f'"theta":{_compact(model.theta.tolist())},"tildePsi":[{comps}]}}')


def serialize_model(model: CollapsedModel) -> str:
    """Serialize one model as a JSON document (bit exact round trip)."""
    return _model_text(model) + "\n"


def _checked(models: Iterable[CollapsedModel], error=ValueError, cards=None):
    """Yield ``models`` as they arrive; raises ``error`` unless they are
    at least one and share one schema, of the cardinalities listed in
    ``cards`` if that is given."""
    m = None
    for m in models:
        if not isinstance(m, CollapsedModel):
            raise error(f"expected CollapsedModel draws, got {type(m).__name__}")
        cards = list(m.schema.cardinalities) if cards is None else cards
        if list(m.schema.cardinalities) != cards:
            raise error("draws disagree on cardinalities")
        yield m
    if m is None:
        raise error("need at least one posterior draw")


def _document(models: Iterable[CollapsedModel]):
    """Yield :func:`serialize_models`'s document, one draw per line as the
    draws arrive, between a first line that lists the cardinalities and a
    last that closes the list."""
    draws = _checked(models)
    first = next(draws)
    yield f'{{"cardinalities":{_compact(first.schema.cardinalities)},"draws":['
    for i, m in enumerate(itertools.chain([first], draws)):
        yield (",\n" if i else "\n") + _model_text(m)
    yield "\n]}\n"


def serialize_models(models: Iterable[CollapsedModel]) -> str:
    """Serialize a list of posterior draws as one JSON document."""
    return "".join(_document(models))


def deserialize_models(text: str) -> list[CollapsedModel]:
    """Parse a document produced by :func:`serialize_models`.

    Single-model documents are accepted too and yield a one element
    list, so consumers can treat the two formats interchangeably.
    """
    raw = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    return list(_models(io.TextIOWrapper(raw, encoding="utf-8",
                                         errors="surrogatepass", newline="")))


class _Utf8:
    """The binary file ``raw`` read as ``open`` reads UTF-8 text, a part at
    a time: a byte that is not UTF-8 is placed in the whole file, as one
    read of the whole file places it, without seeking."""

    def __init__(self, raw):
        self.raw, self.done = raw, 0  # the bytes decoded so far
        self.decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("utf-8")(), translate=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.raw.close()

    def read(self, size: int) -> str:
        """Up to ``size`` characters, or "" at the end of the file."""
        while True:
            data = self.raw.read(size)
            # the decoder still holds the bytes of a character cut short
            at = self.done - len(self.decoder.getstate()[0])
            try:
                text = self.decoder.decode(data, final=not data)
            except UnicodeDecodeError as exc:
                start, end = at + exc.start, at + exc.end - 1
                where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
                         if start == end else f"bytes in position {start}-{end}")
                raise LoadError(f"'{exc.encoding}' codec can't decode {where}: "
                                f"{exc.reason}") from None
            self.done += len(data)
            if text or not data:  # a cut character may decode to nothing
                return text


def _models(f):
    """Yield the models of the model document in the text file ``f``, each
    element of ``"draws"`` as it is decoded, and close ``f``.  The text is
    read ``_CHUNK`` characters at a time, more while a value does not fit,
    so ``f`` need not seek.  A draw's error is raised when it is reached, a
    syntax error as ``json.loads`` words it for the whole text, and a key
    named twice is refused."""
    buf, at, eof, doc, last, schemas = "", 0, False, {}, None, {}
    decode, space = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE.match
    # the characters and newlines dropped from the front of ``buf``, and
    # the characters dropped after the last of those newlines
    dropped = lines = column = 0

    def peek(read=False) -> str:  # the next character but white space
        nonlocal buf, at, eof, dropped, lines, column
        while read or (at := space(buf, at).end()) == len(buf) and not eof:
            more = f.read(max(_CHUNK, len(buf) - at))
            if (newlines := buf.count("\n", 0, at)):
                lines += newlines
                column = at - buf.rindex("\n", 0, at) - 1
            else:
                column += at
            dropped += at
            buf, at, eof, read = buf[at:] + more, 0, not more, False
        return buf[at:at + 1]

    def take(chars: str, message: str) -> str:  # the next one, of ``chars``
        nonlocal at
        if (c := peek()) == "" or c not in chars:
            raise json.JSONDecodeError(message, buf, at)
        at += 1
        return c

    def value():  # from a chunk or more, once a delimiter or the end follows
        nonlocal at
        peek(read=not eof and len(buf) - at < _CHUNK)
        while not eof:
            with contextlib.suppress(json.JSONDecodeError):
                obj, end = decode(buf, at)
                if _DELIMITED.match(buf, end):
                    at = end
                    return obj
            peek(read=True)
        obj, at = decode(buf, at)
        return obj

    def items(close: str):  # past an opening bracket, stop at each item
        nonlocal at
        at += 1
        if peek() == close:
            at += 1
            return
        yield
        while take("," + close, "Expecting ',' delimiter") == ",":
            yield

    with f:
        try:
            if peek() != "{":
                if buf.startswith("\ufeff") and not dropped:
                    raise json.JSONDecodeError(
                        "Unexpected UTF-8 BOM (decode using utf-8-sig)", buf, 0)
                doc = value()
            else:
                for _ in items("}"):
                    if peek() != '"':
                        raise json.JSONDecodeError(
                            "Expecting property name enclosed in double quotes",
                            buf, at)
                    key = value()
                    take(":", "Expecting ':' delimiter")
                    if key in doc:
                        raise LoadError(f"model document names {key!r} twice")
                    if key != "draws" or peek() != "[":
                        doc[key] = value()
                        continue
                    doc[key] = None  # its draws are yielded as they are decoded
                    draws = (_model_from_dict(value(), schemas)
                             for _ in items("]"))
                    for last in _checked(draws, LoadError,
                                         doc.get("cardinalities")):
                        yield last
            if peek():
                raise json.JSONDecodeError("Extra data", buf, at)
        except json.JSONDecodeError as exc:
            # placed in the whole text: json's line and column in ``buf``,
            # after the lines and the part of a line dropped before it
            pos, text = exc.pos, exc.doc
            line = lines + text.count("\n", 0, pos) + 1
            col = pos - (newline := text.rfind("\n", 0, pos))
            col += column if newline < 0 else 0
            raise LoadError(f"invalid JSON: {exc.msg}: line {line} column "
                            f"{col} (char {dropped + pos})") from None
    if last is None:
        if isinstance(doc, dict) and "draws" in doc:
            raise LoadError("'draws' must be a list")
        yield model_from_dict(doc)
    elif doc.get("cardinalities") not in (None, list(last.schema.cardinalities)):
        raise LoadError("draws disagree on cardinalities")
