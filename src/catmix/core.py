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
* Arrays that stack per-variable vectors are padded with zeros up to
  the largest cardinality so that everything fits in one rectangular
  ndarray.  A chain state's psi (:class:`ModelState`) is the exception:
  it lays every variable's codes ``0 .. d_j`` end to end in one flat
  row, variable ``j`` from its :meth:`CategoricalSchema.offsets` entry.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
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
    "model_to_dict",
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


def rescale_missing(psi: np.ndarray) -> np.ndarray:
    """Divide the missing mass out: ``psi[..., 1:] / psi[..., 1:].sum(-1)``.

    Turns vectors over the codes ``0 .. d`` into vectors over the
    observable codes, indexed by ``code - 1``, with no cancellation near
    ``psi[..., 0] = 1``.  Raises ValueError on zero observable mass.
    """
    mass = psi[..., 1:].sum(axis=-1, keepdims=True)
    if (mass == 0).any():
        raise ValueError(
            "a component assigns probability 1 to the missing code, so it "
            "cannot be rescaled to the observable codes"
        )
    return psi[..., 1:] / mass


def _freeze(record, **dtypes) -> None:
    """Store each named field of the frozen dataclass ``record`` as a
    read-only array of the dtype given for it."""
    for name, dtype in dtypes.items():
        a = np.asarray(getattr(record, name), dtype)
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
                  offset: int, name: str, tol: float) -> None:
    """Raise ValueError unless ``a`` is a ``(k, p, D + offset)`` stack of
    zero padded probability vectors, finite, nonnegative and summing to 1
    within ``tol``; ``offset`` is 1 with the missing code and 0 without."""
    width = schema.max_cardinality + offset
    _check_shape(a, (k, schema.n_variables, width), name)
    if not np.isfinite(a).all() or (a < 0).any():
        raise ValueError(f"{name} entries must be finite and nonnegative")
    padding = np.arange(width) >= schema.codes_array()[:, None] + offset
    stray = (a * padding).any(axis=(0, 2))
    if stray.any():
        raise ValueError(f"{name} padding of variable {stray.argmax()} is not zero")
    # with the padding zero, summing the full width sums each vector
    off = (np.abs(a.sum(axis=2) - 1.0) > tol).any(axis=0)
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

    def offsets(self) -> np.ndarray:
        """Start of each variable's codes ``0 .. d_j`` in the flat layout
        of :class:`ModelState`, then its width ``sum_j (d_j + 1)``."""
        return np.cumsum([0, *(d + 1 for d in self.cardinalities)])


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

    @property
    def observed_mask(self) -> np.ndarray:
        """Boolean mask of observed (non missing) cells."""
        return self.cells != MISSING

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
        ``schema.offsets()[j] + c``, and nothing pads a variable.
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
        starts = self.schema.offsets()
        _check_shape(self.psi, (k, int(starts[-1])), "psi")
        if not np.isfinite(self.psi).all() or (self.psi < 0).any():
            raise ValueError("psi entries must be finite and nonnegative")
        sums = np.add.reduceat(self.psi, starts[:-1], axis=1)
        off = (np.abs(sums - 1.0) > 1e-10).any(axis=0)
        if off.any():
            raise ValueError(f"psi rows of variable {off.argmax()} do not sum to 1")
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
    tilde_psi : ndarray, shape (k, p, D)
        Per component probabilities over the observable codes
        ``1 .. d_j`` of each variable, stored at index ``code - 1`` and
        zero padded beyond ``d_j``.  The missing code has been divided
        out, so each row sums to 1.
    """

    schema: CategoricalSchema
    theta: np.ndarray
    tilde_psi: np.ndarray

    def __post_init__(self):
        _freeze(self, theta=np.float64, tilde_psi=np.float64)
        _check_weights(self.theta, "theta", LOAD_TOL)
        _check_tables(self.tilde_psi, self.schema, self.k, 0, "tilde_psi",
                      LOAD_TOL)

    @property
    def k(self) -> int:
        return self.theta.shape[0]

    @property
    def n_variables(self) -> int:
        return self.schema.n_variables


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


def _cell_lines(names, posteriors: dict):
    """Yield the cell-posterior CSV of ``impute``'s ``cell_posteriors`` a
    block of cells at a time: each cell's ``row,column,`` prefix is built
    once for its d lines, and one ``%`` pass prints every probability."""
    yield "row,column,category,probability\n"
    names = [str(name).replace("%", "%%") for name in names]
    cells = iter(posteriors.items())
    while block := list(itertools.islice(cells, _BLOCK)):
        keys, vecs = zip(*block)
        sizes = [vec.size for vec in vecs]
        lines = {d: "".join(f"@{c},%r\n" for c in range(1, d + 1))
                 for d in set(sizes)}  # "@" stands for a cell's prefix
        form = "".join([lines[d].replace("@", f"{i},{names[j]},")
                        for (i, j), d in zip(keys, sizes)])
        yield form % tuple(np.concatenate(vecs).tolist())


# ---------------------------------------------------------------------------
# Model JSON documents
# ---------------------------------------------------------------------------

def model_to_dict(model: CollapsedModel) -> dict:
    """Plain-JSON representation of a collapsed model, parsed from
    :func:`serialize_model`: ``tildePsi[h][j]`` has exactly ``d_j``
    entries, so the document never exposes the internal zero padding."""
    return json.loads(serialize_model(model))


def _json_numbers(values, kind=(int, float)) -> bool:
    """Whether ``values`` is a list of finite JSON numbers of ``kind``:
    no bools, and no integer beyond the float range."""
    return isinstance(values, list) and not any(
        isinstance(v, bool) or not isinstance(v, kind)
        or not abs(v) <= sys.float_info.max for v in values)


def model_from_dict(obj) -> CollapsedModel:
    """Inverse of :func:`model_to_dict`, validating as it goes.

    Raises
    ------
    LoadError
        If required keys are missing, shapes are inconsistent, entries
        are not JSON numbers, negative or not finite, or a probability
        vector deviates from sum 1 by more than 1e-8.
    """
    if not isinstance(obj, dict):
        raise LoadError(f"model document must be an object, got {type(obj).__name__}")
    for key in ("k", "cardinalities", "theta", "tildePsi"):
        if key not in obj:
            raise LoadError(f"model document lacks required key {key!r}")
    if not _json_numbers(obj["cardinalities"], int):
        raise LoadError("cardinalities must be a list of integers")
    try:
        schema = CategoricalSchema(obj["cardinalities"])
    except ValueError as exc:
        raise LoadError(f"bad cardinalities: {exc}") from None

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
    # allocated only now that every vector has its d_j entries
    valid = np.arange(schema.max_cardinality) < schema.codes_array()[:, None]
    packed = np.zeros((k,) + valid.shape)
    packed[:, valid] = values.reshape(k, -1)
    try:
        return CollapsedModel(schema, np.asarray(theta, dtype=np.float64), packed)
    except (TypeError, ValueError) as exc:
        raise LoadError(str(exc)) from None


def _json_list(items, pad: str) -> str:
    """The JSON texts ``items`` in a list laid out as ``json.dumps(...,
    indent=2)`` lays it out with its closing bracket at indent ``pad``."""
    inner = ",\n" + pad + "  "
    return "[" + inner[1:] + inner.join(items) + "\n" + pad + "]"


def _model_texts(models: Iterable[CollapsedModel], schema, pad: str):
    """Yield the :func:`model_to_dict` document of each model of ``schema``
    as ``json.dumps(..., indent=2)`` lays it out at indent ``pad``.  One
    ``%r`` template per distinct k takes theta, then tilde psi's real
    entries: ``repr`` of a finite float is the text ``json`` writes."""
    cards = schema.cardinalities
    real = np.arange(max(cards)) < schema.codes_array()[:, None]
    key = pad + "  "
    head = (f'{{\n{key}"k": %d,\n{key}"cardinalities": '
            f'{_json_list(map(str, cards), key)},\n{key}"theta": ')
    comp = _json_list([_json_list(["%r"] * d, key + "    ") for d in cards],
                      key + "  ")
    templates = {}
    for m in models:
        if m.k not in templates:
            templates[m.k] = (head + _json_list(["%r"] * m.k, key) +
                              f',\n{key}"tildePsi": ' +
                              _json_list([comp] * m.k, key) + f"\n{pad}}}")
        yield templates[m.k] % (m.k, *m.theta.tolist(),
                                *m.tilde_psi[:, real].ravel().tolist())


def serialize_model(model: CollapsedModel) -> str:
    """Serialize one model as a JSON document (bit exact round trip)."""
    return next(_model_texts([model], model.schema, "")) + "\n"


def _checked(models: Iterable[CollapsedModel], error=ValueError):
    """Yield ``models`` as they arrive; raises ``error`` unless they are
    at least one and share one schema."""
    cards = None
    for m in models:
        cards = cards or m.schema.cardinalities
        if m.schema.cardinalities != cards:
            raise error("draws disagree on cardinalities")
        yield m
    if cards is None:
        raise error("need at least one posterior draw")


def _document(models: Iterable[CollapsedModel]):
    """Yield :func:`serialize_models`'s document, one piece per draw as
    the draws arrive."""
    draws = _checked(models)
    first = next(draws)
    cards = _json_list(map(str, first.schema.cardinalities), "  ")
    yield f'{{\n  "cardinalities": {cards},\n  "draws": ['
    texts = _model_texts(itertools.chain([first], draws), first.schema, "    ")
    for i, text in enumerate(texts):
        yield (",\n    " if i else "\n    ") + text
    yield "\n  ]\n}\n"


def serialize_models(models: Iterable[CollapsedModel]) -> str:
    """Serialize a list of posterior draws as one JSON document."""
    return "".join(_document(models))


def deserialize_models(text: str) -> list[CollapsedModel]:
    """Parse a document produced by :func:`serialize_models`.

    Single-model documents are accepted too and yield a one element
    list, so consumers can treat the two formats interchangeably.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"invalid JSON: {exc}") from None
    if isinstance(obj, dict) and "draws" in obj:
        draws = obj["draws"]
        if not isinstance(draws, list):
            raise LoadError("'draws' must be a list")
        return list(_checked(map(model_from_dict, draws), LoadError))
    return [model_from_dict(obj)]
