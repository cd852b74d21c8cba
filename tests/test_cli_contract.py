"""Property tests of the CLI contract: every input either completes or
fails with one clean line.

Each example runs whole commands through ``cli.main`` with warnings
raised as errors, and accepts one of two outcomes: exit 0 with valid
outputs, or exit 1 or 2 with exactly one ``error:`` line on standard
error and no output file.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catmix import cli
from catmix.core import CategoricalSchema, deserialize_models, parse_dataset

CONTRACT = settings(max_examples=130, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _run(argv) -> tuple[int, str]:
    """Exit code and standard error of ``catmix argv``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def _check_failure(rc, err, *outputs):
    assert rc in (1, 2), err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert "Traceback" not in err
    for path in outputs:
        assert not path.exists(), path
    leftovers = [p for p in outputs[0].parent.iterdir()
                 if p.name.startswith(".")]
    assert not leftovers


def _prior(draw, low, high):
    """A prior drawn log-uniform over [10**low, 10**high], as flag text
    of a float or, from 1 up, of an integer."""
    value = 10.0 ** draw(st.floats(low, high))
    if value >= 1 and draw(st.booleans()):
        return str(round(value))
    return repr(value)


@st.composite
def fits(draw):
    n = draw(st.integers(1, 30))
    cards = draw(st.lists(st.integers(2, 12), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = rng.integers(1, np.array(cards) + 1, size=(n, len(cards)))
    cells[rng.random(cells.shape) < draw(st.floats(0, 1))] = 0
    cells[:, sorted(draw(st.sets(st.integers(0, len(cards) - 1))))] = 0  # all NA
    table = ",".join(f"c{j}" for j in range(len(cards))) + "\n" + "".join(
        ",".join(str(c) if c else "NA" for c in row) + "\n"
        for row in cells.tolist())
    fit = ["--seed", draw(st.integers(0, 99)),
           "--burnin", draw(st.integers(0, 3)),
           "--samples", draw(st.integers(1, 3)),
           "--thin", draw(st.integers(1, 2)),
           "--alpha", _prior(draw, -300, 300),
           "--beta", _prior(draw, -2, 300),
           "--progress-every", "0"]
    if draw(st.booleans()):
        fit += ["--schema", ",".join(map(str, cards))]
    if draw(st.booleans()):
        fit.append("--summary")
    impute = ["--rule", draw(st.sampled_from(["argmax", "sample"])),
              "--seed", draw(st.integers(0, 99))]
    return cards, table, fit, impute


@CONTRACT
@given(fits())
def test_fit_then_impute_completes_or_fails_cleanly(case):
    cards, table, fit_flags, impute_flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, model = tmp / "data.csv", tmp / "model.json"
        data.write_text(table)
        rc, err = _run(["fit", data, "--out", model, *fit_flags])
        khist = tmp / "model.json.khist.csv"
        if rc != 0:
            _check_failure(rc, err, model, khist)
            return
        assert "error:" not in err
        given_data = parse_dataset(
            table, CategoricalSchema(cards) if "--schema" in fit_flags else None)
        schema = deserialize_models(model.read_text())[0].schema
        assert schema.cardinalities == given_data.schema.cardinalities
        assert khist.exists()

        out, cells = tmp / "filled.csv", tmp / "filled.csv.cells.csv"
        rc, err = _run(["impute", data, model, "--out", out, *impute_flags])
        if rc != 0:
            _check_failure(rc, err, out, cells)
            return
        filled = parse_dataset(out.read_text(), schema).cells
        observed = given_data.cells != 0
        assert (filled[observed] == given_data.cells[observed]).all()
        assert ((filled >= 1) & (filled <= schema.codes_array())).all()
        assert cells.exists()


#: Ratings on the half-star scale, and fields that are not such ratings.
GOOD_RATINGS = [f"{r / 2:g}" for r in range(1, 11)]
BAD_RATINGS = ["0", "5.5", "2.7", "-1", "x", "", "nan", "inf"]
#: Identifier text without commas or line breaks, integer-like or not,
#: from a small pool so that users rate the same items.
IDS = st.one_of(st.integers(-1, 6).map(str),
                st.text(alphabet="ab 01+.", min_size=1, max_size=2))


@st.composite
def ratings(draw):
    rows = draw(st.lists(st.tuples(
        IDS, IDS,
        st.one_of(st.sampled_from(GOOD_RATINGS),
                  st.sampled_from(BAD_RATINGS)) if draw(st.booleans())
        else st.sampled_from(GOOD_RATINGS)), min_size=1, max_size=40))
    text = "user,item,rating\n" + "".join(f"{u},{i},{r}\n"
                                          for u, i, r in rows)
    flags = ["--coding", draw(st.sampled_from(["binary", "five"]))]
    if flags[1] == "binary" and draw(st.booleans()):
        flags += ["--cutoff", repr(draw(st.floats(0.25, 5.5)))]
    for flag in ("--item-threshold", "--user-threshold"):
        if draw(st.booleans()):
            flags += [flag, repr(draw(st.floats(0, 1)))]
    return text, flags


@CONTRACT
@given(ratings())
def test_preprocess_ratings_completes_or_fails_cleanly(case):
    text, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src, out = tmp / "ratings.csv", tmp / "coded.csv"
        src.write_text(text)
        rc, err = _run(["preprocess-ratings", src, "--out", out, *flags])
        if rc != 0:
            _check_failure(rc, err, out)
            return
        d = 2 if flags[1] == "binary" else 5
        header = out.read_text().split("\n", 1)[0]
        schema = CategoricalSchema([d] * len(header.split(",")))
        data = parse_dataset(out.read_text(), schema)
        assert data.n_rows >= 1
