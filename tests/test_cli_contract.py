"""Property tests of the CLI contract: every input either completes or
fails with one clean line.

Each example runs whole commands through ``cli.main`` with warnings
raised as errors, and accepts one of two outcomes: exit 0 with valid
outputs, or exit 1 or 2 with exactly one ``error:`` line on standard
error and no output file.  Outputs are drawn unwritable or named twice
now and then, so a command that fails must leave none of its outputs.
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

#: Stands for the command's own ``--out`` path in drawn flags.
OUT = "<out>"

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
    fit = ["--seed", draw(st.integers(-5, 99)),
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
    # about one fit in six names its model file twice
    fit += draw(st.sampled_from([[]] * 5 + [["--k-histogram", OUT]]))
    impute = ["--rule", draw(st.sampled_from(["argmax", "sample"])),
              "--seed", draw(st.integers(-5, 99))]
    impute += draw(st.sampled_from([[]] * 5 + [["--cell-posterior", OUT]]))
    return cards, table, fit, impute


def _named(flags, out):
    return [out if flag == OUT else flag for flag in flags]


@CONTRACT
@given(fits())
def test_fit_then_impute_completes_or_fails_cleanly(case):
    cards, table, fit_flags, impute_flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, model = tmp / "data.csv", tmp / "model.json"
        data.write_text(table)
        rc, err = _run(["fit", data, "--out", model, *_named(fit_flags, model)])
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
        rc, err = _run(["impute", data, model, "--out", out,
                        *_named(impute_flags, out)])
        if rc != 0:
            _check_failure(rc, err, out, cells)
            return
        filled = parse_dataset(out.read_text(), schema).cells
        observed = given_data.cells != 0
        assert (filled[observed] == given_data.cells[observed]).all()
        assert ((filled >= 1) & (filled <= schema.codes_array())).all()
        assert cells.exists()


@st.composite
def simulations(draw):
    """Flags of one ``simulate``, short of ``--out``, and its other outputs:
    each absent, fresh, the name of an earlier output, or in a missing
    directory, as a name within the directory of ``--out``."""
    protocol = draw(st.sampled_from(["mixture", "xor"]))
    flags = ["--protocol", protocol, "--seed", draw(st.integers(-5, 99)),
             "--n", draw(st.integers(1, 30))]
    if protocol == "mixture":
        for flag, low, high in (("--p", 1, 6), ("--k", 1, 4),
                                ("--cardinality", 2, 4)):
            if draw(st.booleans()):
                flags += [flag, draw(st.integers(low, high))]
    mechanism = draw(st.sampled_from(["none", "mcar", "mar", "mnar"]))
    flags += ["--mechanism", mechanism]
    rate = st.floats(0, 1).map(repr)
    rates = {"mcar": ("--mcar-rate", rate),
             "mar": ("--mar-rates", st.tuples(rate, rate).map(",".join)),
             "mnar": ("--mnar-rates", st.tuples(rate, rate).map(",".join))}
    if mechanism in rates and draw(st.booleans()):
        flag, value = rates[mechanism]
        flags += [flag, draw(value)]
    names = ["data.csv"]
    outputs = {}
    for flag in ("--complete-out", "--truth-out", "--mask-out"):
        kind = draw(st.sampled_from(["absent", "fresh", "taken", "missing"]))
        if kind != "absent":
            outputs[flag] = {"fresh": f"{flag[2:]}.txt",
                             "taken": draw(st.sampled_from(names)),
                             "missing": f"nodir/{flag[2:]}.txt"}[kind]
            names.append(outputs[flag])
    return flags, outputs


@CONTRACT
@given(simulations())
def test_simulate_writes_every_output_or_none(case):
    flags, outputs = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "data.csv"
        named = {flag: tmp / name for flag, name in outputs.items()}
        rc, err = _run(["simulate", *flags, "--out", out,
                        *[a for pair in named.items() for a in pair]])
        if rc != 0:
            _check_failure(rc, err, out, *named.values())
            return
        assert "error:" not in err
        # every output is its own file and nothing else is left
        written = sorted(p.name for p in tmp.iterdir())
        assert written == sorted(["data.csv", *outputs.values()])
        d = flags[flags.index("--cardinality") + 1] \
            if "--cardinality" in flags else 2
        width = len(out.read_text().split("\n", 1)[0].split(","))
        schema = CategoricalSchema([d] * width)
        data = parse_dataset(out.read_text(), schema)
        if "--complete-out" in named:
            complete = parse_dataset(named["--complete-out"].read_text(), schema)
            assert complete.n_missing() == 0
            seen = data.cells != 0
            assert (complete.cells[seen] == data.cells[seen]).all()
        if "--truth-out" in named:
            truth = deserialize_models(named["--truth-out"].read_text())[0]
            assert truth.schema.cardinalities == schema.cardinalities
        if "--mask-out" in named:
            mask = named["--mask-out"].read_text().splitlines()
            assert mask[0] == "row,column,value"
            assert len(mask) - 1 == data.n_missing()


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
