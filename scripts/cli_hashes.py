"""Hash the outputs of fixed catmix CLI commands, to show that a change keeps them.

    python3 scripts/cli_hashes.py [--src DIR]

Runs a fixed list of ``catmix`` commands, each as
``python -m catmix.cli`` in a fresh interpreter, in one temporary
directory: ``simulate`` (mixture MCAR with all four outputs, xor MNAR
with ``--mask-out`` and ``--truth-out``, and one run under each mechanism
with explicit rates: ``--mcar-rate``, ``--mar-rates`` with
``--mask-out``, ``--mnar-rates``, and one with no mechanism), ``fit`` (with ``--progress-every 7``,
with ``--summary``, and with ``--schema`` on a small inline table of
cardinalities 2, 5, 9 and 12 and on a messy one with spaces, ``na``,
empty fields and blank lines, and on one of cardinalities 2, 4 and 100),
``impute`` (argmax, and ``--rule sample``, from the mixture fit, from the
three inline tables' fits, and from the xor point-mass truth model), ``fit`` of a malformed inline table, which exits
1 with one error line, ``test-independence`` (to stdout, to ``--out`` and
at ``--n 5000``), ``benchmark --reps 3 --jobs 1`` with ``--out`` and
``--summary-out``, ``preprocess-ratings`` (binary and five) on a small
inline ratings table, and fifteen commands that exit 1: ``fit --out``
into a missing directory, ``fit --k-histogram`` into a missing directory,
``impute --out`` and ``test-independence --out`` into a missing
directory, a ``benchmark --out`` whose every replication fails,
``simulate --mask-out`` into a missing directory, ``fit`` with one path
for ``--out`` and ``--k-histogram``, ``benchmark --summary-out`` into a
missing directory, ``fit --out`` naming an existing directory,
``simulate --out`` ending in a separator, ``impute`` from a draws
document whose own cardinalities disagree with its draw's, and an empty
``fit --k-histogram``, ``impute --cell-posterior`` and
``test-independence --out``, and, last, a ``fit`` whose ``--out`` names
its own input table; none of them leaves a file. It prints one
``name sha1`` line for each command's stdout, one ``name sha1 exit=N``
line for its stderr and exit code, and then one ``name sha1`` line for
each file the commands wrote. The elapsed seconds in ``fit``'s summary
line are masked.

``--src`` names the directory that holds the ``catmix`` package
(default: this repository's ``src``); run the script once per checkout
and compare the outputs with ``diff``.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FAST = ["--burnin", "10", "--samples", "5", "--thin", "2"]
RATINGS = "user,item,rating\n" + "".join(
    f"u{u},m{i},{(u * 7 + i * 3) % 9 / 2 + 0.5}\n"
    for u in range(12) for i in range(5) if (u + i) % 6)
# cardinalities 2, 5, 9 and 12, about one cell in four missing, so that
# imputing it sums predictive vectors of eight codes and more
MIXED = "a,b,c,d\n" + "".join(
    ",".join("NA" if (r * 3 + j) % 4 == 0 else str((r * m + j) % d + 1)
             for j, (m, d) in enumerate(((1, 2), (3, 5), (7, 9), (5, 12))))
    + "\n" for r in range(40))
# spaces around codes, NA in several cases, empty fields and blank lines,
# cardinalities 3, 7, 12 and 2, read through an explicit schema
MESSY = "x, y ,z,w\n" + "".join(
    ("\n" if r % 7 == 3 else "") + ",".join(
        ["na", " NA", "", " Na "][(r + j) % 4] if (r * 5 + j) % 6 == 0
        else f" {(r * m + j) % d + 1}"
        for j, (m, d) in enumerate(((1, 3), (5, 7), (7, 12), (1, 2))))
    + "\n" for r in range(45))
# cardinalities 2, 4 and 100, about one cell in four missing, so that
# imputing it pads the two narrow variables to a hundred codes
HUNDRED = "p,q,r\n" + "".join(
    ",".join("NA" if (r * 5 + j) % 4 == 1 else str((r * m + j) % d + 1)
             for j, (m, d) in enumerate(((1, 2), (3, 4), (7, 100))))
    + "\n" for r in range(60))
# a wrong field count on line 5 comes before the bad code on line 6
MALFORMED = "a,b,c\n1,2,3\n\n2, na,\n1,2\n3,x,1\n"
# one uniform draw over MIXED's cardinalities, under a document that
# lists one variable fewer
CLAIMED = json.dumps({"cardinalities": [2, 5, 9], "draws": [{
    "k": 1, "cardinalities": [2, 5, 9, 12], "theta": [1.0],
    "tildePsi": [[[1 / d] * d for d in (2, 5, 9, 12)]]}]})
#: (name, argv) of each command, run in this order in one directory.
COMMANDS = (
    ("simulate-mixture", ["simulate", "--protocol", "mixture", "--n", "40",
                          "--p", "5", "--seed", "1", "--mechanism", "mcar",
                          "--out", "mixture.csv", "--complete-out",
                          "complete.csv", "--truth-out", "truth.json",
                          "--mask-out", "mask.csv"]),
    ("simulate-xor", ["simulate", "--protocol", "xor", "--n", "60",
                      "--seed", "2", "--mechanism", "mnar", "--out", "xor.csv",
                      "--mask-out", "xor-mask.csv", "--truth-out",
                      "xor-truth.json"]),
    ("simulate-mcar-rate", ["simulate", "--protocol", "mixture", "--n", "30",
                            "--p", "4", "--seed", "21", "--mechanism", "mcar",
                            "--mcar-rate", "0.35", "--out", "mcar-rate.csv"]),
    ("simulate-mar-rates", ["simulate", "--protocol", "mixture", "--n", "40",
                            "--p", "4", "--seed", "22", "--mechanism", "mar",
                            "--mar-rates", "0.05,0.6", "--out", "mar.csv",
                            "--mask-out", "mar-mask.csv"]),
    ("simulate-mnar-rates", ["simulate", "--protocol", "xor", "--n", "50",
                             "--seed", "23", "--mechanism", "mnar",
                             "--mnar-rates", "0.4,0.15", "--out", "mnar.csv"]),
    ("simulate-none", ["simulate", "--protocol", "mixture", "--n", "20", "--p",
                       "3", "--seed", "24", "--out", "unmasked.csv",
                       "--mask-out", "unmasked-mask.csv"]),
    ("fit", ["fit", "mixture.csv", "--out", "model.json", "--seed", "3",
             *FAST, "--progress-every", "7"]),
    ("fit-summary", ["fit", "xor.csv", "--out", "pooled.json", "--seed", "4",
                     *FAST, "--summary"]),
    ("fit-schema", ["fit", "../mixed.csv", "--out", "mixed.json", "--seed",
                    "6", *FAST, "--schema", "2,5,9,12"]),
    ("impute-argmax", ["impute", "mixture.csv", "model.json",
                       "--out", "argmax.csv"]),
    ("impute-sample", ["impute", "mixture.csv", "model.json",
                       "--out", "sample.csv", "--rule", "sample",
                       "--seed", "9"]),
    ("impute-mixed-argmax", ["impute", "../mixed.csv", "mixed.json",
                             "--out", "mixed-argmax.csv"]),
    ("impute-mixed-sample", ["impute", "../mixed.csv", "mixed.json",
                             "--out", "mixed-sample.csv", "--rule", "sample",
                             "--seed", "10"]),
    ("fit-messy", ["fit", "../messy.csv", "--out", "messy.json", "--seed",
                   "12", *FAST, "--schema", "3,7,12,2"]),
    ("impute-messy-argmax", ["impute", "../messy.csv", "messy.json",
                             "--out", "messy-argmax.csv"]),
    ("impute-messy-sample", ["impute", "../messy.csv", "messy.json",
                             "--out", "messy-sample.csv", "--rule", "sample",
                             "--seed", "13"]),
    ("fit-hundred", ["fit", "../hundred.csv", "--out", "hundred.json",
                     "--seed", "15", *FAST, "--schema", "2,4,100"]),
    ("impute-hundred-argmax", ["impute", "../hundred.csv", "hundred.json",
                               "--out", "hundred-argmax.csv"]),
    ("impute-hundred-sample", ["impute", "../hundred.csv", "hundred.json",
                               "--out", "hundred-sample.csv", "--rule",
                               "sample", "--seed", "16"]),
    ("fit-malformed", ["fit", "../malformed.csv", "--out", "malformed.json",
                       "--seed", "14", *FAST]),
    ("impute-xor-argmax", ["impute", "xor.csv", "xor-truth.json",
                           "--out", "xor-argmax.csv"]),
    ("impute-xor-sample", ["impute", "xor.csv", "xor-truth.json",
                           "--out", "xor-sample.csv", "--rule", "sample",
                           "--seed", "11"]),
    ("independence-stdout", ["test-independence", "model.json", "--n", "40"]),
    ("independence-out", ["test-independence", "pooled.json", "--n", "60",
                          "--out", "pvalues.csv"]),
    ("independence-large-n", ["test-independence", "model.json", "--n",
                              "5000"]),
    ("benchmark", ["benchmark", "--protocol", "mixture", "--reps", "3",
                   "--jobs", "1", "--n", "20", "--p", "4", "--seed", "5",
                   *FAST, "--out", "reps.csv", "--summary-out",
                   "summary.json"]),
    ("ratings-binary", ["preprocess-ratings", "../ratings.csv",
                        "--user-threshold", "0.7", "--out", "binary.csv"]),
    ("ratings-five", ["preprocess-ratings", "../ratings.csv",
                      "--user-threshold", "0.7", "--coding", "five",
                      "--out", "five.csv"]),
    ("fit-missing-dir", ["fit", "mixture.csv", "--out", "nodir/x.json",
                         "--seed", "3", *FAST, "--progress-every", "0"]),
    ("fit-missing-khist", ["fit", "mixture.csv", "--out", "unkept.json",
                           "--k-histogram", "nodir/k.csv", "--seed", "3",
                           *FAST, "--progress-every", "0"]),
    # MNAR masking needs binary variables, so every replication fails
    ("benchmark-failing", ["benchmark", "--protocol", "mixture", "--reps",
                           "2", "--jobs", "1", "--n", "8", "--p", "3",
                           "--cardinality", "3", "--mechanism", "mnar",
                           "--seed", "1", *FAST, "--out", "r.csv"]),
    ("simulate-missing-mask-dir", ["simulate", "--protocol", "mixture",
                                   "--n", "10", "--seed", "1", "--mechanism",
                                   "mcar", "--out", "s.csv", "--mask-out",
                                   "nodir/m.csv"]),
    ("fit-same-path", ["fit", "mixture.csv", "--out", "same.json",
                       "--k-histogram", "same.json", "--seed", "3", *FAST,
                       "--progress-every", "0"]),
    ("benchmark-summary-missing-dir", ["benchmark", "--protocol", "mixture",
                                       "--reps", "2", "--jobs", "1", "--n",
                                       "8", "--seed", "1", *FAST, "--out",
                                       "b.csv", "--summary-out",
                                       "nodir/s.json"]),
    ("fit-out-dir", ["fit", "mixture.csv", "--out", "../dir", "--seed", "3",
                     *FAST, "--progress-every", "1"]),
    ("simulate-out-slash", ["simulate", "--protocol", "mixture", "--n", "10",
                            "--seed", "1", "--out", "d/"]),
    ("impute-doc-cardinalities", ["impute", "../mixed.csv", "../claimed.json",
                                  "--out", "claimed.csv"]),
    ("fit-empty-khist", ["fit", "mixture.csv", "--out", "unnamed.json",
                         "--k-histogram", "", "--seed", "3", *FAST,
                         "--progress-every", "1"]),
    ("impute-empty-cells", ["impute", "mixture.csv", "model.json", "--out",
                            "uncelled.csv", "--cell-posterior", ""]),
    ("independence-empty-out", ["test-independence", "model.json", "--n",
                                "40", "--out", ""]),
    ("impute-missing-dir", ["impute", "mixture.csv", "model.json", "--out",
                            "nodir/x.csv"]),
    ("independence-missing-dir", ["test-independence", "model.json", "--n",
                                  "40", "--out", "nodir/x.csv"]),
    # last, so that a tree which lets it replace the table hashes every
    # other command's files alike
    ("fit-out-is-input", ["fit", "mixture.csv", "--out", "mixture.csv",
                          "--seed", "3", *FAST, "--progress-every", "0"]),
)


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def masked(stderr: bytes) -> bytes:
    """``stderr`` with the elapsed seconds of fit's summary line masked."""
    return re.sub(rb"(?m)^(fit: .*, )[0-9.]+s$", rb"\1<elapsed>s", stderr)


def lines(src: Path):
    """Yield the output lines for the catmix package under ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "ratings.csv").write_text(RATINGS)
        (Path(tmp) / "mixed.csv").write_text(MIXED)
        (Path(tmp) / "messy.csv").write_text(MESSY)
        (Path(tmp) / "hundred.csv").write_text(HUNDRED)
        (Path(tmp) / "malformed.csv").write_text(MALFORMED)
        (Path(tmp) / "claimed.json").write_text(CLAIMED)
        (Path(tmp) / "dir").mkdir()
        work = Path(tmp) / "work"
        work.mkdir()
        for name, argv in COMMANDS:
            run = subprocess.run([sys.executable, "-m", "catmix.cli", *argv],
                                 cwd=work, env=env, capture_output=True)
            yield f"{name}.stdout {sha1(run.stdout)}"
            yield f"{name}.stderr {sha1(masked(run.stderr))} exit={run.returncode}"
        for path in sorted(work.iterdir()):
            yield f"{path.name} {sha1(path.read_bytes())}"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=SRC,
                    help="directory holding the catmix package")
    args = ap.parse_args(argv)
    for line in lines(args.src.resolve()):
        print(line, flush=True)


if __name__ == "__main__":
    main()
