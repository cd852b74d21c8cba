"""Time ``catmix impute`` from a fit of the levels table in two checkouts.

    python3 scripts/impute_levels.py --parent DIR_OR_REV --change DIR_OR_REV \
        --draws 100 --draws 400 --pairs 3 --out BENCH.json

The table is the ``masked.csv`` that ``bench/inputs.py --workload levels
--seed 0`` writes: 1500 rows, 28 variables of 2 to 5 levels, one of 12
and one of 100, with 20% of the cells missing.  For each ``--draws N``,
each checkout fits it with its own ``catmix fit --burnin 10 --samples N
--thin 1 --seed 3`` and the table's schema.  Then each of ``--pairs``
pairs runs ``catmix impute --rule sample --seed 1`` from that model once
in each checkout, the parent first in even pairs and the change first in
odd ones.  Every command runs in a fresh interpreter, each side's with
its own fresh ``PYTHONPYCACHEPREFIX`` and bytecode writing on, as
``bench_pairs.py`` runs them.  A run's wall time
is taken around its process, and its peak RSS is the process's own
``ru_maxrss``, which is never below this script's own peak.

``--parent`` and ``--change`` take what ``scripts/bench_pairs.py``
takes: a directory, ``DIR=REV`` for a tree exported from REV, or a git
revision.  The JSON written to ``--out`` holds every run with the sha1
of both its outputs, the sha1 of each side's model, each side's median
wall time and peak, and ``same_outputs``: whether every sha1 agrees
across the runs and the sides.
"""

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_pairs

REPO = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(REPO / "bench"))
import workloads  # noqa: E402  (imports neither numpy nor catmix)

SIDES = bench_pairs.SIDES
SCHEMA = ",".join(map(str, workloads.LEVELS["cards"]))


def sha1(path: Path) -> str:
    """The file's sha1, read a block at a time: on Linux a child's
    ``ru_maxrss`` starts from the peak of the process that spawned it."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha1").hexdigest()


def catmix(tree: Path, argv: list[str], cwd: Path, cache: str) -> dict:
    """Run ``catmix argv`` on ``tree``'s package in a fresh interpreter
    with ``cache`` as its ``PYTHONPYCACHEPREFIX``; its wall seconds and
    peak RSS in MB."""
    env = bench_pairs.side_env(cache, PYTHONPATH=str(tree / "src"))
    with open(cwd / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "catmix.cli", *argv],
                                cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"impute_levels: catmix {argv[0]} failed in {tree}:\n"
                 + (cwd / "stderr.txt").read_text())
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def compare(trees: dict, caches: dict, table: Path, draws: int,
            pairs: int) -> dict:
    """Fit ``draws`` draws on each side, then ``pairs`` pairs of imputes,
    each side with its own ``PYTHONPYCACHEPREFIX`` from ``caches``."""
    out = {"model_sha1": {}, "fit": {}, "runs": []}
    for side, tree in trees.items():
        work = table.parent / f"{side}-{draws}"
        work.mkdir()
        out["fit"][side] = catmix(tree, [
            "fit", str(table), "--out", "model.json", "--samples", str(draws),
            "--burnin", "10", "--thin", "1", "--seed", "3",
            "--progress-every", "0", "--schema", SCHEMA], work, caches[side])
        out["model_sha1"][side] = sha1(work / "model.json")
    for i in range(pairs):
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            work = table.parent / f"{side}-{draws}"
            run = catmix(trees[side], [
                "impute", str(table), "model.json", "--out", "completed.csv",
                "--rule", "sample", "--seed", "1"], work, caches[side])
            run["sha1"] = [sha1(work / "completed.csv"),
                           sha1(work / "completed.csv.cells.csv")]
            pair[side] = run
            print(f"draws={draws} pair {i} {side}: {json.dumps(run)}",
                  file=sys.stderr, flush=True)
        out["runs"].append(pair)
    for name in ("wall_s", "peak_rss_mb"):
        out[name] = {side: statistics.median(p[side][name]
                                             for p in out["runs"])
                     for side in SIDES}
    out["wall_ratio_parent_over_change"] = (out["wall_s"]["parent"]
                                            / out["wall_s"]["change"])
    out["peak_drop_mb"] = (out["peak_rss_mb"]["parent"]
                           - out["peak_rss_mb"]["change"])
    out["same_outputs"] = (
        len(set(out["model_sha1"].values())) == 1
        and len({tuple(p[side]["sha1"]) for p in out["runs"]
                 for side in SIDES}) == 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for side in SIDES:
        ap.add_argument(f"--{side}", required=True, metavar="DIR_OR_REV")
    ap.add_argument("--draws", type=int, action="append", required=True)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    specs = {side: bench_pairs.exported(getattr(args, side)) for side in SIDES}
    doc = {"command": "catmix impute <levels masked.csv> model.json "
                      "--rule sample --seed 1",
           "host": bench_pairs.host(), "draws": {}}
    with contextlib.ExitStack() as stack:
        trees = {side: bench_pairs.checkout(spec, stack).resolve()
                 for side, (spec, _) in specs.items()}
        doc["revisions"] = {side: bench_pairs.revision(trees[side], rev)
                            for side, (_, rev) in specs.items()}
        caches = {side: bench_pairs.pycache(stack, side) for side in SIDES}
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        subprocess.run([sys.executable, str(REPO / "bench" / "inputs.py"),
                        "--workload", "levels", "--seed", "0", "--dir",
                        str(tmp)], check=True, capture_output=True,
                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                                PYTHONPATH=str(trees["parent"] / "src")))
        for draws in args.draws:
            doc["draws"][str(draws)] = compare(trees, caches,
                                               tmp / "masked.csv", draws,
                                               args.pairs)
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
