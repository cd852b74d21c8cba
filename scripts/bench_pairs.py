"""Compare two catmix checkouts with the repository benchmark, in pairs.

    python3 scripts/bench_pairs.py --parent DIR_OR_REV --change DIR_OR_REV \
        --run levels:10 --run wide:1 --seed 1 --seconds 25 --out BENCH.json

``--parent`` and ``--change`` each name a checkout directory or a git
revision of the repository holding this script.  A revision is checked
out with ``git worktree add --detach`` into a temporary directory that
is removed when the script ends, so both sides can be clean trees.

Each ``--run WORKLOAD:PAIRS`` makes PAIRS pairs of
``python3 bench/run.py --workload WORKLOAD --seed SEED --seconds S``,
one in each checkout, one process at a time.  Pair i runs the parent
first when i is even and the change first when it is odd, so a drift of
the machine's speed does not favour one side.  Both checkouts run their
own ``bench/``; compare only checkouts whose ``bench/`` is the same.

The JSON written to ``--out`` holds every run (its end-to-end metrics,
``correct`` flag, failed-command count, environment line and check
figures), each pair's change/parent ratios, and per workload and side
the median and quartiles of every metric, the model-JSON sha1s seen, and
how many pairs the change won on each metric (lower is better; ties
count for neither side).  A pair is a win only when both runs are
correct and the change's run failed no more commands than the parent's.
Each workload's summary counts the failures of each side: its failed
commands plus one for each run that was not correct.  Each metric's
summary also gives the median of the pairs' change/parent ratios with a
distribution-free interval from sign-test order statistics, and
``claim_met``: whether at least ten pairs ran, the change won at least
nine tenths of them, its median is below the parent's by more than the
parent's interquartile range, and it had no more failures in total.
"""

import argparse
import contextlib
import datetime
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# fewest pairs on which a gain may be claimed
MIN_PAIRS = 10
# least sign-test coverage of the pair-ratio median interval
COVERAGE = 0.95
REPO = Path(__file__).resolve().parent.parent


def checkout(spec: str, stack: contextlib.ExitStack) -> Path:
    """``spec`` itself if it is a directory, else a temporary worktree
    of the git revision ``spec``, removed when ``stack`` closes."""
    if Path(spec).is_dir():
        return Path(spec)
    git = ["git", "-C", str(REPO)]
    rev = subprocess.run(git + ["rev-parse", "--verify", "--quiet",
                                f"{spec}^{{commit}}"],
                         capture_output=True, text=True, check=False)
    if rev.returncode != 0:
        sys.exit(f"bench_pairs: {spec!r} is neither a directory nor a "
                 "git revision")
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    stack.callback(shutil.rmtree, tmp, ignore_errors=True)
    tree = tmp / "checkout"
    subprocess.run(git + ["worktree", "add", "--detach", str(tree),
                          rev.stdout.strip()],
                   capture_output=True, check=True)
    stack.callback(subprocess.run, git + ["worktree", "remove", "--force",
                                          str(tree)],
                   capture_output=True, check=False)
    return tree


def revision(tree: Path) -> str:
    """The commit checked out in ``tree``, ending in ``-dirty`` when a
    tracked file differs from it; "unavailable" when ``tree`` is not the
    top of a git checkout."""
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=str(Path(tree).resolve().parent))
    out = subprocess.run(["git", "describe", "--always", "--dirty",
                          "--abbrev=40"], cwd=tree, env=env,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unavailable"


def bench_once(checkout: Path, workload: str, seed: int,
               seconds: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its parsed output."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = datetime.datetime.now(datetime.timezone.utc)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    run = {"started": started.isoformat(timespec="seconds"),
           "exit_code": proc.returncode}
    lines = proc.stdout.splitlines()
    for line in lines:
        for tag in ("env", "checks"):
            if line.startswith(tag + ": "):
                run[tag] = json.loads(line[len(tag) + 2:])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["correct"] = False
        run["stderr"] = proc.stderr[-2000:]
        return run
    run["correct"] = result["correct"]
    run["attempted"] = result["attempted"]
    run["failed"] = result["failed"]
    run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    if not result["correct"]:
        run["stderr"] = proc.stderr[-2000:]
    return run


def median_interval(ratios: list[float]) -> dict:
    """Median of ``ratios`` and a distribution-free interval for it.

    The interval is the l-th smallest to the l-th largest ratio, with
    the largest l whose sign-test coverage 1 - 2 P(Bin(n, 1/2) < l)
    is at least ``COVERAGE``; with too few ratios for that, l is 1 and the
    interval is their range, with its smaller coverage.
    """
    r = sorted(ratios)
    n = len(r)

    def coverage(l: int) -> float:
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(l)) / 2 ** n

    l = 1
    while 2 * (l + 1) <= n + 1 and coverage(l + 1) >= COVERAGE:
        l += 1
    return {"median": float(np.median(r)), "low": r[l - 1],
            "high": r[n - l], "coverage": coverage(l)}


def failures(run: dict) -> int:
    """Failed commands of one run, plus one if the run was not correct:
    its checks failed or its output could not be parsed."""
    return run.get("failed", 0) + (not run["correct"])


def won(pair: dict, name: str) -> bool:
    """Whether the change beat the parent on metric ``name`` in ``pair``,
    both runs correct and the change failing no more commands."""
    parent, change = pair["parent"], pair["change"]
    return (parent["correct"] and change["correct"]
            and failures(change) <= failures(parent)
            and change["metrics"][name] < parent["metrics"][name])


def summarize(pairs: list[dict]) -> dict:
    """Medians, quartiles, wins and model sha1s over a workload's pairs."""
    metrics = sorted(pairs[0]["parent"].get("metrics", {}))
    out = {"pairs": len(pairs), "metrics": {}, "model_json_sha1": {},
           "failed": {}}
    for side in SIDES:
        out["model_json_sha1"][side] = sorted({
            p[side]["checks"]["model_json_sha1"] for p in pairs
            if "model_json_sha1" in p[side].get("checks", {})})
        out[f"all_correct_{side}"] = all(p[side]["correct"] for p in pairs)
        out["failed"][side] = sum(failures(p[side]) for p in pairs)
    no_more_failed = out["failed"]["change"] <= out["failed"]["parent"]
    for name in metrics:
        row = {}
        for side in SIDES:
            values = [p[side]["metrics"][name] for p in pairs
                      if "metrics" in p[side]]
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            row[side] = {"median": med, "q1": q1, "q3": q3}
        wins = sum(won(p, name) for p in pairs)
        parent_iqr = row["parent"]["q3"] - row["parent"]["q1"]
        gain = row["parent"]["median"] - row["change"]["median"]
        row["change_wins"] = wins
        row["median_ratio"] = row["change"]["median"] / row["parent"]["median"]
        row["gain_exceeds_parent_iqr"] = bool(gain > parent_iqr)
        ratios = [p["ratio_change_over_parent"][name] for p in pairs
                  if "ratio_change_over_parent" in p]
        if ratios:
            row["pair_ratio"] = median_interval(ratios)
        # nine tenths of all pairs run, failed ones included
        row["claim_met"] = bool(len(pairs) >= MIN_PAIRS
                                and 10 * wins >= 9 * len(pairs)
                                and gain > parent_iqr and no_more_failed)
        out["metrics"][name] = row
    return out


def host() -> dict:
    """The machine both sides ran on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu,
            "cpu_count": os.cpu_count(), "system": platform.system()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, metavar="DIR_OR_REV")
    ap.add_argument("--change", required=True, metavar="DIR_OR_REV")
    ap.add_argument("--run", action="append", required=True,
                    metavar="WORKLOAD:PAIRS")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    with contextlib.ExitStack() as stack:
        dirs = {side: checkout(getattr(args, side), stack) for side in SIDES}
        run_pairs(args, dirs)
    return 0


def run_pairs(args, dirs: dict) -> None:
    """Run every ``--run`` spec in ``dirs`` and write ``--out``."""
    doc = {
        "command": "python3 bench/run.py --workload W --seed "
                   f"{args.seed} --seconds {args.seconds} --trace 0",
        "revisions": {side: revision(d) for side, d in dirs.items()},
        "host": host(),
        "workloads": {},
    }
    for spec in args.run:
        workload, count = spec.split(":")
        pairs = []
        for i in range(int(count)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"order": list(order)}
            for side in order:
                pair[side] = bench_once(dirs[side], workload, args.seed,
                                        args.seconds)
                m = pair[side].get("metrics", {})
                print(f"{workload} pair {i} {side}: correct="
                      f"{pair[side]['correct']} {json.dumps(m)}",
                      file=sys.stderr, flush=True)
            if "metrics" in pair["parent"] and "metrics" in pair["change"]:
                pair["ratio_change_over_parent"] = {
                    k: pair["change"]["metrics"][k] / v
                    for k, v in pair["parent"]["metrics"].items()}
            pairs.append(pair)
        doc["workloads"][workload] = {"runs": pairs,
                                      "summary": summarize(pairs)}
        args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
