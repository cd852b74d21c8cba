"""Timed step: run one round of a workload's CLI commands in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --dir DIR --round R
                            [--trace FILE | --check]

Runs in DIR, where bench/inputs.py left the inputs.  Every command goes
through ``catmix.cli.main``, the console entry point, so a round is what
a user's ``catmix ...`` invocations do once the interpreter has started
and catmix is imported; those two costs belong to ``setup_s``.  A fresh
process per round makes the peak RSS that of the round alone, free of
the set-up and of allocator state left by earlier rounds.

With ``--trace`` the round runs with spans installed, appends them to
FILE and reports its per-layer figures.  With ``--check`` the untimed
commands whose outputs only the checks read are run instead.

The last stdout line is one JSON object for the orchestrator.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from catmix import cli

import workloads
from spans import Tracer


def run_cli(argv, tracer: Tracer | None) -> bool:
    """Run one CLI command; True when it exits with status 0."""
    try:
        if tracer is None:
            status = cli.main(argv)
        else:
            status = tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:
        traceback.print_exc()
        status = None
    if status != 0:
        print(f"worker: command failed ({status}): catmix {' '.join(argv)}",
              file=sys.stderr)
    return status == 0


def keep_outputs(workload: str, r: int) -> str | None:
    """Set a round's outputs aside for the checks (untimed).

    Returns the sha1 of the output that must repeat from round to round:
    the model JSON of a fixed-seed fit, or the per-cell predictive CSV,
    which does not depend on the sampling seed.
    """
    if workload == "replicate":
        os.replace("reps.csv", f"reps-{r}.csv")
        os.replace("summary.json", f"summary-{r}.json")
        return None
    if workload == "multi-impute":
        os.replace("completed.csv", f"completed-{r}.csv")
        return hashlib.sha1(Path("completed.csv.cells.csv").read_bytes()).hexdigest()
    return hashlib.sha1(Path("model.json").read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--round", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", default=None)
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args()
    os.chdir(args.dir)

    if args.check:
        argvs = workloads.check_argvs(args.workload)
        failed = sum(not run_cli(argv, None) for argv in argvs)
        print(json.dumps({"attempted": len(argvs), "failed": failed}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer(args.round)
        tracer.install()
    argvs = workloads.round_argvs(args.workload, args.seed, args.round)
    failed = 0
    t0 = time.perf_counter()
    for argv in argvs:
        failed += not run_cli(argv, tracer)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "attempted": len(argvs), "failed": failed,
              "digest": None if failed else keep_outputs(args.workload, args.round)}
    if tracer is not None:
        tracer.dump(args.trace)
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
