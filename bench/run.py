"""catmix benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; catmix is imported from ./src.
Whole rounds of the workload's timed commands run for about S seconds,
each round in a fresh worker process (bench/worker.py), one process at a
time; ``wall_s`` and ``peak_rss_mb`` are medians over rounds.  The
set-up (bench/inputs.py) runs SETUPS times in fresh interpreters, spread
evenly over the same S seconds so that it samples the machine at the same
moments as the rounds; ``setup_s`` is the median.  The outputs are then
checked with the benchmark's own numpy code (bench/checks.py).

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Lines before it give the
environment and figures from the checks.  See bench/README.md.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SETUPS = 7
BUDGET_S = 170  # a run must end within 180 s, whatever hangs

BENCH = Path(__file__).resolve().parent
SRC = Path("src")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


class Run:
    """Child processes of one run, all inside one work directory."""

    def __init__(self, args, wdir: Path, trace_file: Path | None):
        self.args = args
        self.wdir = wdir
        self.trace_file = trace_file
        self.deadline = time.time() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
        self.setup_s: list[float] = []
        self.digests: set[str] = set()
        self.setup_layers: list[dict] = []

    def child(self, script: str, extra: list) -> str:
        """Run a bench script to completion and return its stdout."""
        argv = [sys.executable, str(BENCH / script),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--dir", str(self.wdir)] + extra
        with open(self.wdir / "children.log", "a") as log, \
                subprocess.Popen(argv, env=self.env, text=True,
                                 stdout=subprocess.PIPE, stderr=log) as proc:
            try:
                out, _ = proc.communicate(
                    timeout=max(1.0, self.deadline - time.time()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{script} ran past the run's time budget")
        if proc.returncode != 0:
            raise BenchError(f"{script} {' '.join(extra)} exited with "
                             f"status {proc.returncode}")
        return out

    def set_up(self) -> None:
        i = len(self.setup_s)
        layer_file = self.wdir / f"setup-layers-{i}.json"
        extra = ["--trace", str(layer_file)] if self.args.trace else []
        t0 = time.perf_counter()
        out = self.child("inputs.py", extra)
        self.setup_s.append(time.perf_counter() - t0)
        self.digests.add(out.split()[-1])
        if self.args.trace:
            self.setup_layers.append(json.loads(layer_file.read_text()))

    def worker(self, r: int, extra: list) -> dict:
        out = self.child("worker.py", ["--round", str(r)] + extra)
        return json.loads(out.splitlines()[-1])

    def rounds(self) -> list[dict]:
        """Whole rounds until the next would end after ``--seconds``.

        Traced runs alternate untraced and traced rounds in pairs (UT,
        TU, UT, ...) so that the tracing overhead compares like with like.
        """
        seconds = self.args.seconds
        step = 2 if self.args.trace else 1
        rounds = []
        start = time.perf_counter()
        self.set_up()
        while True:
            while (len(self.setup_s) < SETUPS and time.perf_counter() - start
                   >= len(self.setup_s) * seconds / SETUPS):
                self.set_up()
            r = len(rounds)
            traced = bool(self.args.trace) and (r + r // 2) % 2 == 1
            extra = ["--trace", str(self.trace_file)] if traced else []
            t0 = time.perf_counter()
            result = self.worker(r, extra)
            result["cycle_s"] = time.perf_counter() - t0
            result["traced"] = traced
            rounds.append(result)
            if len(rounds) % step:
                continue
            cycle = statistics.median(x["cycle_s"] for x in rounds)
            if time.perf_counter() - start + step * cycle > seconds:
                break
        while len(self.setup_s) < SETUPS:
            self.set_up()
        return rounds


def environment() -> dict:
    # The ceiling keeps git from reporting an enclosing repository.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=git_env).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    digest = hashlib.sha1()
    for path in sorted((SRC / "catmix").glob("*.py")):
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "git_rev": rev or "unavailable (not a git checkout)",
            "src_sha1": digest.hexdigest(), "nproc": os.cpu_count()}


def layer_medians(rounds: list, setup_layers: list) -> dict:
    """Per-layer medians over traced rounds, plus the tracing overhead."""
    traced = [x for x in rounds if x["traced"]]
    layers = {name: statistics.median(x["layers"][name] for x in traced)
              for name in traced[0]["layers"]}
    plain = statistics.median(x["wall_s"] for x in rounds if not x["traced"])
    with_spans = statistics.median(x["wall_s"] for x in traced)
    layers["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
    for name in setup_layers[0]:
        # synth runs in the set-up of every workload and inside the timed
        # rounds of replicate: the figure is one set-up plus one round.
        layers[name] = (layers.get(name, 0.0)
                        + statistics.median(x[name] for x in setup_layers))
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "catmix" / "__init__.py").is_file():
        print("bench: run from the root of a catmix source checkout "
              "(src/catmix not found)", file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    print("env: " + json.dumps(environment()))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = BENCH / "out"
    wdir = out_root / f"work-{tag}-{os.getpid()}"
    trace_file = out_root / f"trace-{tag}.jsonl" if args.trace else None
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    if trace_file is not None:
        trace_file.unlink(missing_ok=True)
    run = Run(args, wdir, trace_file)
    try:
        rounds = run.rounds()
        check = run.worker(len(rounds), ["--check"])
    except BenchError as exc:
        sys.stderr.write((wdir / "children.log").read_text()[-4000:])
        print(f"bench: {exc}", file=sys.stderr)
        shutil.rmtree(wdir, ignore_errors=True)
        return 1
    attempted = sum(x["attempted"] for x in rounds) + check["attempted"]
    failed = sum(x["failed"] for x in rounds) + check["failed"]

    fails, info = checks.verify(args.workload, wdir, rounds)
    if len(run.digests) != 1:
        fails.append(f"set-up gave {len(run.digests)} different inputs "
                     "for one seed")
    if failed or fails:
        sys.stderr.write((wdir / "children.log").read_text()[-4000:])
    for message in fails:
        print(f"check failed: {message}", file=sys.stderr)
    shutil.rmtree(wdir, ignore_errors=True)
    print("checks: " + json.dumps(info))
    print(f"rounds: {len(rounds)}, commands attempted {attempted}, "
          f"failed {failed}; wall_s per round "
          + " ".join(f"{x['wall_s']:.3f}" for x in rounds))

    if args.trace:
        layers = layer_medians(rounds, run.setup_layers)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print(f"trace: spans in {trace_file}")
    else:
        values = {"setup_s": statistics.median(run.setup_s),
                  "wall_s": statistics.median(x["wall_s"] for x in rounds),
                  "peak_rss_mb": statistics.median(x["peak_rss_mb"]
                                                   for x in rounds)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
