"""Workload definitions shared by the set-up, the timed worker and the checks.

Each workload is a fixed round of ``catmix`` CLI commands.  A run repeats
whole rounds, so every run attempts the same operations in the same
proportions whatever its length.  This module imports neither numpy nor
catmix: the orchestrator loads it before any child process starts.
"""

from __future__ import annotations

NAMES = ("wide", "levels", "replicate", "multi-impute")

#: Many four-level variables, small k, a long chain from one fixed seed.
WIDE = {"n": 1000, "p": 50, "k": 3, "cards": (4,) * 50, "mcar": 0.2,
        "burnin": 100, "samples": 100}

#: Mixed cardinalities 2..5 plus one 12-level and one 100-level column,
#: which pads psi to width 101 for every variable.
LEVELS = {"n": 1500, "p": 30, "k": 8,
          "cards": tuple(2 + j % 4 for j in range(28)) + (12, 100),
          "mcar": 0.2, "burnin": 10, "samples": 10}

#: The paper's simulation study: 50x20 binary mixtures with k=3.
REPLICATE = {"reps": 5, "true_k": 3}

#: Sampled imputations from a 100-draw model of a 1000x50, d=4 table.
MULTI = {"n": 1000, "p": 50, "k": 3, "cards": (4,) * 50, "mcar": 0.3,
         "draws": 100}


def fit_argv(spec: dict, seed: int, with_schema: bool) -> list[str]:
    """``catmix fit`` of the set-up's masked table with the spec's schedule."""
    argv = ["fit", "masked.csv", "--out", "model.json", "--seed", str(seed),
            "--burnin", str(spec["burnin"]), "--samples", str(spec["samples"]),
            "--thin", "1", "--progress-every", "0"]
    if with_schema:
        argv += ["--schema", ",".join(map(str, spec["cards"]))]
    return argv


def round_argvs(workload: str, seed: int, r: int) -> list[list[str]]:
    """The timed CLI commands of round ``r`` (0-based), run in the input dir."""
    if workload == "wide":
        return [fit_argv(WIDE, seed, with_schema=False)]
    if workload == "levels":
        # The 100-level column need not show every code, so the schema is
        # passed explicitly instead of inferred.  Each round runs its own
        # chain: peak RSS depends on the chain (about one chain in six
        # peaks 15% higher), and the median over rounds should not.
        return [fit_argv(LEVELS, round_seed(seed, r), with_schema=True)]
    if workload == "replicate":
        return [["benchmark", "--protocol", "mixture", "--jobs", "1",
                 "--reps", str(REPLICATE["reps"]),
                 "--seed", str(round_seed(seed, r)),
                 "--out", "reps.csv", "--summary-out", "summary.json",
                 "--progress-every", "0"]]
    if workload == "multi-impute":
        return [["impute", "masked.csv", "model.json", "--out", "completed.csv",
                 "--rule", "sample", "--seed", str(r + 1)]]
    raise ValueError(f"unknown workload {workload!r}")


def check_argvs(workload: str) -> list[list[str]]:
    """Untimed commands whose outputs only the checks read."""
    if workload in ("wide", "levels"):
        return [["impute", "masked.csv", "model.json", "--out", "completed.csv"]]
    return []


def round_seed(seed: int, r: int) -> int:
    """Distinct program seed for each round of a run."""
    return seed * 1000 + r
