"""Output checks, computed with the benchmark's own numpy code.

Nothing here imports catmix or compares against a stored copy of an
earlier output.  Each check is a property of the method or of the file
formats, or an independent recomputation:

* model JSON: every ``theta`` and ``tildePsi`` vector sums to 1 and the
  k histogram sums to the number of draws and agrees with the draws;
* ``wide``'s fixed-seed fit repeats bit for bit from round to round;
* ``wide``/``levels``: argmax imputation beats the per-column mode and
  lands within ``ORACLE_MARGIN`` of the Bayes-optimal accuracy under the
  generating mixture; on ``wide`` the modal k is the generating k;
* ``replicate``: mean accuracy within the paper's band, modal k = 3 in
  most replications, summary means equal to the per-replication CSV;
* ``multi-impute``: observed cells kept, fills valid, the per-cell CSV
  equal to a predictive recomputed from the model JSON, and the sampled
  codes' mean predictive probability equal to its expectation.

``verify`` returns a list of failure messages (empty when all hold) and
a dict of figures worth printing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads

#: Largest shortfall of catmix's argmax accuracy below the oracle's.
ORACLE_MARGIN = {"wide": 0.02, "levels": 0.03}

#: Acceptance criteria 1 and 2: mean accuracy band of the simulation study.
ACCURACY_BAND = (0.68, 0.86)

#: Probability-vector tolerance for files written by catmix.
SUM_TOL = 1e-9

#: Standard errors allowed between the sampled codes' mean predictive
#: probability and its expectation.
SAMPLING_SE = 6.0


def read_dataset(path: Path) -> np.ndarray:
    """Cells of a dataset CSV written as V1..Vp columns, ``NA`` -> 0."""
    lines = path.read_text().splitlines()[1:]
    return np.array([[0 if t == "NA" else int(t) for t in line.split(",")]
                     for line in lines], dtype=np.int64)


def padded(draw: dict, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, tilde) of one model-JSON draw, tilde zero padded to width."""
    theta = np.asarray(draw["theta"], dtype=np.float64)
    tilde = np.zeros((len(draw["tildePsi"]), len(draw["cardinalities"]), width))
    for h, comp in enumerate(draw["tildePsi"]):
        for j, vec in enumerate(comp):
            tilde[h, j, :len(vec)] = vec
    return theta, tilde


def check_model_json(path: Path, khist: Path | None, draws_expected: int,
                     fails: list) -> list[dict]:
    doc = json.loads(path.read_text())
    draws = doc["draws"]
    cards = doc["cardinalities"]
    if len(draws) != draws_expected:
        fails.append(f"{path.name}: {len(draws)} draws, expected {draws_expected}")
    for m, draw in enumerate(draws):
        theta = np.asarray(draw["theta"])
        if draw["k"] != theta.size or len(draw["tildePsi"]) != theta.size:
            fails.append(f"{path.name}: draw {m} k does not match its vectors")
        if abs(theta.sum() - 1.0) > SUM_TOL or (theta < 0).any():
            fails.append(f"{path.name}: draw {m} theta sums to {theta.sum()!r}")
        for h, comp in enumerate(draw["tildePsi"]):
            for j, vec in enumerate(comp):
                vec = np.asarray(vec)
                if vec.size != cards[j] or (vec < 0).any() \
                        or abs(vec.sum() - 1.0) > SUM_TOL:
                    fails.append(f"{path.name}: draw {m} tildePsi[{h}][{j}] "
                                 "is not a probability vector")
                    return draws
    if khist is not None:
        rows = [line.split(",") for line in khist.read_text().splitlines()[1:]]
        hist = {int(k): int(c) for k, c in rows}
        ks, counts = np.unique([d["k"] for d in draws], return_counts=True)
        if sum(hist.values()) != len(draws):
            fails.append(f"{khist.name}: counts sum to {sum(hist.values())}, "
                         f"not the {len(draws)} draws")
        if hist != dict(zip(ks.tolist(), counts.tolist())):
            fails.append(f"{khist.name}: histogram disagrees with the draws")
    return draws


def predictive(cells: np.ndarray, draws: list[dict], width: int) -> np.ndarray:
    """Per-draw predictive of every cell given the row's observed cells,
    averaged over draws; shape (n, p, width), zero beyond d_j."""
    n, p = cells.shape
    observed = cells > 0
    idx = np.maximum(cells - 1, 0)
    acc = np.zeros((n, p, width))
    for draw in draws:
        theta, tilde = padded(draw, width)
        with np.errstate(divide="ignore"):
            log_tilde = np.log(tilde)
        gathered = np.moveaxis(log_tilde, 0, 2)[np.arange(p), idx]  # (n, p, k)
        loglik = np.log(theta) + np.where(observed[:, :, None], gathered, 0.0).sum(1)
        post = np.exp(loglik - loglik.max(axis=1, keepdims=True))
        post /= post.sum(axis=1, keepdims=True)
        acc += np.einsum("nk,kjc->njc", post, tilde)
    return acc / len(draws)


def check_fills(masked: np.ndarray, completed: np.ndarray, cards, name: str,
                fails: list) -> None:
    observed = masked > 0
    if completed.shape != masked.shape:
        fails.append(f"{name}: shape {completed.shape}, expected {masked.shape}")
        return
    if (completed[observed] != masked[observed]).any():
        fails.append(f"{name}: observed cells changed")
    limit = np.broadcast_to(np.asarray(cards), masked.shape)
    if ((completed < 1) | (completed > limit)).any():
        fails.append(f"{name}: a fill lies outside 1..d_j")


def check_fit(workload: str, wdir: Path, rounds: list, fails: list) -> dict:
    spec = workloads.WIDE if workload == "wide" else workloads.LEVELS
    truth = np.load(wdir / "truth.npz")
    cards = truth["cards"]
    draws = check_model_json(wdir / "model.json", wdir / "model.json.khist.csv",
                             spec["samples"], fails)
    if workload == "wide" and len({x["digest"] for x in rounds}) != 1:
        fails.append("wide: fixed-seed fits differ between rounds")
    ks, counts = np.unique([d["k"] for d in draws], return_counts=True)
    modal_k = int(ks[np.argmax(counts)])
    if workload == "wide" and modal_k != spec["k"]:
        fails.append(f"wide: modal k {modal_k}, generating k {spec['k']}")

    masked, complete = truth["masked"], truth["complete"]
    completed = read_dataset(wdir / "completed.csv")
    check_fills(masked, completed, cards, "completed.csv", fails)
    hidden = masked == 0
    width = truth["tilde"].shape[2]
    oracle_draw = {"theta": truth["theta"].tolist(),
                   "cardinalities": cards.tolist(),
                   "tildePsi": [[row[:d].tolist() for row, d in zip(comp, cards)]
                                for comp in truth["tilde"]]}
    oracle = predictive(masked, [oracle_draw], width).argmax(axis=2) + 1
    modes = np.array([np.bincount(masked[:, j][masked[:, j] > 0]).argmax()
                      for j in range(masked.shape[1])])
    acc = float((completed[hidden] == complete[hidden]).mean())
    oracle_acc = float((oracle[hidden] == complete[hidden]).mean())
    mode_acc = float((np.broadcast_to(modes, masked.shape)[hidden]
                      == complete[hidden]).mean())
    if not acc > mode_acc:
        fails.append(f"{workload}: accuracy {acc:.4f} does not beat the "
                     f"per-column mode {mode_acc:.4f}")
    if acc < oracle_acc - ORACLE_MARGIN[workload]:
        fails.append(f"{workload}: accuracy {acc:.4f} more than "
                     f"{ORACLE_MARGIN[workload]} below the oracle {oracle_acc:.4f}")
    return {"accuracy": acc, "oracle_accuracy": oracle_acc,
            "mode_accuracy": mode_acc, "modal_k": modal_k,
            "model_json_sha1": rounds[0]["digest"]}


def check_replicate(wdir: Path, rounds: list, fails: list) -> dict:
    table = []
    for r in range(len(rounds)):
        lines = (wdir / f"reps-{r}.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
        summary = json.loads((wdir / f"summary-{r}.json").read_text())
        if rows.shape[0] != workloads.REPLICATE["reps"] \
                or summary["replications"] != rows.shape[0]:
            fails.append(f"replicate: round {r} has {rows.shape[0]} replications")
            continue
        for c, name in enumerate(header[1:], start=1):
            if not math.isclose(summary["metrics"][name]["mean"],
                                float(rows[:, c].mean()), rel_tol=1e-12):
                fails.append(f"replicate: round {r} summary mean of {name} "
                             "disagrees with its CSV")
        table.append(rows)
    rows = np.concatenate(table)
    col = {name: rows[:, c] for c, name in enumerate(header)}
    acc = float(col["accuracy"].mean())
    hits = float((col["estimated_k"] == workloads.REPLICATE["true_k"]).mean())
    if not ACCURACY_BAND[0] <= acc <= ACCURACY_BAND[1]:
        fails.append(f"replicate: mean accuracy {acc:.4f} outside {ACCURACY_BAND}")
    if not hits > 0.5:
        fails.append(f"replicate: modal k = 3 in only {hits:.0%} of replications")
    if not (np.isfinite(col["correlation_gap"]).all()
            and (col["correlation_gap"] >= 0).all()):
        fails.append("replicate: a correlation gap is negative or not finite")
    return {"replications": int(rows.shape[0]), "mean_accuracy": acc,
            "share_modal_k_3": hits}


def read_cells_csv(path: Path, p: int, width: int):
    """Per-cell predictive CSV -> (missing mask, (n, p, width) vectors)."""
    lines = path.read_text().splitlines()
    if lines[0] != "row,column,category,probability":
        raise ValueError(f"{path.name}: unexpected header {lines[0]!r}")
    parts = [line.split(",") for line in lines[1:]]
    rows = np.array([int(t[0]) for t in parts])
    cols = np.array([int(t[1][1:]) - 1 for t in parts])
    cats = np.array([int(t[2]) for t in parts])
    probs = np.array([float(t[3]) for t in parts])
    n = rows.max() + 1
    vecs = np.zeros((n, p, width))
    vecs[rows, cols, cats - 1] = probs
    present = np.zeros((n, p), dtype=bool)
    present[rows, cols] = True
    return present, vecs


def check_multi(wdir: Path, rounds: list, fails: list) -> dict:
    spec = workloads.MULTI
    truth = np.load(wdir / "truth.npz")
    masked, cards = truth["masked"], truth["cards"]
    width = int(cards.max())
    draws = check_model_json(wdir / "model.json", None, spec["draws"], fails)
    if len({x["digest"] for x in rounds}) != 1:
        fails.append("multi-impute: the per-cell CSV changes with the seed")
    present, vecs = read_cells_csv(wdir / "completed.csv.cells.csv",
                                   masked.shape[1], width)
    hidden = masked == 0
    present = np.pad(present, ((0, masked.shape[0] - present.shape[0]), (0, 0)))
    vecs = np.pad(vecs, ((0, masked.shape[0] - vecs.shape[0]), (0, 0), (0, 0)))
    if (present != hidden).any():
        fails.append("multi-impute: the per-cell CSV does not list exactly "
                     "the missing cells")
    sums = vecs[hidden].sum(axis=1)
    if np.abs(sums - 1.0).max() > SUM_TOL:
        fails.append(f"multi-impute: a cell vector sums to "
                     f"{sums[np.argmax(np.abs(sums - 1.0))]!r}")
    expect = predictive(masked, draws, width)[hidden]
    expect /= expect.sum(axis=1, keepdims=True)
    gap = float(np.abs(vecs[hidden] - expect).max())
    if gap > SUM_TOL:
        fails.append(f"multi-impute: per-cell CSV differs from the "
                     f"recomputed predictive by {gap:.3g}")

    got = []
    for r in range(len(rounds)):
        completed = read_dataset(wdir / f"completed-{r}.csv")
        check_fills(masked, completed, cards, f"completed-{r}.csv", fails)
        fill = np.clip(completed[hidden], 1, width) - 1
        prob = vecs[hidden][np.arange(fill.size), fill]
        if not (prob > 0).all():
            fails.append(f"multi-impute: round {r} sampled a code of "
                         "predictive probability 0")
        got.append(prob)
    v = vecs[hidden]
    sq, cube = (v ** 2).sum(axis=1), (v ** 3).sum(axis=1)
    expected = float(sq.mean())
    observed = float(np.concatenate(got).mean())
    se = math.sqrt(float((cube - sq ** 2).sum()) / len(rounds)) / sq.size
    if abs(observed - expected) > SAMPLING_SE * se:
        fails.append(f"multi-impute: sampled codes' mean predictive "
                     f"{observed:.5f} vs expected {expected:.5f} "
                     f"(> {SAMPLING_SE} SE = {SAMPLING_SE * se:.5f})")
    return {"imputed_cells": int(hidden.sum()), "rounds": len(rounds),
            "mean_p_sampled": observed, "expected_sum_p2": expected,
            "max_predictive_gap": gap}


def verify(workload: str, wdir: Path, rounds: list) -> tuple[list, dict]:
    fails: list[str] = []
    try:
        if workload in ("wide", "levels"):
            info = check_fit(workload, wdir, rounds, fails)
        elif workload == "replicate":
            info = check_replicate(wdir, rounds, fails)
        else:
            info = check_multi(wdir, rounds, fails)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        fails.append(f"{workload}: outputs unreadable: {exc!r}")
        info = {}
    return fails, info
