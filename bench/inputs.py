"""Set-up step: prepare one workload's inputs from a seed.

    python3 bench/inputs.py --workload NAME --seed N --dir DIR [--trace FILE]

Run in a fresh interpreter, so that its wall time is the set-up cost a
user pays: interpreter start, ``import catmix`` and the inputs.  Data come
from ``catmix.synth``; the files the CLI reads are written by this script
so that a change in catmix's own writers cannot change the inputs.  With
``--trace`` the import time and the self time of each synth call are
written to FILE as JSON.  The last stdout line is a sha1 of the inputs,
which the orchestrator compares across repeated set-ups.
"""

import time

_started = time.perf_counter()
import catmix  # noqa: E402  (timed)
_import_s = time.perf_counter() - _started

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from catmix import synth  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def write_csv(path: Path, cells: np.ndarray) -> bytes:
    """Dataset CSV: header V1..Vp, codes 1..d_j, ``NA`` for missing."""
    header = ",".join(f"V{j + 1}" for j in range(cells.shape[1]))
    tokens = np.where(cells == 0, "NA", cells.astype(str))
    text = "\n".join([header] + [",".join(row) for row in tokens]) + "\n"
    path.write_bytes(text.encode())
    return text.encode()


def model_draws(masked, theta, tilde, cards, n_draws, rng):
    """Posterior-like draws: one conjugate Gibbs step from the truth each.

    Rows get components from their class posterior under the generating
    mixture, then weights and category probabilities are drawn from
    their Dirichlet posteriors given the observed cells (prior 1).
    """
    n, p = masked.shape
    k, width = theta.size, tilde.shape[2]
    observed = masked > 0
    log_tilde = np.log(np.where(tilde > 0, tilde, 1.0))
    gathered = np.moveaxis(log_tilde, 0, 2)[np.arange(p), np.maximum(masked - 1, 0)]
    loglik = np.log(theta) + np.where(observed[:, :, None], gathered, 0.0).sum(1)
    post = np.exp(loglik - loglik.max(axis=1, keepdims=True))
    cum = np.cumsum(post / post.sum(axis=1, keepdims=True), axis=1)
    valid = np.arange(width)[None, :] < np.asarray(cards)[:, None]
    draws = []
    for _ in range(n_draws):
        z = np.minimum((rng.random(n)[:, None] > cum).sum(axis=1), k - 1)
        w = rng.dirichlet(np.bincount(z, minlength=k) + 1.0)
        flat = (z[:, None] * p + np.arange(p)) * (width + 1) + masked
        tab = np.bincount(flat.ravel(), minlength=k * p * (width + 1))
        conc = (tab.reshape(k, p, width + 1)[:, :, 1:] + 1.0) * valid
        g = rng.standard_gamma(conc)
        t = g / g.sum(axis=2, keepdims=True)
        draws.append({
            "k": k, "cardinalities": list(cards), "theta": w.tolist(),
            "tildePsi": [[t[h, j, :d].tolist() for j, d in enumerate(cards)]
                         for h in range(k)],
        })
    return draws


def prepare(workload: str, seed: int, out: Path) -> str:
    """Write the workload's input files and return their digest."""
    digest = hashlib.sha1(workload.encode())
    spec = {"wide": workloads.WIDE, "levels": workloads.LEVELS,
            "multi-impute": workloads.MULTI}.get(workload)
    if spec is None:  # replicate: catmix benchmark makes its own data
        return digest.hexdigest()
    rng = np.random.default_rng(seed)
    data, truth = synth.sample_mixture_dataset(
        n=spec["n"], p=spec["p"], k=spec["k"], cardinality=spec["cards"],
        seed=rng)
    masked, _ = synth.mask(data, synth.MechanismSpec.mcar(spec["mcar"]),
                           seed=rng)
    masked_cells = np.asarray(masked.cells)
    digest.update(write_csv(out / "masked.csv", masked_cells))
    arrays = {"complete": np.asarray(data.cells), "masked": masked_cells,
              "theta": np.asarray(truth.theta),
              "tilde": np.asarray(truth.tilde_psi),
              "cards": np.asarray(spec["cards"])}
    np.savez(out / "truth.npz", **arrays)
    for name in sorted(arrays):
        digest.update(arrays[name].tobytes())
    if workload == "multi-impute":
        draws = model_draws(masked_cells, arrays["theta"], arrays["tilde"],
                            spec["cards"], spec["draws"], rng)
        text = json.dumps({"cardinalities": list(spec["cards"]),
                           "draws": draws}, indent=2) + "\n"
        (out / "model.json").write_text(text)
        digest.update(text.encode())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = prepare(args.workload, args.seed, out)
    if tracer is not None:
        layers = tracer.layer_metrics()
        keep = ("synth.sample_mixture_dataset_s", "synth.mask_s")
        layer = {"import.catmix_s": _import_s, **{k: layers[k] for k in keep}}
        Path(args.trace).write_text(json.dumps(layer) + "\n")
    print(digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
