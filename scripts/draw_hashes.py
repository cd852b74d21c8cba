"""Hash the draws of fixed-seed fits, to show that a change keeps them.

    python3 scripts/draw_hashes.py [--src DIR] [--save FILE.npz]

Runs 16 fits with ``catmix.sampler.run_gibbs``: four tables of uniform
codes with 25% of the cells set missing (50x20 with d = 2, 300x20 with
d = 3, 200x12 with d from 2 to 40, 120x6 with d = 5), each under four
(alpha, beta) priors, with burn-in 10, 5 draws and thin 2.  For each
fit it prints one line: the fit's name, then the sha1 of the final
state's assignments and counts, the sha1 of its psi at the real codes
``0 .. d_j`` of every variable, and the sha1 of the draws' values: the
list of their k, then the float64 bytes of the ``theta`` and ``probs``
arrays that ``--save`` writes.  The values are read back from the
draws' model JSON, so the hash does not depend on how it is laid out.
The final state is the last one ``iterate_states`` yields under the
fit's config and seed.  The draws are ``run_gibbs``'s, whether it
returns them as a tuple or, as older trees do, as a record's ``draws``.
The psi hash reads the real codes only, so a state that stores psi
padded to the widest variable and one that stores it flat hash alike.

``--src`` names the directory that holds the ``catmix`` package
(default: this repository's ``src``), so the same script hashes another
checkout; run it once per checkout and compare the outputs with
``diff``.  ``--save`` also writes every fit's real-code psi to an
``.npz`` file, keyed by the fit's name, and its draws as their model
JSON lists them, whatever layout the checkout keeps in memory: under
``NAME.theta`` every draw's weights end to end, and under
``NAME.probs`` one row per component of every draw, its vectors laid
flat.  Where two checkouts' hashes do not match, the two files show how
far their psi and their draws differ.
"""

import argparse
import hashlib
import importlib
import json
import sys
from collections import deque
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
# (rows, cardinalities) of the four tables; table t is drawn from seed t
TABLES = (
    (50, (2,) * 20),
    (300, (3,) * 20),
    (200, (2, 5, 40, 3, 17, 9, 2, 33, 4, 8, 26, 6)),
    (120, (5,) * 6),
)
PRIORS = ((0.25, 1.0), (0.1, 0.3), (3.0, 2.5), (50.0, 3.0))
MISSING_RATE = 0.25


def table(seed: int, n: int, cards) -> np.ndarray:
    """An (n, p) table of uniform codes with MISSING_RATE of them 0."""
    rng = np.random.default_rng(seed)
    cells = np.column_stack([rng.integers(1, d + 1, n) for d in cards])
    cells[rng.random(cells.shape) < MISSING_RATE] = 0
    return cells


def real_codes(psi: np.ndarray, cards) -> np.ndarray:
    """``psi`` at the codes ``0 .. d_j`` of every variable, variable by
    variable, shape (k, sum_j (d_j + 1)), from a padded (k, p, D + 1) or
    an already flat psi."""
    if psi.ndim == 3:
        psi = psi[:, np.arange(psi.shape[2]) <= np.asarray(cards)[:, None]]
    return np.ascontiguousarray(psi, dtype=np.float64)


def sha1(*parts: bytes) -> str:
    digest = hashlib.sha1()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def fits(src: Path):
    """Yield each fit's name, its arrays for ``--save`` and its output
    line."""
    sys.path.insert(0, str(src))
    core = importlib.import_module("catmix.core")
    sampler = importlib.import_module("catmix.sampler")
    for t, (n, cards) in enumerate(TABLES):
        data = core.Dataset(core.CategoricalSchema(cards), table(t, n, cards))
        for f, (alpha, beta) in enumerate(PRIORS):
            cfg = sampler.GibbsConfig(burnin=10, samples=5, thin=2,
                                      alpha=alpha, beta=beta)
            draws = sampler.run_gibbs(data, cfg, seed=10 * t + f)
            draws = getattr(draws, "draws", draws)
            state = deque(sampler.iterate_states(data, cfg, 10 * t + f),
                          maxlen=1)[0]
            psi = real_codes(state.psi, cards)
            doc = json.loads(core.serialize_models(draws))["draws"]
            name = f"t{t}-{n}x{len(cards)}-a{alpha:g}-b{beta:g}"
            theta = np.array([x for d in doc for x in d["theta"]])
            probs = np.array([[x for vec in comp for x in vec]
                              for d in doc for comp in d["tildePsi"]])
            arrays = {name: psi, f"{name}.theta": theta,
                      f"{name}.probs": probs}
            yield name, arrays, " ".join((
                name,
                sha1(state.assignments.tobytes(), state.counts.tobytes()),
                sha1(psi.tobytes()),
                sha1(str([d["k"] for d in doc]).encode(), theta.tobytes(),
                     probs.tobytes())))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=SRC,
                    help="directory holding the catmix package")
    ap.add_argument("--save", type=Path,
                    help="also write every fit's real-code psi and draws "
                         "here (.npz)")
    args = ap.parse_args(argv)
    saved = {}
    for _, arrays, line in fits(args.src.resolve()):
        print(line, flush=True)
        saved.update(arrays)
    if args.save is not None:
        np.savez(args.save, **saved)


if __name__ == "__main__":
    main()
