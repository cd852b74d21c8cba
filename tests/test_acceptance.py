"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (bypassing capture, so the
verdicts are visible in any pytest run) and then asserts.  The first
block of tests shares one 20-replication benchmark report.  Criteria 1-3
run their replications in two worker processes; the reports do not
depend on the number of workers (tests/test_metrics.py).
"""

import math
import time
from bisect import bisect_left
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from catmix import sampler
from catmix.core import (
    CategoricalSchema,
    Dataset,
    JointDistribution,
    MissingnessTable,
)
from catmix.inference import (
    construct_saturated_model,
    fisher_exact_2x2,
    impute,
    largest_remainder_counts,
    verify_construction,
)
from catmix.metrics import imputation_accuracy, run_replications
from catmix.sampler import GibbsConfig, iterate_states, run_gibbs
from catmix.synth import (
    MechanismSpec,
    mask,
    mask_fraction,
    preprocess_ratings,
    sample_mixture_dataset,
)


def _announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def mixture_mcar_report():
    start = time.perf_counter()
    report = run_replications("mixture", MechanismSpec.mcar(), reps=20,
                              seed=101, jobs=2)
    return report, time.perf_counter() - start


def test_criterion_01_mixture_mcar_accuracy(mixture_mcar_report, capsys):
    report, elapsed = mixture_mcar_report
    acc = report.means["accuracy"]
    ok = 0.70 <= acc <= 0.86 and elapsed < 300
    _announce(capsys, 1, ok,
              f"mixture MCAR mean accuracy {acc:.3f} in [0.70, 0.86], "
              f"20 replications in {elapsed:.0f}s (< 300s)")


def test_criterion_02_mixture_mar_mnar_accuracy(capsys):
    means = {}
    for kind, seed in (("mar", 102), ("mnar", 103)):
        report = run_replications("mixture", MechanismSpec(kind=kind),
                                  reps=20, seed=seed, jobs=2)
        means[kind] = report.means["accuracy"]
    ok = all(0.68 <= m <= 0.86 for m in means.values())
    _announce(capsys, 2, ok,
              f"mixture mean accuracy MAR {means['mar']:.3f}, "
              f"MNAR {means['mnar']:.3f}, both in [0.68, 0.86]")


def test_criterion_03_xor_accuracy(capsys):
    bands = {"mcar": (0.79, 0.91), "mnar": (0.72, 0.87)}
    means = {}
    for (kind, band), seed in zip(bands.items(), (104, 105)):
        report = run_replications("xor", MechanismSpec(kind=kind), reps=20,
                                  seed=seed, jobs=2)
        means[kind] = report.means["accuracy"]
    ok = all(bands[k][0] <= m <= bands[k][1] for k, m in means.items())
    _announce(capsys, 3, ok,
              f"xor mean accuracy MCAR {means['mcar']:.3f} in [0.79, 0.91], "
              f"MNAR {means['mnar']:.3f} in [0.72, 0.87]")


def test_criterion_04_component_count_recovery(mixture_mcar_report, capsys):
    report, _ = mixture_mcar_report
    hits = int((report.values("estimated_k") == 3).sum())
    ok = hits > 10
    _announce(capsys, 4, ok,
              f"modal component count equals 3 in {hits}/20 mixture "
              "replications (majority required)")


def test_criterion_05_correlation_gap(mixture_mcar_report, capsys):
    report, _ = mixture_mcar_report
    gap = report.means["correlation_gap"]
    ok = 4.5 <= gap <= 12.0
    _announce(capsys, 5, ok,
              f"mixture MCAR mean correlation gap {gap:.2f} in [4.5, 12.0]")


def test_criterion_06_saturated_construction(capsys):
    rng = np.random.default_rng(106)
    worst_pi = worst_q = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 4))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=p))
        schema = CategoricalSchema(cards)
        table = rng.random(cards)
        table[rng.random(cards) < 0.2] = 0.0
        if table.sum() == 0:
            table.flat[0] = 1.0
        pi = JointDistribution(schema, table / table.sum())
        q = MissingnessTable(
            schema, rng.uniform(0.0, 0.95, (p,) + cards))
        report = verify_construction(construct_saturated_model(pi, q), pi, q)
        worst_pi = max(worst_pi, report.pi_error)
        worst_q = max(worst_q, report.q_error)
    ok = worst_pi <= 1e-12 and worst_q <= 1e-12
    _announce(capsys, 6, ok,
              "saturated construction over 100 random instances: "
              f"max joint error {worst_pi:.1e}, max missingness error "
              f"{worst_q:.1e} (both <= 1e-12)")


def test_criterion_07_fisher_exact_enumeration(capsys):
    """Compare against an exhaustive factorial-formula enumeration.

    For every margin class the hypergeometric pmf is expressed through
    per-table factorial denominators; smaller probability means larger
    denominator, so the two-sided mass is an exact rational prefix sum.
    Matching is by float equality, not a tolerance.
    """
    total_max = 40
    start = time.perf_counter()
    fact = [math.factorial(i) for i in range(total_max + 1)]
    checked = 0
    mismatches = 0
    for n in range(1, total_max + 1):
        for r1 in range(n + 1):
            r2 = n - r1
            for c1 in range(n + 1):
                c2 = n - c1
                lo, hi = max(0, c1 - r2), min(r1, c1)
                xs = range(lo, hi + 1)
                dens = [fact[x] * fact[r1 - x] * fact[c1 - x]
                        * fact[r2 - c1 + x] for x in xs]
                num = Fraction(fact[r1] * fact[r2] * fact[c1] * fact[c2],
                               fact[n])
                asc = sorted(dens)
                prefix = []
                acc = Fraction(0)
                for d in reversed(asc):
                    acc += Fraction(1, d)
                    prefix.append(acc)
                for xi, x in enumerate(xs):
                    count = len(asc) - bisect_left(asc, dens[xi])
                    expected = float(num * prefix[count - 1])
                    got = fisher_exact_2x2([[x, r1 - x],
                                            [c1 - x, r2 - c1 + x]])
                    checked += 1
                    mismatches += got != expected
    ok = mismatches == 0
    _announce(capsys, 7, ok,
              f"Fisher p-value equals the enumeration oracle on all "
              f"{checked} tables with total <= {total_max} "
              f"({mismatches} mismatches, {time.perf_counter() - start:.0f}s)")


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def test_criterion_08_partition_posterior(capsys):
    """The chain's partition frequencies match the exact posterior.

    Six observations of one binary variable keep the partition space
    enumerable (Bell(6) = 203).  Each partition's posterior weight is
    the partition prior alpha^#blocks * prod (|b|-1)! times each
    block's Dirichlet-multinomial marginal likelihood; the chain's
    post-burn-in visit frequencies must agree within total variation
    distance 0.05.
    """
    x = [1, 1, 1, 2, 2, 2]
    alpha, beta = 0.25, (1.0, 1.0, 1.0)
    start = time.perf_counter()

    def log_block(block):
        counts = [0, 0, 0]
        for i in block:
            counts[x[i]] += 1
        val = math.lgamma(len(block))  # partition prior factor
        val += math.lgamma(sum(beta)) - math.lgamma(len(block) + sum(beta))
        for cnt, b in zip(counts, beta):
            val += math.lgamma(cnt + b) - math.lgamma(b)
        return val

    def canon(blocks):
        return tuple(sorted(tuple(sorted(b)) for b in blocks))

    logw = {}
    for part in _set_partitions(list(range(len(x)))):
        logw[canon(part)] = (len(part) * math.log(alpha)
                             + sum(log_block(b) for b in part))
    shift = max(logw.values())
    total = sum(math.exp(v - shift) for v in logw.values())
    exact = {key: math.exp(v - shift) / total for key, v in logw.items()}
    assert len(exact) == 203

    data = Dataset(CategoricalSchema([2]), [[v] for v in x])
    cfg = GibbsConfig(burnin=500, samples=50_000, thin=1)
    keep = cfg.samples
    freq: dict = {}
    states = iterate_states(data, cfg, seed=108)
    for t, state in enumerate(states, start=1):
        if not cfg.retained(t):
            continue
        blocks: dict = {}
        for i, h in enumerate(state.assignments):
            blocks.setdefault(int(h), []).append(i)
        key = canon(blocks.values())
        freq[key] = freq.get(key, 0) + 1

    tv = 0.5 * sum(abs(freq.get(k, 0) / keep - p) for k, p in exact.items())
    tv += 0.5 * sum(f / keep for k, f in freq.items() if k not in exact)
    ok = tv < 0.05
    _announce(capsys, 8, ok,
              f"partition frequencies over {keep} sweeps within TV "
              f"{tv:.4f} of the exact posterior (< 0.05, "
              f"{time.perf_counter() - start:.0f}s)")


def test_criterion_09_invariant_battery(capsys):
    failures = []

    # probability vectors
    data, _ = sample_mixture_dataset(n=25, p=6, seed=109)
    masked, _ = mask(data, MechanismSpec.mcar(), seed=110)
    draws = run_gibbs(masked, seed=111)
    for m in draws[::20]:
        if abs(m.theta.sum() - 1.0) > 1e-9 or (m.theta < 0).any():
            failures.append("draw weights are not a distribution")
        rows = m.probs.reshape(m.k, -1, 2)
        if np.abs(rows.sum(axis=2) - 1.0).max() > 1e-8 or (rows < 0).any():
            failures.append("draw vectors are not distributions")
    cfg = GibbsConfig()
    chain = sampler._Chain(masked, cfg)
    chain.init(np.random.default_rng(112))
    chain.detach(0)
    w = chain.row_weights(0)
    if abs(w.sum() - 1.0) > 1e-12 or (w < 0).any():
        failures.append("assignment weights are not a distribution")

    # count consistency along the chain
    for s in islice(iterate_states(masked, cfg, seed=113), 5):
        if s.counts.sum() != masked.n_rows or (s.counts < 1).any():
            failures.append("occupancy counts do not add up")
        if (np.diff(s.counts) > 0).any():
            failures.append("components are not sorted by occupancy")
        if not np.array_equal(np.bincount(s.assignments), s.counts):
            failures.append("counts disagree with assignments")

    # deterministic tie-breaks
    singletons = sampler._Chain(masked, cfg)
    singletons.init(np.random.default_rng(114))
    tied, _ = singletons.labels()
    if not np.array_equal(tied, np.arange(masked.n_rows)):
        failures.append("relabelling moved tied singleton components")
    if largest_remainder_counts([0.25] * 4, 10).tolist() != [3, 3, 2, 2]:
        failures.append("rounding ties are not positional")

    # determinism
    again = run_gibbs(masked, seed=111)
    if not all(np.array_equal(a.probs, b.probs)
               for a, b in zip(draws, again)):
        failures.append("fits with equal seeds differ")

    # label invariance of imputation
    perm = np.random.default_rng(0).permutation(draws[0].k)
    first = draws[0]
    shuffled = type(first)(first.schema, first.theta[perm],
                           first.probs[perm])
    a = impute(masked, [first], rule="argmax")
    b = impute(masked, [shuffled], rule="argmax")
    if not np.array_equal(a.completed.cells, b.completed.cells):
        failures.append("imputation depends on component labels")

    ok = not failures
    _announce(capsys, 9, ok,
              "invariant battery (probability vectors, count consistency, "
              "tie-breaks, determinism, label invariance): "
              + ("all hold" if ok else "; ".join(sorted(set(failures)))))


def test_criterion_10_ratings_pipeline(capsys):
    # Filtering: 8 users; items 1..4 rated by everyone, item 5 by
    # exactly 25% of users (strictly-more rule drops it), item 6 by 3
    # users.  User 8 skips item 6 and thus covers only 4/5 = 80% of the
    # kept items, below the strict 95% coverage rule.
    triples = []
    for u in range(1, 9):
        for it in range(1, 5):
            triples.append((u, it, 4.0 if (u + it) % 2 else 2.0))
    triples += [(1, 5, 3.0), (2, 5, 3.0)]
    for u in (1, 2, 3, 4, 5, 6, 7):
        triples.append((u, 6, 0.5))
    data = preprocess_ratings(triples)
    filter_ok = (
        data.column_names == ("1", "2", "3", "4", "6")
        and data.cells.shape == (7, 5)
        and data.n_missing() == 0
        and data.cells[0].tolist() == [1, 2, 1, 2, 1]
    )

    # Recovery on a masked synthetic binary matrix
    complete, _ = sample_mixture_dataset(n=200, p=15, k=3, seed=301)
    masked, record = mask_fraction(complete, 0.4, seed=302)
    draws = run_gibbs(masked, seed=303)
    completed = impute(masked, draws).completed
    acc = imputation_accuracy(completed, complete, record)
    ok = filter_ok and acc >= 0.70
    _announce(capsys, 10, ok,
              f"ratings filtering exact ({'yes' if filter_ok else 'no'}); "
              f"200x15 recovery at 40% masking {acc:.3f} (>= 0.70)")
