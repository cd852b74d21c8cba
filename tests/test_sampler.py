import tracemalloc
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmix import cli, sampler
from catmix.core import (
    CategoricalSchema, Dataset, ModelState, padded_dirichlet, parse_dataset,
    serialize_models)
from catmix.inference import impute
from catmix.sampler import (
    GibbsConfig,
    collapse_state,
    iterate_states,
    k_histogram,
    modal_k,
    run_gibbs,
)


def _binary_pair_data():
    """Two rows, one binary variable, both observed as code 1."""
    return Dataset(CategoricalSchema([2]), [[1], [1]])


def _pair_state(psi_row):
    """Both rows in a single component with the given psi vector."""
    return ModelState(
        CategoricalSchema([2]),
        assignments=[0, 0],
        counts=[2],
        psi=np.asarray(psi_row, dtype=float).reshape(1, 3),
    )


def _chain(data, state, config=GibbsConfig()):
    """A chain holding ``state``, as a sweep holds it between row visits."""
    ch = sampler._Chain(data, config)
    ch._adopt(np.array(state.assignments), np.array(state.counts))
    with np.errstate(divide="ignore"):
        np.log(state.psi.T, out=ch.log_psi)
    return ch


def _weights(row, state, data, config=GibbsConfig()):
    """The sweep's reassignment probabilities for ``row`` in ``state``."""
    ch = _chain(data, state, config)
    ch.detach(row)
    return ch.row_weights(row)


def _psi(ch):
    """The chain's flat psi by slot, shape (slots, sum_j (d_j + 1)), from
    its logs."""
    return np.exp(ch.log_psi.T)


class TestInitState:
    def test_one_component_per_row(self):
        data = Dataset(CategoricalSchema([2, 3]), [[1, 0], [2, 3], [0, 1]])
        ch = sampler._Chain(data, GibbsConfig())
        ch.init(np.random.default_rng(0))
        z, counts = ch.labels()
        assert ch.k == 3
        assert z.tolist() == [0, 1, 2]
        assert counts.tolist() == [1, 1, 1]
        psi = _psi(ch)
        assert psi.shape == (3, 3 + 4)
        ModelState(data.schema, z, counts, psi).validate()

    def test_single_row(self):
        data = Dataset(CategoricalSchema([2]), [[1]])
        (state,) = islice(iterate_states(data, GibbsConfig(), seed=0), 1)
        assert state.k == 1

    def test_deterministic(self):
        data = Dataset(CategoricalSchema([2, 2]), [[1, 2], [2, 1]])
        a, b = (sampler._Chain(data, GibbsConfig()) for _ in range(2))
        a.init(np.random.default_rng(42))
        b.init(np.random.default_rng(42))
        assert np.array_equal(a.log_psi, b.log_psi)

    def test_rejects_empty_dataset(self):
        data = Dataset(CategoricalSchema([2]), np.zeros((0, 1), dtype=int))
        with pytest.raises(
                ValueError,
                match="cannot run the sampler on an empty dataset"):
            run_gibbs(data, GibbsConfig())


class TestAssignmentWeights:
    def test_two_row_hand_value(self):
        # One remaining neighbour in a single component with
        # psi = (0.1, 0.6, 0.3), flat priors, alpha = 0.25:
        #   existing: 1 * 0.6            = 0.6
        #   new:      0.25 * (1/3)       = 1/12
        # normalized: (36/41, 5/41).
        data = _binary_pair_data()
        w = _weights(1, _pair_state([0.1, 0.6, 0.3]), data)
        np.testing.assert_allclose(w, [36 / 41, 5 / 41], rtol=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_new_component_weight_is_the_same_for_every_row(self):
        # under a fresh flat Dirichlet each code of variable j, the missing
        # code included, has marginal probability 1 / (d_j + 1)
        data = Dataset(CategoricalSchema([2, 4, 3]), [[1, 0, 3], [0, 4, 2]])
        psi = np.array([[0.2, 0.3, 0.5,
                         0.1, 0.2, 0.3, 0.15, 0.25,
                         0.25, 0.25, 0.25, 0.25]])
        state = ModelState(data.schema, [0, 0], [2], psi)
        cfg = GibbsConfig(alpha=0.7, beta=2.5)
        new = 0.7 / (3 * 5 * 4)
        for row, existing in ((0, 0.3 * 0.1 * 0.25), (1, 0.2 * 0.25 * 0.25)):
            w = _weights(row, state, data, cfg)
            np.testing.assert_allclose(
                w, np.array([existing, new]) / (existing + new), rtol=1e-12)

    def test_singleton_component_vanishes(self):
        data = Dataset(CategoricalSchema([2]), [[1], [2]])
        state = ModelState(
            data.schema, [0, 1], [1, 1],
            np.full((2, 3), 1 / 3),
        )
        w = _weights(1, state, data)
        assert w.shape == (2,)  # one surviving component + "new"

    def test_huge_alpha_prefers_a_new_component(self):
        data = _binary_pair_data()
        w = _weights(1, _pair_state([0.1, 0.6, 0.3]), data,
                     GibbsConfig(alpha=1e9))
        assert w[-1] > 0.999

    def test_zero_likelihood_component_gets_zero_weight(self):
        data = _binary_pair_data()
        w = _weights(1, _pair_state([0.5, 0.0, 0.5]), data)
        assert w.tolist() == [0.0, 1.0]


class TestSampleAssignment:
    """``_Chain.commit`` carries out a sampled assignment."""

    def test_certain_stay_keeps_state(self):
        data = _binary_pair_data()
        ch = _chain(data, _pair_state([0.1, 0.6, 0.3]))
        before = ch.log_psi.copy()
        ch.detach(1)
        ch.commit(1, 0, np.random.default_rng(0))
        z, counts = ch.labels()
        assert z.tolist() == [0, 0]
        assert counts.tolist() == [2]
        assert np.array_equal(ch.log_psi, before)

    def test_certain_birth_opens_component(self):
        data = _binary_pair_data()
        state = _pair_state([0.1, 0.6, 0.3])
        for seed in range(5):
            ch = _chain(data, state)
            ch.detach(1)
            ch.commit(1, ch.k, np.random.default_rng(seed))
            z, counts = ch.labels()
            assert ch.k == 2
            assert z.tolist() == [0, 1]
            assert counts.tolist() == [1, 1]
            # fresh psi comes from Dir(beta + indicator of x=1)
            fresh = _psi(ch)[ch.order]
            ModelState(data.schema, z, counts, fresh).validate()
            assert not np.array_equal(fresh[1], state.psi[0])


class TestPruneAndRelabel:
    """``_Chain.labels`` relabels the live components of a chain."""

    def test_sorts_by_occupancy(self):
        # row 2 leaves its singleton for the last component, which empties
        # slot 1 and makes slot 2 the largest
        data = Dataset(CategoricalSchema([2]), [[1]] * 6)
        state = ModelState(data.schema, [0, 0, 1, 2, 2, 2], [2, 1, 3],
                           np.full((3, 3), 1 / 3))
        ch = _chain(data, state)
        ch.detach(2)
        ch.commit(2, 1, np.random.default_rng(0))
        z, counts = ch.labels()
        assert counts.tolist() == [4, 2]
        assert z.tolist() == [1, 1, 0, 0, 0, 0]

    def test_ties_keep_previous_order(self):
        # row 0 leaves its singleton and opens a new component, which
        # reuses slot 0 but comes last in live order
        data = Dataset(CategoricalSchema([2]), [[1], [2], [1]])
        state = ModelState(data.schema, [0, 1, 2], [1, 1, 1],
                           np.full((3, 3), 1 / 3))
        ch = _chain(data, state)
        ch.detach(0)
        ch.commit(0, ch.k, np.random.default_rng(0))
        assert ch.order.tolist() == [1, 2, 0]
        z, counts = ch.labels()
        assert z.tolist() == [2, 0, 1]
        assert counts.tolist() == [1, 1, 1]

    def test_idempotent_when_sorted(self):
        data = Dataset(CategoricalSchema([2]), [[1], [1], [2]])
        state = ModelState(data.schema, [0, 0, 1], [2, 1],
                           np.full((2, 3), 1 / 3))
        z, counts = _chain(data, state).labels()
        assert z.tolist() == [0, 0, 1]
        assert counts.tolist() == [2, 1]


class TestUpdatePsi:
    def test_matches_dirichlet_posterior_mean(self):
        # five members, all observed as code 1, flat priors: the
        # conditional is Dir(1, 6, 1) with mean (1/8, 6/8, 1/8)
        data = Dataset(CategoricalSchema([2]), [[1]] * 5)
        ch = sampler._Chain(data, GibbsConfig())
        rng = np.random.default_rng(123)
        acc = np.zeros(3)
        reps = 4000
        for _ in range(reps):
            acc += ch.redraw_psi(np.zeros(5, dtype=np.int64),
                                 np.array([5]), rng)[0]
        np.testing.assert_allclose(acc / reps, [1 / 8, 6 / 8, 1 / 8],
                                   atol=0.02)

    def test_keeps_the_real_codes_only(self):
        # neither the state's psi nor its collapse pads variable 0
        data = Dataset(CategoricalSchema([2, 3]), [[1, 3], [2, 1]])
        ch = sampler._Chain(data, GibbsConfig())
        ch.init(np.random.default_rng(1))
        psi = ch.redraw_psi(*ch.labels(), np.random.default_rng(2))
        out = ModelState(data.schema, *ch.labels(), psi)
        assert out.psi.shape == (out.k, 3 + 4)
        out.validate()
        assert collapse_state(out).probs.shape == (out.k, 2 + 3)


class TestCollapseState:
    def test_divides_out_missing_mass(self):
        state = _pair_state([0.2, 0.4, 0.4])
        model = collapse_state(state)
        assert model.probs.tolist() == [[0.5, 0.5]]
        assert model.theta.tolist() == [1.0]

    def test_zero_missing_mass_is_identity(self):
        state = _pair_state([0.0, 0.3, 0.7])
        model = collapse_state(state)
        assert model.probs.tolist() == [[0.3, 0.7]]

    def test_theta_is_occupancy_fraction(self):
        schema = CategoricalSchema([2])
        n = 50
        assignments = [0] * 30 + [1] * 20
        state = ModelState(schema, assignments, [30, 20],
                           np.full((2, 3), 1 / 3))
        model = collapse_state(state)
        assert model.theta.tolist() == [0.6, 0.4]

    def test_rejects_all_mass_on_missing(self):
        state = _pair_state([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="missing"):
            collapse_state(state)

    def test_mixed_cardinalities_stay_flat(self):
        data = Dataset(CategoricalSchema([2, 3]), [[1, 3], [2, 1], [0, 2]])
        (state,) = islice(iterate_states(data, GibbsConfig(), seed=3), 1)
        model = collapse_state(state)
        assert model.probs.shape == (state.k, 5)
        # each segment is its vector's codes 1 .. d_j over their sum
        for codes, real in ((slice(1, 3), slice(0, 2)),
                            (slice(4, 7), slice(2, 5))):
            want = state.psi[:, codes] / state.psi[:, codes].sum(
                axis=1, keepdims=True)
            assert model.probs[:, real].tobytes() == want.tobytes()


def _toy_data(seed=0, n=8):
    rng = np.random.default_rng(seed)
    schema = CategoricalSchema([2, 3, 2])
    cells = np.stack([
        rng.integers(0, 3, size=n),
        rng.integers(0, 4, size=n),
        rng.integers(1, 3, size=n),
    ], axis=1)
    return Dataset(schema, cells)


def test_iterate_states_yields_valid_sorted_states():
    data = _toy_data(2, n=10)
    for state in islice(iterate_states(data, seed=7), 5):
        state.validate()
        counts = state.counts
        assert counts.sum() == data.n_rows
        assert (counts >= 1).all()
        assert (np.diff(counts) <= 0).all()


def _per_variable_dirichlet(cards):
    """Dirichlet draws at padded (..., p, D + 1) concentrations, each
    variable normalised over its own codes ``0 .. d_j``."""
    def draw(conc, rng):
        g = rng.standard_gamma(conc)
        for j, d in enumerate(cards):
            g[..., j, :d + 1] /= g[..., j, :d + 1].sum(axis=-1, keepdims=True)
        return g
    return draw


def _reference_states(data, config, sweeps, seed, dirichlet=None):
    """The sweep as it stood before slot buffers, kept as the oracle.

    Every death deletes the component's rows from ``psi`` and
    ``log_psi`` and relabels the later components; every birth appends.
    Psi is drawn padded to the widest variable with ``dirichlet``, by
    default :func:`_per_variable_dirichlet`.  Yields ``(assignments,
    counts, psi)`` after each sweep, psi at the real codes only, flat.
    """
    rng = np.random.default_rng(seed)
    x = data.cells
    n, p = x.shape
    width = data.schema.max_cardinality + 1
    cols = np.arange(p)
    cards = data.schema.codes_array()
    real = np.arange(width)[None, :] <= cards[:, None]
    beta_pad = np.where(real, config.beta, 0.0)
    draw = dirichlet or _per_variable_dirichlet(cards)
    with np.errstate(divide="ignore"):
        log_beta = np.log(beta_pad)
    log_beta = log_beta - np.log(beta_pad.sum(axis=1))[:, None]
    new_logw = np.log(config.alpha) + log_beta[:, 0].sum()

    z = np.arange(n)
    counts = np.ones(n, dtype=np.int64)
    psi = draw(np.broadcast_to(beta_pad, (n, p, width)), rng)
    with np.errstate(divide="ignore"):
        log_psi = np.log(psi)
        for _ in range(sweeps):
            for i in range(n):
                h = z[i]
                counts[h] -= 1
                z[i] = -1
                if counts[h] == 0:
                    counts = np.delete(counts, h)
                    psi = np.delete(psi, h, axis=0)
                    log_psi = np.delete(log_psi, h, axis=0)
                    z[z > h] -= 1
                loglik = log_psi[:, cols, x[i]].sum(axis=1)
                logw = np.append(np.log(counts) + loglik, new_logw)
                w = np.exp(logw - logw.max())
                w /= w.sum()
                edges = np.cumsum(w)
                h = int(np.searchsorted(edges, rng.random() * edges[-1],
                                        side="right"))
                h = min(h, w.size - 1)
                if h < counts.size:
                    z[i] = h
                    counts[h] += 1
                    continue
                conc = beta_pad.copy()
                conc[cols, x[i]] += 1.0
                fresh = draw(conc[None], rng)
                z[i] = counts.size
                counts = np.append(counts, 1)
                psi = np.concatenate([psi, fresh])
                log_psi = np.concatenate([log_psi, np.log(fresh)])
            order = np.argsort(-counts, kind="stable")
            order = order[counts[order] > 0]
            relabel = np.empty(counts.size, dtype=np.int64)
            relabel[order] = np.arange(order.size)
            z, counts = relabel[z], counts[order]
            tab = np.zeros((counts.size, p, width))
            np.add.at(tab, (z[:, None], cols, x), 1.0)
            psi = draw(tab + beta_pad, rng)
            log_psi = np.log(psi)
            yield z.copy(), counts.copy(), psi[:, real]


def _mixed_missing_table(seed, n=40):
    """n x 5 table with cardinalities 2, 3 and 7 and about 25% zeros."""
    rng = np.random.default_rng(seed)
    cards = [2, 7, 3, 7, 2]
    cells = np.column_stack([rng.integers(1, d + 1, n) for d in cards])
    cells[rng.random(cells.shape) < 0.25] = 0
    return Dataset(CategoricalSchema(cards), cells)


# (seed, rows): 40 rows under each seed, and tables too short for a
# block of _BLOCK_MIN rows or just long enough for one
_SEED_ROWS = [(seed, 40) for seed in range(3)] + [
    (seed, n) for n in (1, 2, 7) for seed in range(3)]


@pytest.mark.parametrize("alpha, beta", [(0.25, 1.0), (50.0, 3.0)])
@pytest.mark.parametrize(
    "seed, n", _SEED_ROWS,
    ids=[str(s) if n == 40 else f"{s}-n{n}" for s, n in _SEED_ROWS])
def test_sweeps_match_the_reference_kernel_draw_for_draw(seed, n, alpha,
                                                       beta, monkeypatch):
    # record, for every birth, whether it had to grow the slot buffers
    grew = []
    free_slot = sampler._Chain._free_slot

    def recording(chain):
        grew.append(not chain.free)
        return free_slot(chain)

    monkeypatch.setattr(sampler._Chain, "_free_slot", recording)
    data = _mixed_missing_table(seed, n)
    cfg = GibbsConfig(alpha=alpha, beta=beta)
    # later sweeps size their blocks from the previous sweep's movers
    pairs = zip(islice(iterate_states(data, cfg, seed=seed), 8),
                _reference_states(data, cfg, sweeps=8, seed=seed))
    for state, (z, counts, psi) in pairs:
        assert state.assignments.tolist() == z.tolist()
        assert state.counts.tolist() == counts.tolist()
        assert state.psi.tobytes() == psi.tobytes()
    if alpha > 1 and n == 40:
        # births both reused freed slots and, after compaction, doubled
        # the buffers
        assert False in grew and True in grew


def _clustered_missing_table(seed, n=200):
    """n x 8 table of three noisy groups, cardinalities 2 to 9, and
    about 25% zeros: after a few sweeps most rows stay put."""
    rng = np.random.default_rng(seed)
    cards = [2, 3, 5, 9, 2, 4, 3, 6]
    group = rng.integers(0, 3, n)
    cells = np.column_stack([
        np.where(rng.random(n) < 0.8, 1 + group * (j + 2) % d,
                 rng.integers(1, d + 1, n))
        for j, d in enumerate(cards)])
    cells[rng.random(cells.shape) < 0.25] = 0
    return Dataset(CategoricalSchema(cards), cells)


def _spy_on_blocks(monkeypatch):
    """Count the rows block passes settle and the components their
    movers open."""
    seen = {"settled": 0, "births": 0}
    settle = sampler._Chain.settle

    def spying(chain, start, stop, rng):
        k = chain.k
        stayed = settle(chain, start, stop, rng)
        seen["settled"] += stayed
        seen["births"] += chain.k > k
        return stayed

    monkeypatch.setattr(sampler._Chain, "settle", spying)
    return seen


@pytest.mark.parametrize("alpha, beta", [(0.25, 1.0), (50.0, 3.0)])
def test_steady_sweeps_match_the_reference_kernel_draw_for_draw(
        alpha, beta, monkeypatch):
    seen = _spy_on_blocks(monkeypatch)
    data = _clustered_missing_table(3)
    cfg = GibbsConfig(alpha=alpha, beta=beta)
    sweeps = 40
    pairs = zip(islice(iterate_states(data, cfg, seed=11), sweeps),
                _reference_states(data, cfg, sweeps=sweeps, seed=11))
    for state, (z, counts, psi) in pairs:
        assert state.assignments.tolist() == z.tolist()
        assert state.counts.tolist() == counts.tolist()
        assert state.psi.tobytes() == psi.tobytes()
    # most row visits were settled by block passes, not row by row
    assert seen["settled"] > 0.5 * sweeps * data.n_rows
    if alpha > 1:
        # a block's mover opened a component, drawing its psi after
        # the replayed uniforms
        assert seen["births"] > 0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_block_weights_match_single_row_weights_bytewise(k):
    # from p = 9 on a pairwise sum of a row's terms differs from an
    # in-order one, and numpy sums pairwise only along a unit slot axis
    rng = np.random.default_rng(k)
    n, p = 60, 20
    data = Dataset(CategoricalSchema([3] * p), rng.integers(0, 4, (n, p)))
    ch = sampler._Chain(data, GibbsConfig())
    z = np.arange(n) % k
    ch._adopt(z, np.bincount(z))
    ch.log_psi[...] = np.log(rng.random(ch.log_psi.shape))
    block = ch.row_weights(slice(0, n))
    for i in range(n):
        s = int(ch.z[i])
        ch.detach(i)
        assert ch.row_weights(i).tobytes() == block[i].tobytes()
        ch.commit(i, s, rng)


@pytest.mark.parametrize("alpha, beta", [(1, 1), (50, 3)])
def test_integer_priors_draw_what_their_floats_draw(alpha, beta):
    data = _mixed_missing_table(0)
    cfgs = [GibbsConfig(burnin=3, samples=2, thin=1, alpha=a, beta=b)
            for a, b in ((alpha, beta), (float(alpha), float(beta)))]
    fits = [run_gibbs(data, cfg, seed=0) for cfg in cfgs]
    assert serialize_models(fits[0]) == serialize_models(fits[1])
    last = [list(iterate_states(data, cfg, seed=0))[-1] for cfg in cfgs]
    assert last[0].psi.tobytes() == last[1].psi.tobytes()


@pytest.mark.parametrize("bit_generator",
                         [np.random.PCG64, np.random.MT19937,
                          np.random.Philox])
def test_sweeps_leave_a_callers_generator_where_the_reference_does(
        bit_generator, monkeypatch):
    # a uniform drawn once too often, or replayed wrongly after a block
    # is cut, shifts every later draw of the caller's generator
    seen = _spy_on_blocks(monkeypatch)
    data = _clustered_missing_table(4)
    cfg = GibbsConfig(alpha=3.0)
    ours, ref = (np.random.Generator(bit_generator(7)) for _ in range(2))
    for state, (z, _, psi) in zip(
            islice(iterate_states(data, cfg, seed=ours), 15),
            _reference_states(data, cfg, sweeps=15, seed=ref)):
        assert state.assignments.tolist() == z.tolist()
        assert state.psi.tobytes() == psi.tobytes()
    assert seen["settled"] > 0
    assert ours.random(8).tolist() == ref.random(8).tolist()


def _wide_column_table(seed, n):
    """n x 9 table, one 150-level column among 2- to 5-level ones, and
    about 25% zeros: a padded psi would be mostly padding."""
    rng = np.random.default_rng(seed)
    cards = [150] + [2, 3, 5, 4] * 2
    cells = np.column_stack([rng.integers(1, d + 1, n) for d in cards])
    cells[rng.random(cells.shape) < 0.25] = 0
    return Dataset(CategoricalSchema(cards), cells)


def test_chunked_psi_draws_match_the_reference_kernel_draw_for_draw():
    # the prior psi of the n initial components is drawn a chunk of
    # components at a time; here it spans several chunks, the last one
    # short
    data = _wide_column_table(5, n=400)
    cfg = GibbsConfig()
    chunk = sampler._BLOCK_CELLS // data.schema.offsets(1)[-1]
    ours, ref = (np.random.default_rng(21) for _ in range(2))
    pairs = list(zip(islice(iterate_states(data, cfg, seed=ours), 4),
                     _reference_states(data, cfg, sweeps=4, seed=ref)))
    assert data.n_rows > 2 * chunk
    assert data.n_rows % chunk
    for state, (z, counts, psi) in pairs:
        assert state.assignments.tolist() == z.tolist()
        assert state.counts.tolist() == counts.tolist()
        assert state.psi.tobytes() == psi.tobytes()
    assert ours.random(8).tolist() == ref.random(8).tolist()


@pytest.mark.parametrize("d", [4, 9])
def test_equal_cardinalities_draw_what_the_padded_normaliser_draws(d):
    # with every d_j equal no variable is padded, so each rectangular sum
    # over a variable's codes is the sum padded_dirichlet takes, also
    # where numpy sums ten codes pairwise
    rng = np.random.default_rng(8)
    cells = rng.integers(0, d + 1, size=(60, 7))
    data = Dataset(CategoricalSchema([d] * 7), cells)
    cfg = GibbsConfig(alpha=2.0, beta=0.3)
    for state, (z, counts, psi) in zip(
            islice(iterate_states(data, cfg, seed=4), 6),
            _reference_states(data, cfg, sweeps=6, seed=4,
                              dirichlet=padded_dirichlet)):
        assert state.assignments.tolist() == z.tolist()
        assert state.counts.tolist() == counts.tolist()
        assert state.psi.tobytes() == psi.tobytes()


def test_states_carry_psi_over_the_real_codes_only():
    data = _wide_column_table(2, n=90)
    state = next(iterate_states(data, GibbsConfig(), seed=0))
    width = sum(d + 1 for d in data.schema.cardinalities)
    assert state.psi.nbytes == 8 * state.k * width
    state.validate()


def _assert_first_sweep_memory_near_the_real_codes(top):
    # one top-level column pads nine small ones tenfold or more; the chain
    # keeps psi and its log only at the real codes, 8 * n * sum_j (d_j + 1)
    # bytes, draws the initial psi a bounded chunk at a time, and a death
    # copies neither
    rng = np.random.default_rng(0)
    cards = [top] + [2, 3, 4] * 3
    n = 300
    cells = np.column_stack([rng.integers(0, d + 1, n) for d in cards])
    data = Dataset(CategoricalSchema(cards), cells)
    real_bytes = 8 * n * sum(d + 1 for d in cards)
    chunk_bytes = 8 * sampler._BLOCK_CELLS
    tracemalloc.start()
    try:
        next(iterate_states(data, GibbsConfig(), seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * real_bytes + 8 * chunk_bytes


def test_first_sweep_memory_scales_with_the_real_codes():
    _assert_first_sweep_memory_near_the_real_codes(1000)


def test_first_sweep_memory_stays_near_the_initial_psi():
    # the real-code bound, not a multiple of the padded psi: a chain that
    # kept the padded 300 x 10 x 101 table would fail it
    _assert_first_sweep_memory_near_the_real_codes(100)


def test_first_sweep_redraw_draws_a_chunk_at_a_time():
    # at a huge alpha every row opens a component of its own again, so
    # the redraw after the first sweep draws n components' psi; it holds
    # their integer code counts, the new log table and the psi it
    # returns, three real-code tables, and draws them a bounded chunk at
    # a time; with float concentrations and a whole-table normaliser it
    # held four
    rng = np.random.default_rng(0)
    cards = [1000] + [2, 3, 4] * 3
    n = 300
    cells = np.column_stack([rng.integers(0, d + 1, n) for d in cards])
    data = Dataset(CategoricalSchema(cards), cells)
    real_bytes = 8 * n * sum(d + 1 for d in cards)
    chunk_bytes = 8 * sampler._BLOCK_CELLS
    tracemalloc.start()
    try:
        state = next(iterate_states(data, GibbsConfig(alpha=1e6), seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.k == n
    assert peak <= 3 * real_bytes + 4 * chunk_bytes


def test_iterate_states_rejects_bad_arguments():
    data = Dataset(CategoricalSchema([2]), np.zeros((0, 1), dtype=int))
    with pytest.raises(ValueError,
                       match="cannot run the sampler on an empty dataset"):
        next(iterate_states(data, seed=0))


def test_iterate_states_runs_the_whole_schedule():
    # every sweep of the config, retained or not; the retained states,
    # collapsed, are run_gibbs's draws byte for byte, the last sweep's
    # state among them
    data = _mixed_missing_table(1)
    cfg = GibbsConfig(burnin=3, samples=4, thin=2)
    states = list(iterate_states(data, cfg, seed=5))
    assert len(states) == cfg.total_sweeps == 11
    kept = [state for t, state in enumerate(states, start=1)
            if cfg.retained(t)]
    draws = run_gibbs(data, cfg, seed=5)
    assert type(draws) is tuple
    assert len(kept) == len(draws) == 4 and kept[-1] is states[-1]
    for state, theirs in zip(kept, draws, strict=True):
        ours = collapse_state(state)
        assert ours.theta.tobytes() == theirs.theta.tobytes()
        assert ours.probs.tobytes() == theirs.probs.tobytes()
        assert theirs.k == state.k


class TestGibbsConfig:
    def test_defaults(self):
        cfg = GibbsConfig()
        assert (cfg.burnin, cfg.samples, cfg.thin) == (200, 100, 2)
        assert cfg.total_sweeps == 400

    def test_retention_rule(self):
        cfg = GibbsConfig(burnin=3, samples=2, thin=2)
        assert cfg.total_sweeps == 7
        kept = [t for t in range(1, 8) if cfg.retained(t)]
        assert kept == [5, 7]

    def test_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(burnin=-1)
        with pytest.raises(ValueError):
            GibbsConfig(samples=0)
        with pytest.raises(ValueError):
            GibbsConfig(thin=0)
        # a float or a bool would fail later in range() or fit one draw
        for field, value in (("samples", 2.5), ("thin", 1.5),
                             ("burnin", 0.5), ("samples", True),
                             ("burnin", np.float64(3.0))):
            with pytest.raises(ValueError,
                               match=f"{field} must be an integer, got"):
                GibbsConfig(**{field: value})
        cfg = GibbsConfig(burnin=np.int64(1), samples=np.int32(2), thin=1)
        assert cfg.total_sweeps == 3
        # far below 0.01 a Dirichlet draw's observable gammas can all be 0
        with pytest.raises(ValueError,
                           match="beta must be at least 0.01, got 0.005"):
            GibbsConfig(beta=0.005)
        assert GibbsConfig(beta=0.01).beta == 0.01

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize(
        "value", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_priors(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            GibbsConfig(**{field: value})

    def test_largest_beta_fits_a_hundred_level_column(self):
        rng = np.random.default_rng(0)
        cells = np.column_stack([rng.integers(1, 101, 40),
                                 rng.integers(0, 3, 40)])
        data = Dataset(CategoricalSchema([100, 2]), cells)
        cfg = GibbsConfig(burnin=3, samples=2, thin=1, beta=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = run_gibbs(data, config=cfg, seed=0)
        assert len(draws) == 2

    def test_priors_reach_the_chain(self):
        # with these priors every row opens its own component
        data = _toy_data(4)
        cfg = GibbsConfig(burnin=0, samples=1, thin=1, alpha=1e12, beta=2.0)
        (draw,) = run_gibbs(data, config=cfg, seed=0)
        (state,) = iterate_states(data, cfg, seed=0)
        manual = next(iterate_states(
            data, GibbsConfig(alpha=1e12, beta=2.0), seed=0))
        assert np.array_equal(state.psi, manual.psi)
        assert state.k == draw.k == data.n_rows
        assert np.array_equal(draw.probs, collapse_state(manual).probs)


@pytest.mark.parametrize("beta", [0.2, 0.1, 0.01])
def test_small_beta_fits_collapse_and_impute(beta, tmp_path):
    # a component's missing mass can come within rounding of 1 at small
    # beta; the observable codes still carry mass and must rescale
    table = tmp_path / "data.csv"
    assert cli.main(["simulate", "--protocol", "mixture", "--n", "50",
                     "--p", "20", "--seed", "1", "--mechanism", "mcar",
                     "--out", str(table)]) == 0
    data = parse_dataset(table.read_text())
    observed = data.cells != 0
    cfg = GibbsConfig(burnin=100, samples=50, beta=beta)
    for seed in range(6):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = run_gibbs(data, cfg, seed=seed)
            cells = impute(data, draws).completed.cells
        assert len(draws) == 50
        assert (cells[observed] == data.cells[observed]).all()
        assert ((cells >= 1) & (cells <= data.schema.codes_array())).all()


class TestRunGibbs:
    def test_single_draw(self):
        data = _toy_data(4)
        cfg = GibbsConfig(burnin=0, samples=1, thin=1)
        (draw,) = run_gibbs(data, config=cfg, seed=0)
        (state,) = iterate_states(data, cfg, seed=0)
        assert draw.k == state.k

    def test_histogram_accounts_for_every_draw(self):
        data = _toy_data(5)
        cfg = GibbsConfig(burnin=10, samples=25, thin=2)
        draws = run_gibbs(data, config=cfg, seed=3)
        hist = k_histogram([m.k for m in draws])
        assert sum(hist.values()) == len(draws) == 25
        assert modal_k([m.k for m in draws]) in hist

    def test_deterministic_given_seed(self):
        data = _toy_data(6)
        cfg = GibbsConfig(burnin=5, samples=5, thin=1)
        a = run_gibbs(data, config=cfg, seed=99)
        b = run_gibbs(data, config=cfg, seed=99)
        assert [m.k for m in a] == [m.k for m in b]
        for da, db in zip(a, b, strict=True):
            assert np.array_equal(da.theta, db.theta)
            assert np.array_equal(da.probs, db.probs)

    def test_constant_dataset_concentrates_on_one_component(self):
        data = Dataset(CategoricalSchema([2, 2]), [[1, 2]] * 20)
        draws = run_gibbs(data, config=GibbsConfig(burnin=50, samples=50,
                                                   thin=1), seed=5)
        assert modal_k([m.k for m in draws]) == 1


class TestKSummaries:
    def test_histogram_counts_every_draw(self):
        ks = [3, 1, 3, 7, 1, 3]
        assert k_histogram(ks) == {1: 2, 3: 3, 7: 1}
        assert k_histogram(np.array(ks)) == k_histogram(ks)
        assert all(type(k) is int and type(c) is int
                   for k, c in k_histogram(np.array(ks)).items())

    @pytest.mark.parametrize("ks, mode", [
        ([4, 2, 4, 2], 2),
        ([5, 9, 9, 5, 1], 5),
        ([3, 3, 1, 2, 1, 2], 1),
        ([6], 6),
        ([2, 7, 7], 7),
    ])
    def test_modal_k_breaks_ties_toward_the_smaller_count(self, ks, mode):
        assert modal_k(ks) == mode
        assert modal_k(ks[::-1]) == mode


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    n=st.integers(min_value=1, max_value=10),
)
def test_sweeps_preserve_state_invariants(seed, n):
    rng = np.random.default_rng(seed)
    schema = CategoricalSchema([2, 3])
    cells = np.stack([rng.integers(0, 3, n), rng.integers(0, 4, n)], axis=1)
    data = Dataset(schema, cells)
    last = None
    for state in islice(iterate_states(data, seed=seed), 3):
        state.validate()
        assert state.counts.sum() == n
        assert (np.diff(state.counts) <= 0).all()
        last = state
    collapse_state(last)  # always rescalable under positive priors
