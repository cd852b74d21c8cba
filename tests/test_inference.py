import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catmix.core import (
    CategoricalSchema,
    CollapsedModel,
    Dataset,
    JointDistribution,
    MissingnessTable,
)
from catmix.inference import (
    AugmentedModel,
    ConstructionReport,
    class_posterior,
    construct_saturated_model,
    correlation_matrix,
    fisher_exact_2x2,
    impute,
    joint_distribution,
    largest_remainder_counts,
    pair_marginal,
    pairwise_independence,
    pool_draws,
    predictive_cell,
    saturated_model,
    verify_construction,
)
from catmix.sampler import run_gibbs
from catmix.synth import sample_xor_dataset


def _point_mass_pair(theta=(0.5, 0.5)):
    """Two components with var0 = var1 pinned to code 1 resp. code 2."""
    probs = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    return CollapsedModel(CategoricalSchema([2, 2]), theta, probs)


def _single_component(rows):
    """One-component model over binary variables with the given vectors."""
    rows = np.asarray(rows, dtype=float)
    return CollapsedModel(CategoricalSchema([2] * len(rows)), [1.0],
                          rows.reshape(1, -1))


def _random_model(seed, k=3, cards=(2, 3, 2)):
    rng = np.random.default_rng(seed)
    schema = CategoricalSchema(cards)
    theta = rng.dirichlet(np.full(k, 2.0))
    probs = [rng.dirichlet(np.ones(d), size=k) for d in cards]
    return CollapsedModel(schema, theta, np.concatenate(probs, axis=1))


def _padded(model):
    """The model's table padded with zeros to shape (k, p, D)."""
    cards = model.schema.codes_array()
    real = np.arange(model.schema.max_cardinality) < cards[:, None]
    padded = np.zeros((model.k,) + real.shape)
    padded[:, real] = model.probs
    return padded


class TestClassPosterior:
    def test_single_component(self):
        m = _single_component([[0.3, 0.7]])
        assert class_posterior([1], m).tolist() == [1.0]

    def test_all_missing_returns_mixture_weights(self):
        m = _point_mass_pair((0.3, 0.7))
        np.testing.assert_allclose(class_posterior([0, 0], m), [0.3, 0.7],
                                   rtol=1e-15)

    def test_disjoint_support(self):
        m = _point_mass_pair((0.3, 0.7))
        np.testing.assert_allclose(class_posterior([1, 0], m), [1.0, 0.0])
        np.testing.assert_allclose(class_posterior([0, 2], m), [0.0, 1.0])

    def test_impossible_row(self):
        m = _single_component([[1.0, 0.0]])
        # -inf under every component: the max shift must not compute
        # -inf - (-inf) on the way to the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="probability zero"):
                class_posterior([2], m)

    def test_normalization(self):
        m = _random_model(0)
        post = class_posterior([1, 0, 2], m)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)
        assert (post >= 0).all()

    def test_rejects_bad_rows(self):
        m = _random_model(1)
        with pytest.raises(ValueError, match="shape"):
            class_posterior([1, 2], m)
        with pytest.raises(ValueError, match="0 .. d_j"):
            class_posterior([1, 4, 1], m)


class TestPredictiveCell:
    def test_single_component_returns_its_vector(self):
        m = _single_component([[0.3, 0.7]])
        np.testing.assert_allclose(predictive_cell([0], 0, m), [0.3, 0.7],
                                   rtol=0, atol=0)

    def test_no_evidence_mixes_by_weights(self):
        m = _point_mass_pair((0.5, 0.5))
        np.testing.assert_allclose(predictive_cell([0, 0], 0, m), [0.5, 0.5])

    def test_coupled_evidence_pins_the_cell(self):
        m = _point_mass_pair((0.4, 0.6))
        np.testing.assert_allclose(predictive_cell([1, 0], 1, m), [1.0, 0.0])
        np.testing.assert_allclose(predictive_cell([2, 0], 1, m), [0.0, 1.0])

    def test_rejects_observed_cell(self):
        m = _point_mass_pair()
        with pytest.raises(ValueError, match="observed"):
            predictive_cell([1, 2], 1, m)

    def test_rejects_bad_variable_index(self):
        m = _point_mass_pair()
        with pytest.raises(ValueError, match="out of range"):
            predictive_cell([1, 0], 2, m)


def _mixed_draws_and_data():
    """Draws of k = 1 .. 4 over cardinalities up to 40, one of them the
    point masses of a saturated model, and rows that each draw allows,
    among them a row with every cell missing."""
    rng = np.random.default_rng(21)
    cards = (2, 3, 9, 17, 40)
    schema = CategoricalSchema(cards)
    table = np.zeros(cards)
    points = [tuple(rng.integers(0, d) for d in cards) for _ in range(4)]
    for cell, weight in zip(points, (0.4, 0.3, 0.2, 0.1)):
        table[cell] = weight
    draws = [_random_model(s, k=k, cards=cards)
             for s, k in zip(range(30, 36), (1, 3, 2, 4, 1, 2))]
    draws.insert(2, saturated_model(JointDistribution(schema, table)))
    cells = np.array([points[i] for i in rng.integers(0, 4, 80)]) + 1
    cells[rng.random(cells.shape) < 0.5] = 0
    cells[7] = 0
    return draws, Dataset(schema, cells)


def _reference_impute(data, draws, rule, rng):
    """Completed cells and cell posteriors as impute computed them with
    one (m, p, k) gather per draw and one rng.choice per cell."""
    cells = np.asarray(data.cells)
    miss = cells == 0
    hit_rows = np.nonzero(miss.any(axis=1))[0]
    sub = cells[hit_rows]
    acc = np.zeros((hit_rows.size, data.n_variables,
                    data.schema.max_cardinality))
    for m in draws:
        with np.errstate(divide="ignore"):
            log_theta = np.log(m.theta)
            log_tilde = np.log(_padded(m))
        by_var = np.moveaxis(log_tilde, 0, 2)
        gathered = by_var[np.arange(sub.shape[1])[None, :],
                          np.maximum(sub - 1, 0)]
        contrib = np.where((sub > 0)[:, :, None], gathered, 0.0)
        logpost = log_theta[None, :] + contrib.sum(axis=1)
        shifted = logpost - logpost.max(axis=1, keepdims=True)
        post = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1,
                                                           keepdims=True)))
        acc += np.einsum("mk,kjc->mjc", post, _padded(m))
    acc /= len(draws)
    completed = cells.copy()
    posteriors = {}
    cards = data.schema.cardinalities
    for local, i in enumerate(hit_rows):
        for j in np.nonzero(miss[i])[0]:
            vec = acc[local, j, : cards[j]]
            vec = vec / vec.sum()
            posteriors[(int(i), int(j))] = vec
            if rule == "argmax":
                completed[i, j] = int(np.argmax(vec)) + 1
            else:
                completed[i, j] = int(rng.choice(cards[j], p=vec)) + 1
    return completed, posteriors


def _by_cell(out):
    """Each filled cell's posterior over its own codes, by (row, column)."""
    cards = out.completed.schema.cardinalities
    return {(i, j): vec[:cards[j]] for (i, j), vec in
            zip(out.filled.tolist(), out.cell_posteriors)}


class TestImpute:
    def test_tie_prefers_the_lowest_code(self):
        m = _single_component([[0.5, 0.5]])
        data = Dataset(CategoricalSchema([2]), [[0], [2]])
        out = impute(data, m)
        assert out.completed.cells.tolist() == [[1], [2]]
        assert out.filled.tolist() == [[0, 0]]
        np.testing.assert_allclose(out.cell_posteriors, [[0.5, 0.5]])

    def test_complete_data_is_returned_unchanged(self):
        m = _single_component([[0.5, 0.5]])
        data = Dataset(CategoricalSchema([2]), [[1], [2]])
        out = impute(data, m)
        assert np.array_equal(out.completed.cells, data.cells)
        assert out.filled.shape == (0, 2)
        assert out.cell_posteriors.shape == (0, 2)

    def test_observed_cells_survive_and_fills_are_in_range(self):
        m = _random_model(2)
        rng = np.random.default_rng(3)
        cells = np.stack([rng.integers(0, 3, 30), rng.integers(0, 4, 30),
                          rng.integers(0, 3, 30)], axis=1)
        data = Dataset(m.schema, cells)
        out = impute(data, m)
        filled = out.completed.cells
        assert out.completed.n_missing() == 0
        obs = cells > 0
        assert np.array_equal(filled[obs], cells[obs])
        assert (filled >= 1).all()
        assert (filled <= m.schema.codes_array()[None, :]).all()
        assert out.filled.tolist() == np.argwhere(cells == 0).tolist()
        for vec in _by_cell(out).values():
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_averages_per_draw_predictives(self):
        # Two confident but opposed draws.  Averaging each draw's own
        # normalized predictive gives (0.5, 0.5); reweighting the pooled
        # components by the observed cell would instead give (0.82, 0.18).
        a = _single_component([[0.9, 0.1], [0.9, 0.1]])
        b = _single_component([[0.1, 0.9], [0.1, 0.9]])
        data = Dataset(CategoricalSchema([2, 2]), [[1, 0]])
        out = impute(data, [a, b])
        np.testing.assert_allclose(_by_cell(out)[(0, 1)], [0.5, 0.5],
                                   rtol=1e-12)

    def test_invariant_to_component_relabelling(self):
        m = _random_model(4, k=4)
        perm = np.random.default_rng(0).permutation(4)
        shuffled = CollapsedModel(m.schema, m.theta[perm], m.probs[perm])
        data = Dataset(m.schema, [[0, 2, 1], [1, 0, 0], [0, 0, 0]])
        out_a = impute(data, [m, m])
        out_b = impute(data, [shuffled, m])
        assert np.array_equal(out_a.completed.cells, out_b.completed.cells)
        assert np.array_equal(out_a.filled, out_b.filled)
        np.testing.assert_allclose(out_a.cell_posteriors,
                                   out_b.cell_posteriors, atol=1e-12)

    def test_sample_rule_is_reproducible(self):
        m = _random_model(5)
        data = Dataset(m.schema, [[0, 0, 0]] * 10)
        a = impute(data, m, rule="sample", seed=11)
        b = impute(data, m, rule="sample", seed=11)
        assert np.array_equal(a.completed.cells, b.completed.cells)
        assert a.completed.n_missing() == 0

    def test_rejects_unknown_rule(self):
        m = _random_model(6)
        data = Dataset(m.schema, [[0, 0, 0]])
        with pytest.raises(ValueError, match="rule"):
            impute(data, m, rule="mode")

    def test_rejects_mismatched_schema(self):
        m = _single_component([[0.5, 0.5]])
        data = Dataset(CategoricalSchema([2, 2]), [[1, 0]])
        with pytest.raises(ValueError, match="cardinalities"):
            impute(data, m)

    def test_draws_are_checked_as_they_arrive(self):
        # any iterable of draws is folded in draw by draw: a draw of
        # another schema is refused when it is reached, before the next
        # element is looked at, and a later element that is not a model
        # is refused by its type
        m = CollapsedModel(CategoricalSchema([2, 2]), [1.0], [[0.3, 0.7] * 2])
        other = CollapsedModel(CategoricalSchema([2, 3]), [1.0],
                               [[0.3, 0.7, 0.2, 0.3, 0.5]])
        data = Dataset(m.schema, [[1, 0], [0, 2]])
        once = impute(data, iter([m, m]))
        assert once.cell_posteriors.tobytes() == \
            impute(data, [m, m]).cell_posteriors.tobytes()
        with pytest.raises(ValueError, match="^draws disagree on cardinalities$"):
            impute(data, iter([m, other, "x"]))
        with pytest.raises(ValueError, match="^expected CollapsedModel draws, got str$"):
            impute(data, iter([m, "x"]))

    def test_impossible_row_is_named_by_its_dataset_index(self):
        # components all-1 and all-2; row 1 is complete and not imputed,
        # row 2 mixes codes 1 and 2 and fits neither component
        probs = np.array([[1.0, 0.0] * 3, [0.0, 1.0] * 3])
        m = CollapsedModel(CategoricalSchema([2, 2, 2]), [0.5, 0.5], probs)
        data = Dataset(m.schema, [[1, 1, 0], [1, 1, 1], [1, 2, 0]])
        with pytest.raises(ValueError, match="^row 2 has probability zero"):
            impute(data, m)

    @pytest.mark.parametrize("rule", ["argmax", "sample"])
    @pytest.mark.parametrize("seed", [
        12, np.random.PCG64, np.random.MT19937, np.random.Philox])
    def test_matches_the_per_draw_per_cell_reference(self, rule, seed):
        draws, data = _mixed_draws_and_data()
        if isinstance(seed, int):
            ours, ref = seed, np.random.default_rng(seed)
        else:
            ours, ref = np.random.Generator(seed(3)), np.random.Generator(seed(3))
        out = impute(data, draws, rule=rule, seed=ours)
        completed, posteriors = _reference_impute(data, draws, rule, ref)
        assert np.array_equal(out.completed.cells, completed)
        assert out.filled.tolist() == [list(key) for key in posteriors]
        for key, vec in _by_cell(out).items():
            assert vec.tobytes() == posteriors[key].tobytes()
        cards = data.schema.codes_array()[out.filled[:, 1]]
        assert (out.cell_posteriors[np.arange(data.schema.max_cardinality)
                                    >= cards[:, None]] == 0).all()
        assert not out.filled.flags.writeable
        assert not out.cell_posteriors.flags.writeable
        if not isinstance(seed, int):
            assert np.array_equal(ours.random(8), ref.random(8))

    def test_evidence_is_gathered_in_bounded_groups(self):
        rng = np.random.default_rng(8)
        cards = (2, 3, 4)
        draws = [_random_model(s, k=3, cards=cards) for s in range(200)]
        cells = np.stack([rng.integers(0, d + 1, 2000) for d in cards], axis=1)
        cells[:, 0] = 0
        data = Dataset(draws[0].schema, cells)
        uncapped = 8 * 2000 * sum(m.k for m in draws)
        tracemalloc.start()
        try:
            impute(data, draws, rule="sample", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < uncapped / 2

    def test_a_wide_column_costs_its_own_codes_only(self):
        # 29 binary variables and one of 100 levels: a (rows, p, D)
        # accumulator padded to the widest variable would alone take
        # 500 * 30 * 100 * 8 B = 12 MB
        cards = (2,) * 29 + (100,)
        draws = [_random_model(s, k=5, cards=cards) for s in range(20)]
        rng = np.random.default_rng(4)
        cells = np.stack([rng.integers(1, d + 1, 500) for d in cards], axis=1)
        cells[rng.random(cells.shape) < 0.1] = 0
        data = Dataset(draws[0].schema, cells)
        tracemalloc.start()
        try:
            out = impute(data, draws, rule="sample", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.cell_posteriors) == data.n_missing() > 1000
        assert peak < 4_000_000

    def test_peak_is_the_accumulator_and_the_outputs(self):
        # 10,000 x 50 codes of 4 levels, 30% missing, 20 draws: the terms
        # are added and the cells filled in blocks of about 2**15 floats,
        # so beyond the (rows, sum_j d_j) accumulator and the three
        # outputs the peak holds a few blocks; summed as one (rows,
        # sum_j d_j) term per draw and filled with (cells, d)
        # temporaries, it held over 20 MB more
        cards = (4,) * 50
        draws = [_random_model(s, k=5, cards=cards) for s in range(20)]
        rng = np.random.default_rng(2)
        cells = rng.integers(1, 5, (10_000, 50))
        cells[rng.random(cells.shape) < 0.3] = 0
        data = Dataset(draws[0].schema, cells)
        tracemalloc.start()
        try:
            out = impute(data, draws, rule="sample", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        acc = 8 * (cells == 0).any(axis=1).sum() * sum(cards)
        outputs = (out.completed.cells.nbytes + out.filled.nbytes
                   + out.cell_posteriors.nbytes)
        assert peak < acc + outputs + 16 * 8 * 2 ** 15


class TestPoolDraws:
    def test_single_draw_is_identity(self):
        m = _random_model(7)
        pooled = pool_draws([m])
        assert np.array_equal(pooled.theta, m.theta)
        assert np.array_equal(pooled.probs, m.probs)

    def test_pooling_averages_linear_summaries(self):
        a, b = _random_model(8), _random_model(9, k=2)
        pooled = pool_draws([a, b])
        assert pooled.k == a.k + b.k
        want = (pair_marginal(a, 0, 1) + pair_marginal(b, 0, 1)) / 2
        np.testing.assert_allclose(pair_marginal(pooled, 0, 1), want,
                                   atol=1e-15)

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError, match="at least one"):
            pool_draws([])
        with pytest.raises(ValueError, match="cardinalities"):
            pool_draws([_random_model(1), _random_model(1, cards=(2, 2))])


class TestJointDistribution:
    def test_single_component_product(self):
        m = _single_component([[0.3, 0.7], [0.5, 0.5]])
        joint = joint_distribution(m)
        np.testing.assert_allclose(joint.table,
                                   [[0.15, 0.15], [0.35, 0.35]],
                                   rtol=0, atol=1e-16)

    def test_point_masses_put_weight_on_their_cells(self):
        joint = joint_distribution(_point_mass_pair((0.5, 0.5)))
        assert joint.table.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_sums_to_one(self):
        table = joint_distribution(_random_model(10)).table
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        assert (table >= 0).all()

    def test_saturated_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        raw = rng.random((2, 3, 2))
        raw[0, 1, 1] = 0.0  # keep one empty cell
        pi = JointDistribution(CategoricalSchema([2, 3, 2]), raw / raw.sum())
        again = joint_distribution(saturated_model(pi))
        assert np.array_equal(again.table, pi.table)

    def test_refuses_huge_tables(self):
        # 7**9 cells: refused before the 323 MB table is allocated
        schema = CategoricalSchema([7] * 9)
        m = CollapsedModel(schema, [1.0], np.full((1, 9 * 7), 1 / 7))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"limit 10000000\).*pair_marginal"):
                joint_distribution(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestPairMarginal:
    def test_single_component_outer_product(self):
        m = _single_component([[0.3, 0.7], [0.5, 0.5]])
        np.testing.assert_allclose(pair_marginal(m, 0, 1),
                                   np.outer([0.3, 0.7], [0.5, 0.5]),
                                   atol=1e-16)

    def test_agrees_with_joint_marginalization(self):
        m = _random_model(12)
        joint = joint_distribution(m).table
        np.testing.assert_allclose(pair_marginal(m, 0, 1),
                                   joint.sum(axis=2), atol=1e-12)
        np.testing.assert_allclose(pair_marginal(m, 0, 2),
                                   joint.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(pair_marginal(m, 1, 2),
                                   joint.sum(axis=0), atol=1e-12)

    def test_margins_match_single_variable_marginals(self):
        m = _random_model(13)
        table = pair_marginal(m, 0, 1)
        want0 = m.theta @ m.probs[:, :2]
        np.testing.assert_allclose(table.sum(axis=1), want0, atol=1e-12)

    def test_rejects_bad_indices(self):
        m = _random_model(14)
        with pytest.raises(ValueError, match="distinct"):
            pair_marginal(m, 1, 1)
        with pytest.raises(ValueError, match="out of range"):
            pair_marginal(m, 0, 3)


class TestCorrelationMatrix:
    def test_independent_single_component(self):
        m = _single_component([[0.3, 0.7], [0.6, 0.4]])
        np.testing.assert_allclose(correlation_matrix(m), np.eye(2),
                                   atol=1e-15)

    def test_perfectly_coupled_variables(self):
        rho = correlation_matrix(_point_mass_pair((0.5, 0.5)))
        np.testing.assert_allclose(rho, np.ones((2, 2)), atol=1e-12)

    def test_known_phi_coefficient(self):
        # P(agree) = 0.8 on a symmetric binary pair: phi = 0.6
        table = np.array([[0.4, 0.1], [0.1, 0.4]])
        pi = JointDistribution(CategoricalSchema([2, 2]), table)
        rho = correlation_matrix(saturated_model(pi))
        assert rho[0, 1] == pytest.approx(0.6, abs=1e-12)

    def test_zero_variance_maps_to_zero(self):
        m = _single_component([[1.0, 0.0], [0.5, 0.5]])
        rho = correlation_matrix(m)
        assert rho[0, 1] == 0.0
        assert rho[0, 0] == 1.0 and rho[1, 1] == 1.0

    def test_shape_and_bounds(self):
        rho = correlation_matrix(_random_model(15))
        assert rho.shape == (3, 3)
        assert np.array_equal(rho, rho.T)
        assert (np.abs(rho) <= 1.0).all()
        assert (np.diag(rho) == 1.0).all()


def _fisher_by_direct_sum(table):
    """The two-sided p-value with every term built from fresh binomials:
    the reference for the exact-ratio walk of ``fisher_exact_2x2``."""
    (a, b), (c, d) = table
    r1, r2, c1 = a + b, c + d, a + c
    observed = math.comb(r1, a) * math.comb(r2, c1 - a)
    weights = (math.comb(r1, x) * math.comb(r2, c1 - x)
               for x in range(max(0, c1 - r2), min(r1, c1) + 1))
    return sum(w for w in weights if w <= observed) / math.comb(r1 + r2, c1)


class TestFisherExact:
    def test_hand_values(self):
        assert fisher_exact_2x2([[3, 1], [1, 3]]) == 34 / 70
        assert fisher_exact_2x2([[10, 0], [0, 10]]) == 2 / math.comb(20, 10)
        assert fisher_exact_2x2([[2, 2], [2, 2]]) == 1.0

    def test_zero_margin_is_uninformative(self):
        assert fisher_exact_2x2([[0, 0], [3, 2]]) == 1.0
        assert fisher_exact_2x2([[0, 3], [0, 2]]) == 1.0

    def test_accepts_integral_floats(self):
        assert fisher_exact_2x2(np.array([[3.0, 1.0], [1.0, 3.0]])) == 34 / 70

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="2x2"):
            fisher_exact_2x2([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="integer"):
            fisher_exact_2x2([[1.5, 1], [1, 1]])
        with pytest.raises(ValueError, match="integer"):
            fisher_exact_2x2([[-1, 1], [1, 1]])
        with pytest.raises(ValueError, match="total"):
            fisher_exact_2x2([[0, 0], [0, 0]])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=25), min_size=4,
                    max_size=4))
    def test_matches_scipy(self, entries):
        table = np.array(entries).reshape(2, 2)
        assume(table.sum() > 0)
        ours = fisher_exact_2x2(table)
        theirs = scipy.stats.fisher_exact(table, alternative="two-sided")[1]
        assert ours == pytest.approx(theirs, rel=1e-10, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=400), min_size=4,
                    max_size=4))
    def test_matches_the_direct_sum_bit_for_bit(self, entries):
        table = np.array(entries).reshape(2, 2)
        assume(table.sum() > 0)
        assert fisher_exact_2x2(table) == _fisher_by_direct_sum(table.tolist())

    @pytest.mark.parametrize("table", [
        [[1200, 800], [900, 1100]], [[0, 1500], [1700, 3]],
        [[2500, 1], [2, 2500]], [[333, 3000], [1, 40]]])
    def test_large_tables_match_the_direct_sum(self, table):
        assert fisher_exact_2x2(table) == _fisher_by_direct_sum(table)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=4,
                    max_size=4))
    def test_symmetries(self, entries):
        table = np.array(entries).reshape(2, 2)
        assume(table.sum() > 0)
        p = fisher_exact_2x2(table)
        assert fisher_exact_2x2(table.T) == p
        assert fisher_exact_2x2(table[::-1]) == p
        assert fisher_exact_2x2(table[:, ::-1]) == p
        assert 0.0 < p <= 1.0


class TestLargestRemainder:
    def test_tie_break_is_positional(self):
        got = largest_remainder_counts([0.25, 0.25, 0.25, 0.25], 10)
        assert got.tolist() == [3, 3, 2, 2]

    def test_exact_fractions_need_no_correction(self):
        got = largest_remainder_counts([0.2, 0.3, 0.5], 10)
        assert got.tolist() == [2, 3, 5]

    def test_preserves_shape(self):
        got = largest_remainder_counts([[0.3, 0.2], [0.1, 0.4]], 7)
        assert got.shape == (2, 2)
        assert got.sum() == 7

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            largest_remainder_counts([-0.1, 1.1], 5)
        with pytest.raises(ValueError):
            largest_remainder_counts([0.0, 0.0], 5)
        with pytest.raises(ValueError):
            largest_remainder_counts([0.5, 0.5], -1)

    def test_n_is_at_most_two_to_the_53(self):
        # beyond 2**53 float64 cannot hold every count
        assert largest_remainder_counts([0.5, 0.5], 2 ** 53).tolist() == [
            2 ** 52, 2 ** 52]
        for n in (2 ** 53 + 1, 10 ** 20):
            with pytest.raises(ValueError, match=r"n must lie in 0 \.\. 2\*\*53"):
                largest_remainder_counts([0.5, 0.5], n)

    @pytest.mark.parametrize(
        "probs", [[math.nan, 1.0], [math.inf, 1.0], [1e308, 1e308]],
        ids=["nan", "inf", "overflowing-sum"])
    def test_rejects_non_finite_entries(self, probs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonnegative with positive"):
                largest_remainder_counts(probs, 10)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                 max_size=8),
        st.integers(min_value=0, max_value=50),
    )
    def test_sums_and_bounds(self, probs, n):
        probs = np.asarray(probs)
        assume(probs.sum() > 1e-9)
        got = largest_remainder_counts(probs, n)
        assert got.sum() == n
        scaled = probs / probs.sum() * n
        assert (got >= np.floor(scaled) - 1e-9).all()
        assert (got <= np.floor(scaled) + 1).all()


class TestPairwiseIndependence:
    def test_two_variables_give_one_pair(self):
        m = _single_component([[0.3, 0.7], [0.6, 0.4]])
        out = pairwise_independence(m, 40)
        assert len(out) == 1
        assert out[0][:2] == (0, 1)

    def test_coupled_pair_is_tiny(self):
        pi = JointDistribution(CategoricalSchema([2, 2]),
                               [[0.5, 0.0], [0.0, 0.5]])
        out = pairwise_independence(saturated_model(pi), 20)
        assert out[0][2] == 2 / math.comb(20, 10)

    def test_independent_model_stays_insignificant(self):
        m = _single_component([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        out = pairwise_independence(m, 100)
        assert len(out) == 3
        assert min(p for _, _, p in out) > 0.3
        pvals = [p for _, _, p in out]
        assert pvals == sorted(pvals)

    def test_rejects_non_binary_models(self):
        m = _random_model(16)  # middle variable has three categories
        with pytest.raises(ValueError, match="cardinality 3"):
            pairwise_independence(m, 50)
        good = _single_component([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sample size"):
            pairwise_independence(good, 0)


class TestSaturatedConstruction:
    def test_single_variable_hand_example(self):
        schema = CategoricalSchema([2])
        pi = JointDistribution(schema, [0.3, 0.7])
        q = MissingnessTable(schema, np.array([[0.1, 0.2]]))
        aug = construct_saturated_model(pi, q)
        assert aug.theta.tolist() == [0.3, 0.7]
        assert aug.psi.tolist() == [[0.1, 0.9, 0.0], [0.2, 0.0, 0.8]]

    def test_zero_probability_cells_are_skipped(self):
        schema = CategoricalSchema([2, 2])
        pi = JointDistribution(schema, [[0.5, 0.0], [0.0, 0.5]])
        q = MissingnessTable(schema, np.zeros((2, 2, 2)))
        aug = construct_saturated_model(pi, q)
        assert aug.k == 2
        assert aug.theta.sum() == 1.0

    def test_verification_is_exact(self):
        rng = np.random.default_rng(17)
        schema = CategoricalSchema([2, 3])
        raw = rng.random((2, 3))
        pi = JointDistribution(schema, raw / raw.sum())
        q = MissingnessTable(schema, rng.uniform(0.0, 0.9, (2, 2, 3)))
        report = verify_construction(construct_saturated_model(pi, q), pi, q)
        assert report == ConstructionReport(pi_error=0.0, q_error=0.0)

    def test_zero_missingness_collapses_to_point_masses(self):
        schema = CategoricalSchema([2, 2])
        pi = JointDistribution(schema, [[0.1, 0.2], [0.3, 0.4]])
        q = MissingnessTable(schema, np.zeros((2, 2, 2)))
        aug = construct_saturated_model(pi, q)
        report = verify_construction(aug, pi, q)
        assert report.pi_error == 0.0 and report.q_error == 0.0
        assert set(np.unique(aug.psi)) <= {0.0, 1.0}

    def test_rejects_mismatched_schemas(self):
        pi = JointDistribution(CategoricalSchema([2]), [0.3, 0.7])
        q = MissingnessTable(CategoricalSchema([3]),
                             np.zeros((1, 3)))
        with pytest.raises(ValueError, match="schemas differ"):
            construct_saturated_model(pi, q)

    def test_rejects_certain_missingness(self):
        schema = CategoricalSchema([2])
        pi = JointDistribution(schema, [0.3, 0.7])
        q = MissingnessTable(schema, np.array([[1.0, 0.0]]))
        aug = construct_saturated_model(pi, q)
        with pytest.raises(ValueError, match="rescaled"):
            verify_construction(aug, pi, q)

    def test_augmented_model_validation(self):
        schema = CategoricalSchema([2])
        with pytest.raises(ValueError, match="sum to 1"):
            AugmentedModel(schema, [1.0], np.array([[0.5, 0.4, 0.0]]))
        with pytest.raises(ValueError, match="theta"):
            AugmentedModel(schema, [0.5], np.array([[0.0, 1.0, 0.0]]))
        with pytest.raises(ValueError, match="nonnegative"):
            AugmentedModel(schema, [1.0], np.array([[0.0, 1.5, -0.5]]))
        wide = CategoricalSchema([2, 3])
        # the row sums to p = 2, but variable 0's segment holds 0.9
        psi = np.array([[0.2, 0.4, 0.3, 0.1, 0.25, 0.25, 0.5]])
        with pytest.raises(ValueError, match="variable 0 do not sum to 1"):
            AugmentedModel(wide, [1.0], psi)
        padded = np.zeros((1, 2, 4))
        padded[0, 0, :3] = [0.2, 0.4, 0.4]
        padded[0, 1] = 0.25
        with pytest.raises(ValueError, match=r"shape \(1, 2, 4\), "
                                             r"expected \(1, 7\)"):
            AugmentedModel(wide, [1.0], padded)


def test_xor_fit_recovers_the_third_bit():
    """After fitting complete XOR data, the model predicts a missing V3
    from (V1, V2) with most of its mass on the XOR-consistent code."""
    data, _ = sample_xor_dataset(n=300, seed=21)
    draws = run_gibbs(data, seed=22)
    probe = np.array([1, 2, 0])  # bits (0, 1): V3 should be bit 1 = code 2
    per_draw = np.mean([predictive_cell(probe, 2, m) for m in draws],
                       axis=0)
    assert per_draw[1] >= 0.9
    pooled = predictive_cell(probe, 2, pool_draws(draws))
    assert pooled[1] >= 0.9
