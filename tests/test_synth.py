import numpy as np
import pytest

from catmix.core import CategoricalSchema, Dataset, ParseError, padded_dirichlet
from catmix.synth import (
    MaskResult,
    MechanismSpec,
    mask,
    mask_fraction,
    parse_ratings_csv,
    preprocess_ratings,
    sample_mixture_dataset,
    sample_xor_dataset,
)


class TestMechanismSpec:
    def test_kind_is_case_insensitive(self):
        assert MechanismSpec(kind="mcar").kind == "MCAR"
        assert MechanismSpec(kind="Mar").kind == "MAR"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MechanismSpec(kind="MNCAR")

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MechanismSpec.mcar(1.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MechanismSpec.mnar(-0.1, 0.3)

    def test_factories(self):
        assert MechanismSpec.mcar().mcar_rate == 0.2
        assert MechanismSpec.mar().mar_rates == (0.1, 0.3)
        assert MechanismSpec.mnar(0.05, 0.4).mnar_rates == (0.05, 0.4)


class TestSampleMixtureDataset:
    def test_shapes_and_completeness(self):
        data, truth = sample_mixture_dataset(seed=0)
        assert data.cells.shape == (50, 20)
        assert data.n_missing() == 0
        assert data.schema.cardinalities == (2,) * 20
        assert truth.k == 3
        assert truth.theta.shape == (3,)

    def test_deterministic(self):
        a, ta = sample_mixture_dataset(seed=5)
        b, tb = sample_mixture_dataset(seed=5)
        c, _ = sample_mixture_dataset(seed=6)
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(ta.tilde_psi, tb.tilde_psi)
        assert not np.array_equal(a.cells, c.cells)

    def test_per_variable_cardinalities(self):
        data, truth = sample_mixture_dataset(n=10, p=3, cardinality=[2, 4, 3],
                                             seed=1)
        assert data.schema.cardinalities == (2, 4, 3)
        assert (data.cells <= np.array([2, 4, 3])).all()
        assert (truth.tilde_psi[:, 0, 2:] == 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cells_match_the_dense_cumsum_formula(self, seed):
        # replay the generator's stream and draw every cell at once from
        # the (n, p, D) cumulative sums of each row's component
        n, k, cards = 60, 3, np.array([2, 5, 3, 9, 2, 4])
        data, truth = sample_mixture_dataset(n=n, p=cards.size, k=k,
                                             cardinality=cards, seed=seed)
        rng = np.random.default_rng(seed)
        rng.dirichlet(np.full(k, 10.0))
        conc = np.zeros((k, cards.size, cards.max()))
        for j, d in enumerate(cards):
            conc[:, j, :d] = 0.5
        padded_dirichlet(conc, rng)
        z = rng.choice(k, size=n, p=truth.theta)
        u = rng.random((n, cards.size))
        edges = np.cumsum(truth.tilde_psi[z], axis=2)
        idx = np.minimum((u[:, :, None] > edges).sum(axis=2), cards - 1)
        assert np.array_equal(data.cells, idx + 1)

    def test_empirical_frequencies_match_the_truth(self):
        data, truth = sample_mixture_dataset(n=50_000, p=5, seed=2)
        marg = truth.theta @ truth.tilde_psi[:, :, 0]  # P(code 1) per var
        emp = (data.cells == 1).mean(axis=0)
        assert np.abs(emp - marg).max() < 0.01

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_mixture_dataset(n=0)
        with pytest.raises(ValueError):
            sample_mixture_dataset(psi_dirichlet=0.0)
        with pytest.raises(ValueError, match="cardinalities"):
            sample_mixture_dataset(p=3, cardinality=[2, 2])
        for name, value in (("n", 2.5), ("k", 1.5), ("p", True)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                sample_mixture_dataset(**{name: value})
        for n in (2.5, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                sample_xor_dataset(n=n)


class TestSampleXorDataset:
    def test_exact_truth_table(self):
        _, truth = sample_xor_dataset(n=10, seed=0)
        t = truth.table
        assert t.sum() == 1.0
        assert t[1, 1, 0] == 0.14625  # both bits set, third agrees (xor 0)
        np.testing.assert_allclose(t.sum(axis=(1, 2)), [0.7, 0.3], atol=0)
        # conditional faithfulness is 0.975 whatever the first two bits
        for v1 in (0, 1):
            for v2 in (0, 1):
                cond = t[v1, v2, v1 ^ v2] / t[v1, v2].sum()
                assert cond == pytest.approx(0.975, abs=1e-12)

    def test_sample_statistics(self):
        data, _ = sample_xor_dataset(n=40_000, seed=3)
        bits = data.cells - 1
        assert data.cells.shape == (40_000, 3)
        assert set(np.unique(data.cells)) == {1, 2}
        assert bits[:, 0].mean() == pytest.approx(0.3, abs=0.01)
        agree = (bits[:, 2] == bits[:, 0] ^ bits[:, 1]).mean()
        assert agree == pytest.approx(0.975, abs=0.01)

    def test_deterministic(self):
        a, _ = sample_xor_dataset(seed=9)
        b, _ = sample_xor_dataset(seed=9)
        assert np.array_equal(a.cells, b.cells)


class TestMask:
    def _complete(self, n=200, p=5, seed=0):
        data, _ = sample_mixture_dataset(n=n, p=p, seed=seed)
        return data

    def test_mcar_rate_zero_and_one(self):
        data = self._complete()
        same, rec = mask(data, MechanismSpec.mcar(0.0), seed=1)
        assert np.array_equal(same.cells, data.cells)
        assert len(rec) == 0
        gone, rec = mask(data, MechanismSpec.mcar(1.0), seed=1)
        assert (gone.cells == 0).all()
        assert len(rec) == data.cells.size
        assert rec.fraction == 1.0

    def test_mcar_empirical_rate(self):
        data = self._complete(n=200, p=50)
        _, rec = mask(data, MechanismSpec.mcar(), seed=2)
        assert rec.fraction == pytest.approx(0.2, abs=0.02)

    def test_record_matches_the_masked_cells(self):
        data = self._complete(n=50, p=4)
        masked, rec = mask(data, MechanismSpec.mcar(0.3), seed=3)
        assert (masked.cells[rec.rows, rec.cols] == 0).all()
        assert np.array_equal(rec.values, data.cells[rec.rows, rec.cols])
        # everything not recorded is untouched
        untouched = masked.cells.copy()
        untouched[rec.rows, rec.cols] = rec.values
        assert np.array_equal(untouched, data.cells)
        assert rec.pairs() == set(map(tuple, np.argwhere(masked.cells == 0)))

    def test_mar_spares_the_driver_and_hits_conditionally(self):
        data = self._complete(n=20_000, p=4, seed=4)
        masked, _ = mask(data, MechanismSpec.mar(), seed=5)
        assert (masked.cells[:, 0] > 0).all()
        group1 = data.cells[:, 0] == 1
        for j in range(1, 4):
            r1 = (masked.cells[group1, j] == 0).mean()
            r2 = (masked.cells[~group1, j] == 0).mean()
            assert r1 == pytest.approx(0.1, abs=0.015)
            assert r2 == pytest.approx(0.3, abs=0.015)

    def test_mar_requires_binary_driver(self):
        data, _ = sample_mixture_dataset(n=20, p=3, cardinality=[3, 2, 2],
                                         seed=6)
        with pytest.raises(ValueError, match="first variable"):
            mask(data, MechanismSpec.mar())

    def test_mnar_rates_follow_the_hidden_value(self):
        data = self._complete(n=20_000, p=2, seed=7)
        masked, _ = mask(data, MechanismSpec.mnar(), seed=8)
        ones = data.cells == 1
        assert (masked.cells[ones] == 0).mean() == pytest.approx(0.1,
                                                                 abs=0.015)
        assert (masked.cells[~ones] == 0).mean() == pytest.approx(0.3,
                                                                  abs=0.015)

    def test_mnar_requires_binary_variables(self):
        data, _ = sample_mixture_dataset(n=20, p=3, cardinality=[2, 3, 2],
                                         seed=9)
        with pytest.raises(ValueError, match="variable 1"):
            mask(data, MechanismSpec.mnar())

    def test_rejects_incomplete_input(self):
        data = Dataset(CategoricalSchema([2, 2]), [[1, 0], [2, 1]])
        with pytest.raises(ValueError, match="complete"):
            mask(data, MechanismSpec.mcar())

    def test_deterministic(self):
        data = self._complete(n=100, p=6)
        a, _ = mask(data, MechanismSpec.mcar(), seed=10)
        b, _ = mask(data, MechanismSpec.mcar(), seed=10)
        assert np.array_equal(a.cells, b.cells)


class TestMaskFraction:
    def test_exact_count(self):
        data, _ = sample_mixture_dataset(n=10, p=10, seed=0)
        masked, rec = mask_fraction(data, 0.4, seed=1)
        assert (masked.cells == 0).sum() == 40
        assert len(rec) == 40

    def test_extremes(self):
        data, _ = sample_mixture_dataset(n=6, p=5, seed=2)
        same, rec = mask_fraction(data, 0.0, seed=3)
        assert np.array_equal(same.cells, data.cells) and len(rec) == 0
        gone, _ = mask_fraction(data, 1.0, seed=3)
        assert (gone.cells == 0).all()

    def test_applies_to_already_incomplete_data(self):
        cells = np.ones((20, 10), dtype=np.int64)
        cells[::3, 0] = 2
        cells[:13, 1] = 0  # 13 cells already missing
        data = Dataset(CategoricalSchema([2] * 10), cells)
        masked, rec = mask_fraction(data, 0.4, seed=4)
        assert len(rec) == round(0.4 * 187)
        assert (masked.cells == 0).sum() == 13 + 75
        assert (rec.values > 0).all()

    def test_two_stage_masking_arithmetic(self):
        data, _ = sample_mixture_dataset(n=100, p=10, seed=5)
        once, rec1 = mask_fraction(data, 0.0135, seed=6)
        assert len(rec1) == 14  # round(13.5)
        twice, rec2 = mask_fraction(once, 0.4, seed=7)
        assert len(rec2) == round(0.4 * 986)
        assert (twice.cells == 0).sum() == 14 + 394

    def test_deterministic_and_validated(self):
        data, _ = sample_mixture_dataset(n=10, p=10, seed=8)
        a, _ = mask_fraction(data, 0.3, seed=9)
        b, _ = mask_fraction(data, 0.3, seed=9)
        assert np.array_equal(a.cells, b.cells)
        with pytest.raises(ValueError, match="fraction"):
            mask_fraction(data, 1.2)


class TestMaskResult:
    def test_validates_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            MaskResult([0, 1], [0], [1, 2], n_total_cells=4)

    def test_fraction_and_pairs(self):
        rec = MaskResult([0, 1], [2, 3], [1, 2], n_total_cells=8)
        assert len(rec) == 2
        assert rec.fraction == 0.25
        assert rec.pairs() == {(0, 2), (1, 3)}


class TestParseRatingsCsv:
    def test_parses_triples(self):
        text = "user,item,rating\n1,10,3.5\n2,11,0.5\n"
        assert parse_ratings_csv(text) == [(1, 10, 3.5), (2, 11, 0.5)]

    def test_ignores_extra_columns_and_keeps_string_ids(self):
        text = "u,i,r,ts\nalice,m1,4.0,999\n"
        assert parse_ratings_csv(text) == [("alice", "m1", 4.0)]

    def test_rejects_short_lines_and_bad_ratings(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_ratings_csv("u,i,r\n1,2\n")
        with pytest.raises(ParseError, match="not a number"):
            parse_ratings_csv("u,i,r\n1,2,good\n")
        # blank lines count, so the message names the file's own line
        with pytest.raises(ParseError, match="line 3: expected at least 3"):
            parse_ratings_csv("u,i,r\n\n1,2\n")
        with pytest.raises(ParseError,
                           match="line 5: rating 'good' is not a number"):
            parse_ratings_csv("\nu,i,r\n1,2,3\n\n1,2,good\n")
        with pytest.raises(ParseError, match="empty"):
            parse_ratings_csv("")


class TestPreprocessRatings:
    def test_binary_coding_at_the_default_cutoff(self):
        triples = [(1, 1, 3.5), (1, 2, 3.0), (2, 1, 2.5), (2, 2, 5.0)]
        data = preprocess_ratings(triples, item_threshold=0.0,
                                  user_threshold=0.0)
        assert data.cells.tolist() == [[2, 2], [1, 2]]
        assert data.schema.cardinalities == (2, 2)

    def test_five_category_coding_rounds_up(self):
        triples = [(1, 1, 3.5), (1, 2, 0.5), (2, 1, 5.0), (2, 2, 4.5)]
        data = preprocess_ratings(triples, item_threshold=0.0,
                                  user_threshold=0.0, coding="five")
        assert data.cells.tolist() == [[4, 1], [5, 5]]
        assert data.schema.cardinalities == (5, 5)

    def test_custom_cutoff(self):
        triples = [(1, 1, 3.5), (2, 1, 4.0)]
        data = preprocess_ratings(triples, item_threshold=0.0,
                                  user_threshold=0.0, cutoff=4.0)
        assert data.cells.ravel().tolist() == [1, 2]

    def test_item_filter_is_strict(self):
        # four users; item 9 is rated by exactly 25% of them and must go
        triples = [(u, 1, 4.0) for u in (1, 2, 3, 4)]
        triples += [(u, 2, 4.0) for u in (1, 2, 3, 4)]
        triples.append((1, 9, 4.0))
        data = preprocess_ratings(triples)
        assert data.column_names == ("1", "2")
        assert data.cells.shape == (4, 2)

    def test_user_filter_is_strict(self):
        # user 3 rates exactly 50% of the kept items at threshold 0.5
        triples = [(1, 1, 4.0), (1, 2, 4.0), (2, 1, 4.0), (2, 2, 4.0),
                   (3, 1, 4.0)]
        data = preprocess_ratings(triples, item_threshold=0.0,
                                  user_threshold=0.5)
        assert data.cells.shape == (2, 2)
        assert data.n_missing() == 0

    def test_unrated_cells_become_missing(self):
        triples = [(1, 1, 4.0), (1, 2, 4.0), (1, 3, 4.0),
                   (2, 1, 4.0), (2, 2, 4.0),
                   (3, 1, 4.0), (3, 2, 4.0), (3, 3, 2.0)]
        data = preprocess_ratings(triples, item_threshold=0.0,
                                  user_threshold=0.6)
        assert data.cells.tolist() == [[2, 2, 2], [2, 2, 0], [2, 2, 1]]

    def test_last_duplicate_wins(self):
        triples = [(1, 1, 1.0), (2, 1, 1.0), (1, 1, 5.0)]
        data = preprocess_ratings(triples, item_threshold=0.0,
                                  user_threshold=0.0)
        assert data.cells.tolist() == [[2], [1]]

    def test_rows_and_columns_sort_by_identifier(self):
        triples = [(7, "b", 4.0), (3, "b", 1.0), (7, "a", 1.0), (3, "a", 4.0)]
        data = preprocess_ratings(triples, item_threshold=0.0,
                                  user_threshold=0.0)
        assert data.column_names == ("a", "b")
        assert data.cells.tolist() == [[2, 1], [1, 2]]

    def test_rejects_off_scale_ratings(self):
        for bad in (0.0, 0.3, 3.25, 5.5):
            with pytest.raises(ValueError, match="half-star"):
                preprocess_ratings([(1, 1, bad)])

    def test_rejects_empty_and_overfiltered_input(self):
        with pytest.raises(ValueError, match="no ratings"):
            preprocess_ratings([])
        with pytest.raises(ValueError, match="no item"):
            preprocess_ratings([(1, 1, 4.0), (2, 2, 4.0)],
                               item_threshold=0.9)

    def test_rejects_unknown_coding(self):
        with pytest.raises(ValueError, match="coding"):
            preprocess_ratings([(1, 1, 4.0)], coding="ternary")
        with pytest.raises(ValueError, match="coding"):
            preprocess_ratings([(1, 1, 4.0)], coding="fiveCategory")
