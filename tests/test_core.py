import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmix
from catmix import cli, core, inference, metrics, sampler, synth
from catmix.core import (
    DEFAULT_CELL_LIMIT,
    CategoricalSchema,
    CollapsedModel,
    Dataset,
    JointDistribution,
    LoadError,
    MissingnessTable,
    ModelState,
    ParseError,
    dataset_to_csv,
    deserialize_models,
    padded_dirichlet,
    parse_dataset,
    serialize_models,
)


class TestCategoricalSchema:
    def test_offsets_lay_the_codes_flat(self):
        s = CategoricalSchema([3, 2, 5])
        assert s.offsets(1).tolist() == [0, 4, 7, 13]
        assert s.offsets(0).tolist() == [0, 3, 5, 10]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_segment_sums_sum_each_variable_in_order(self, extra):
        s = CategoricalSchema([3, 9, 3, 12, 2])
        a = np.random.default_rng(0).random((4, int(s.offsets(extra)[-1])))
        starts = s.offsets(extra)
        want = np.stack([a[:, i:j].sum(axis=1)
                         for i, j in zip(starts[:-1], starts[1:])], axis=1)
        got = core.segment_sums(a, s, extra)
        np.testing.assert_allclose(got, want, rtol=1e-15)
        # a variable's row sums as a padded table's row of its own width
        for j, d in enumerate(s.cardinalities):
            row = np.zeros((4, d + extra))
            row[:] = a[:, starts[j]:starts[j + 1]]
            assert got[:, j].tobytes() == row.sum(axis=1).tobytes()

    def test_basic(self):
        s = CategoricalSchema([2, 3, 2])
        assert s.n_variables == 3
        assert s.max_cardinality == 3
        assert s.n_cells() == 12

    def test_rejects_cardinality_below_two(self):
        with pytest.raises(ValueError, match="variable 1's cardinality must "
                                             "be >= 2, got 1"):
            CategoricalSchema([2, 1])
        for cards, bad in (([2.5, 3.9], "0's cardinality must be an integer, "
                                        "got 2.5"),
                           ([3, True], "1's cardinality must be an integer"),
                           ([np.float64(3)], "0's cardinality must be an "
                                             "integer")):
            with pytest.raises(ValueError, match=f"variable {bad}"):
                CategoricalSchema(cards)
        # numpy's integers are integers, and are stored as Python ints
        cards = CategoricalSchema(np.array([3, 2])).cardinalities
        assert cards == (3, 2) and {type(d) for d in cards} == {int}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CategoricalSchema([])


class TestDataset:
    def test_default_column_names(self):
        d = Dataset(CategoricalSchema([2, 2]), [[1, 2], [0, 1]])
        assert d.column_names == ("V1", "V2")
        assert d.n_rows == 2
        assert d.n_missing() == 1
        assert (d.cells != core.MISSING).tolist() == [[True, True],
                                                      [False, True]]

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError, match="0 .. d_j"):
            Dataset(CategoricalSchema([2, 2]), [[1, 3]])
        with pytest.raises(ValueError, match="0 .. d_j"):
            Dataset(CategoricalSchema([2, 2]), [[-1, 1]])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="columns"):
            Dataset(CategoricalSchema([2, 2]), [[1, 1, 1]])
        with pytest.raises(ValueError, match="must be 2-dimensional"):
            Dataset(CategoricalSchema([2, 2]), [1, 1])

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError, match="column names"):
            Dataset(CategoricalSchema([2, 2]), [[1, 1]], column_names=("a",))

    def test_cells_are_read_only(self):
        d = Dataset(CategoricalSchema([2]), [[1]])
        with pytest.raises(ValueError):
            d.cells[0, 0] = 2


class TestModelState:
    def _state(self):
        schema = CategoricalSchema([2])
        psi = np.array([[0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
        return ModelState(schema, [0, 1, 0], [2, 1], psi)

    def test_validate_accepts_consistent_state(self):
        self._state().validate()

    def test_validate_rejects_count_mismatch(self):
        s = self._state()
        bad = ModelState(s.schema, [0, 0, 0], s.counts, s.psi)
        with pytest.raises(ValueError, match="disagree"):
            bad.validate()

    @pytest.mark.parametrize("assignments, counts, message", [
        ([0, 0, 0], [3, 0], "every retained component must be occupied"),
        ([0, 1, 0], [2, 2], "component counts do not add up"),
        ([0, 2, 0], [2, 1], "assignments reference missing components"),
    ], ids=["empty", "total", "range"])
    def test_validate_rejects_broken_invariants(self, assignments, counts,
                                                message):
        bad = ModelState(self._state().schema, assignments, counts,
                         self._state().psi)
        with pytest.raises(ValueError, match=message):
            bad.validate()

    def test_validate_rejects_unnormalized_psi(self):
        s = self._state()
        psi = np.array(s.psi)
        psi[0, 1] += 0.1
        with pytest.raises(ValueError, match="sum to 1"):
            ModelState(s.schema, s.assignments, s.counts, psi).validate()

    def test_validate_rejects_the_padded_layout(self):
        # psi lays the codes of every variable flat, with no padding
        schema = CategoricalSchema([2, 3])
        psi = np.zeros((1, 2, 4))
        psi[0, 0, :3] = [0.2, 0.4, 0.4]
        psi[0, 1] = 0.25
        state = ModelState(schema, [0], [1], psi)
        with pytest.raises(ValueError, match=r"shape \(1, 2, 4\), expected \(1, 7\)"):
            state.validate()

    def test_validate_rejects_wrong_width(self):
        schema = CategoricalSchema([2, 3])
        for width in (6, 8):
            psi = np.full((1, width), 1 / 3)
            with pytest.raises(ValueError, match=r"expected \(1, 7\)"):
                ModelState(schema, [0], [1], psi).validate()

    def test_validate_rejects_a_segment_that_does_not_sum_to_one(self):
        # the row sums to 2 = p, but mass moved from variable 0's codes
        # to variable 1's
        schema = CategoricalSchema([2, 3])
        psi = np.array([[0.2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3]])
        with pytest.raises(ValueError, match="variable 0 do not sum to 1"):
            ModelState(schema, [0], [1], psi).validate()


class TestCollapsedModel:
    def test_rejects_bad_theta_sum(self):
        schema = CategoricalSchema([2])
        for theta in ([0.6, 0.6], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="theta"):
                CollapsedModel(schema, theta, np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="theta must be a nonempty vector"):
            CollapsedModel(schema, [], np.zeros((0, 2)))

    def test_rejects_bad_row_sum(self):
        schema = CategoricalSchema([2])
        with pytest.raises(ValueError, match="sum to 1"):
            CollapsedModel(schema, [1.0], np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError, match="finite"):
            CollapsedModel(schema, [1.0], np.array([[np.nan, 1.0]]))

    def test_rejects_the_padded_layout(self):
        schema = CategoricalSchema([2, 3])
        tilde = np.full((1, 2, 3), 1 / 3)
        tilde[0, 0] = [0.5, 0.5, 0.0]
        with pytest.raises(ValueError, match=r"probs has shape \(1, 2, 3\), "
                                             r"expected \(1, 5\)"):
            CollapsedModel(schema, [1.0], tilde)
        # the right width, but mass moved from variable 1 to variable 0
        with pytest.raises(ValueError, match="variable 0 do not sum to 1"):
            CollapsedModel(schema, [1.0], [[0.5, 0.6, 0.3, 0.3, 0.3]])

    def test_tilde_psi_pads_a_read_only_copy(self):
        schema = CategoricalSchema([2, 3])
        probs = np.asfortranarray([[0.5, 0.5, 0.2, 0.3, 0.5],
                                   [1.0, 0.0, 0.0, 0.0, 1.0]])
        m = CollapsedModel(schema, [0.5, 0.5], probs)
        assert m.tilde_psi.tolist() == [[[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]],
                                        [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]
        assert not m.tilde_psi.flags.writeable
        # the table is stored in C order whatever order it came in
        assert m.probs.flags.c_contiguous


class TestJointDistribution:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            JointDistribution(CategoricalSchema([2, 2]), np.full((2, 3), 0.25))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            JointDistribution(CategoricalSchema([2]), np.array([0.6, 0.6]))
        with pytest.raises(ValueError, match="finite"):
            JointDistribution(CategoricalSchema([2]), np.array([np.nan, 1.0]))

    def test_rejects_tables_over_the_cell_limit(self):
        # nine 7-level variables span 7**9 = 40,353,607 cells; the refusal
        # comes before the table's shape is even looked at
        schema = CategoricalSchema([7] * 9)
        assert schema.n_cells() > DEFAULT_CELL_LIMIT
        with pytest.raises(ValueError, match="limit is 10000000"):
            JointDistribution(schema, np.ones(1))


class TestMissingnessTable:
    def test_shape_and_range(self):
        schema = CategoricalSchema([2, 2])
        MissingnessTable(schema, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="shape"):
            MissingnessTable(schema, np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MissingnessTable(schema, np.full((2, 2, 2), 1.5))
        q = np.zeros((2, 2, 2))
        q[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MissingnessTable(schema, q)


_ONE = CategoricalSchema([2])


@pytest.mark.parametrize("make, fields", [
    (lambda: Dataset(_ONE, [[1]]), ("cells",)),
    (lambda: ModelState(_ONE, [0], [1], [[0.2, 0.3, 0.5]]),
     ("assignments", "counts", "psi")),
    (lambda: CollapsedModel(_ONE, [1.0], [[0.4, 0.6]]),
     ("theta", "probs")),
    (lambda: JointDistribution(_ONE, [0.3, 0.7]), ("table",)),
    (lambda: MissingnessTable(_ONE, [[0.1, 0.2]]), ("q",)),
    (lambda: inference.AugmentedModel(_ONE, [1.0], [[0.1, 0.3, 0.6]]),
     ("theta", "psi")),
    (lambda: synth.MaskResult([0], [0], [1], n_total_cells=1),
     ("rows", "cols", "values")),
], ids=["Dataset", "ModelState", "CollapsedModel", "JointDistribution",
        "MissingnessTable", "AugmentedModel", "MaskResult"])
def test_record_arrays_are_read_only(make, fields):
    record = make()
    for name in fields:
        a = getattr(record, name)
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


class TestParseDataset:
    def test_na_and_schema(self):
        d = parse_dataset("a,b\n1,NA\n2,1", CategoricalSchema([2, 2]))
        assert d.cells.tolist() == [[1, 0], [2, 1]]
        assert d.column_names == ("a", "b")

    def test_na_is_case_insensitive_and_blank_counts(self):
        d = parse_dataset("a,b\n1,na\n,2", CategoricalSchema([2, 2]))
        assert d.cells.tolist() == [[1, 0], [0, 2]]

    def test_complete_data(self):
        d = parse_dataset("a,b\n2,2\n1,1", CategoricalSchema([2, 2]))
        assert d.cells.tolist() == [[2, 2], [1, 1]]
        assert d.n_missing() == 0

    def test_inference_of_cardinalities(self):
        d = parse_dataset("a,b\n1,3\n2,NA")
        assert d.schema.cardinalities == (2, 3)

    def test_inference_rejects_constant_column(self):
        with pytest.raises(ParseError, match="a"):
            parse_dataset("a\n1\n1")

    def test_rejects_ragged_row(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_dataset("a,b\n1,1\n1")
        # blank lines count, so the message names the file's own line
        with pytest.raises(ParseError, match="line 5: expected 2 fields"):
            parse_dataset("\na,b\n1,1\n\n1")

    def test_rejects_non_integer(self):
        with pytest.raises(ParseError, match="'x'"):
            parse_dataset("a\nx\n2")
        with pytest.raises(ParseError,
                           match="line 5, column 'a': 'x' is not an integer"):
            parse_dataset("a,b\n1,2\n\n\nx,3\n")

    def test_rejects_code_above_cardinality(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse_dataset("a\n1\n3", CategoricalSchema([2]))
        with pytest.raises(ParseError, match="line 5, column 'a': code 3 "
                                             "exceeds cardinality 2"):
            parse_dataset("a\n\n1\n\n3\n1", CategoricalSchema([2]))

    def test_rejects_a_code_beyond_int64(self):
        with pytest.raises(ParseError, match="^line 3, column 'b': code "
                                             "99999999999999999999 does not "
                                             "fit in 64 bits$"):
            parse_dataset("a,b\n1,2\n2, 99999999999999999999\n")
        # the largest int64 is a code, if a useless one, and renders as
        # one without a lookup table as long as the codes
        text = f"a\n1\n{2 ** 63 - 1}\n"
        assert dataset_to_csv(parse_dataset(text)) == text

    def test_a_wide_table_is_split_a_few_lines_at_a_time(self):
        # 40 lines of 10,000 fields: the fields of all of them at once
        # would take more than twice the memory of the code array
        rng = np.random.default_rng(0)
        rows = rng.integers(1, 4, (40, 10_000)).tolist()
        text = ",".join(f"c{j}" for j in range(10_000)) + "\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows)
        tracemalloc.start()
        try:
            data = parse_dataset(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.cells.tolist() == rows
        assert peak < 2 * data.cells.nbytes

    def test_rejects_literal_zero(self):
        with pytest.raises(ParseError, match="NA"):
            parse_dataset("a\n0\n1")
        with pytest.raises(ParseError, match="line 4, column 'a': codes"):
            parse_dataset("a\n1\n\n0")

    def test_rejects_empty_document(self):
        with pytest.raises(ParseError, match="empty"):
            parse_dataset("  \n ")

    def test_rejects_header_schema_mismatch(self):
        with pytest.raises(ParseError, match="header"):
            parse_dataset("a,b\n1,1", CategoricalSchema([2]))

    def test_csv_round_trip_is_canonical(self):
        text = "a,b\n1,NA\n2,1\n"
        d = parse_dataset(text, CategoricalSchema([2, 2]))
        assert dataset_to_csv(d) == text
        again = parse_dataset(dataset_to_csv(d), d.schema)
        assert np.array_equal(again.cells, d.cells)
        assert again.column_names == d.column_names


class _Unseekable(io.StringIO):
    """A text stream that, like a pipe, cannot go back."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("underlying stream is not seekable")


def _random_model(rng, k=3, cards=(2, 3)):
    schema = CategoricalSchema(cards)
    theta = rng.dirichlet(np.ones(k))
    probs = [rng.dirichlet(np.ones(d), size=k) for d in cards]
    return CollapsedModel(schema, theta, np.concatenate(probs, axis=1))


class TestModelSerialization:
    def test_minimal_round_trip(self):
        m = CollapsedModel(CategoricalSchema([2]), [1.0], np.array([[0.5, 0.5]]))
        again = deserialize_models(serialize_models([m]))[0]
        assert np.array_equal(again.theta, m.theta)
        assert np.array_equal(again.probs, m.probs)

    def test_round_trip_is_bit_exact(self):
        m = _random_model(np.random.default_rng(7))
        again = deserialize_models(serialize_models([m]))[0]
        assert again.schema.cardinalities == m.schema.cardinalities
        assert np.array_equal(again.theta, m.theta)
        assert np.array_equal(again.probs, m.probs)

    def test_ragged_document_hides_padding(self):
        m = _random_model(np.random.default_rng(1), cards=(2, 3))
        obj = json.loads(serialize_models([m]))["draws"][0]
        assert [len(v) for v in obj["tildePsi"][0]] == [2, 3]

    def test_rejects_theta_sum_violation(self):
        doc = json.dumps({
            "k": 2, "cardinalities": [2],
            "theta": [0.6, 0.6],
            "tildePsi": [[[0.5, 0.5]], [[0.5, 0.5]]],
        })
        with pytest.raises(LoadError, match="theta"):
            deserialize_models(doc)

    def test_rejects_vector_sum_violation(self):
        doc = json.dumps({
            "k": 1, "cardinalities": [2],
            "theta": [1.0],
            "tildePsi": [[[0.5, 0.5 + 1e-6]]],
        })
        with pytest.raises(LoadError):
            deserialize_models(doc)

    def test_accepts_tiny_sum_slack(self):
        doc = json.dumps({
            "k": 1, "cardinalities": [2],
            "theta": [1.0],
            "tildePsi": [[[0.5, 0.5 + 1e-10]]],
        })
        deserialize_models(doc)

    def test_rejects_negative_entries(self):
        doc = json.dumps({
            "k": 1, "cardinalities": [2],
            "theta": [1.0],
            "tildePsi": [[[-0.5, 1.5]]],
        })
        with pytest.raises(LoadError):
            deserialize_models(doc)

    def test_rejects_malformed_json(self):
        with pytest.raises(LoadError, match="JSON"):
            deserialize_models("{not json")

    def test_rejects_missing_keys_and_bad_shapes(self):
        with pytest.raises(LoadError, match="required key"):
            deserialize_models(json.dumps({"k": 1}))
        with pytest.raises(LoadError, match="length k"):
            deserialize_models(json.dumps({
                "k": 2, "cardinalities": [2], "theta": [1.0],
                "tildePsi": [[[0.5, 0.5]]],
            }))
        with pytest.raises(LoadError, match="entries"):
            deserialize_models(json.dumps({
                "k": 1, "cardinalities": [3], "theta": [1.0],
                "tildePsi": [[[0.5, 0.5]]],
            }))
        with pytest.raises(LoadError, match="^tildePsi must be a list of "
                                            "length k=2$"):
            deserialize_models(json.dumps({
                "k": 2, "cardinalities": [2], "theta": [0.5, 0.5],
                "tildePsi": [[[0.5, 0.5]]],
            }))
        with pytest.raises(LoadError, match="^'draws' must be a list$"):
            deserialize_models('{"draws": 5}')

    def test_models_document_round_trip(self):
        rng = np.random.default_rng(3)
        models = [_random_model(rng, k=2), _random_model(rng, k=4)]
        again = deserialize_models(serialize_models(models))
        assert len(again) == 2
        for a, b in zip(again, models):
            assert np.array_equal(a.theta, b.theta)
            assert np.array_equal(a.probs, b.probs)

    def test_written_document_is_the_serialized_one(self, tmp_path):
        # catmix fit streams the draws document into its model file
        rng = np.random.default_rng(4)
        cells = rng.integers(1, 4, size=(30, 3))
        cells[rng.random(cells.shape) < 0.2] = 0
        table = tmp_path / "data.csv"
        table.write_text(dataset_to_csv(Dataset(CategoricalSchema([3] * 3),
                                                cells)))
        out = tmp_path / "model.json"
        assert cli.main(["fit", str(table), "--out", str(out), "--seed", "4",
                         "--burnin", "5", "--samples", "6", "--thin", "1",
                         "--progress-every", "0"]) == 0
        draws = sampler.run_gibbs(
            parse_dataset(table.read_text()),
            sampler.GibbsConfig(burnin=5, samples=6, thin=1), seed=4)
        assert out.read_text() == serialize_models(draws)

    def test_single_model_document_loads_as_one_draw(self):
        # a bare model, as earlier versions wrote a single model
        m = _random_model(np.random.default_rng(5))
        (loaded,) = deserialize_models(core._model_text(m) + "\n")
        assert loaded.theta.tobytes() == m.theta.tobytes()
        assert loaded.probs.tobytes() == m.probs.tobytes()

    def test_models_document_rejects_mixed_schemas(self):
        rng = np.random.default_rng(9)
        m1 = _random_model(rng, cards=(2, 2))
        m2 = _random_model(rng, cards=(2, 3))
        with pytest.raises(ValueError):
            serialize_models([m1, m2])

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_syntax_errors_are_worded_as_json_loads_words_them(
            self, monkeypatch, chunk):
        # the reader stops where it finds the error, but the message gives
        # the place in the whole text
        monkeypatch.setattr(core, "_CHUNK", chunk)
        rng = np.random.default_rng(6)
        good = serialize_models([_random_model(rng) for _ in range(3)])
        for text in (good[:len(good) // 2], good[:-3], good + "x",
                     good.replace("\n]}", ",\n]}"),
                     good.replace('"draws"', "draws"), "\ufeff" + good,
                     "", " \n", "{1: 2}", '{"draws" [1]}', "[1 2]"):
            with pytest.raises(json.JSONDecodeError) as expected:
                json.loads(text)
            with pytest.raises(LoadError) as err:
                deserialize_models(text)
            assert str(err.value) == f"invalid JSON: {expected.value}"

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_a_stream_that_cannot_seek_keeps_the_syntax_message(
            self, monkeypatch, chunk):
        # a pipe cannot be read twice: the message is worded from what the
        # reader dropped, for every cut of a document and for every
        # structural character deleted or replaced, on one line or many;
        # a draw spoilt into valid JSON is refused when it is reached
        monkeypatch.setattr(core, "_CHUNK", chunk)
        rng = np.random.default_rng(3)
        draws = [_random_model(rng, k=1, cards=(2,)) for _ in range(2)]
        texts = [serialize_models(draws),
                 json.dumps(json.loads(serialize_models(draws)))]
        for good in texts:
            cuts = [good[:i] for i in range(len(good))]
            spoilt = cuts + [
                good[:i] + new + good[i + 1:]
                for i, c in enumerate(good) if c in '{}[]:,"'
                for new in ("", "x")]
            for text in spoilt:
                try:
                    json.loads(text)
                    continue  # a deletion may leave valid JSON
                except json.JSONDecodeError as exc:
                    expected = f"invalid JSON: {exc}"
                for f in (io.StringIO(text), _Unseekable(text)):
                    with pytest.raises(LoadError) as err:
                        list(core._models(f))
                    if str(err.value).startswith("invalid JSON") or text in cuts:
                        assert str(err.value) == expected

    def test_a_bad_draw_is_reported_before_a_later_syntax_error(self):
        # the draws before the syntax error are decoded, and checked, first
        rng = np.random.default_rng(6)
        doc = json.loads(serialize_models([_random_model(rng) for _ in range(3)]))
        doc["draws"][1]["theta"][0] += 0.5
        text = json.dumps(doc, indent=2)[:-40]
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(LoadError, match="^theta sums to"):
            deserialize_models(text)
        with pytest.raises(LoadError, match="^need at least one posterior draw$"):
            deserialize_models('{"draws": [], "cardinalities": [2]')

    def test_a_key_named_twice_is_refused(self):
        # json.loads keeps the last value, but the draws of the first list
        # may already have been used
        one = core._model_text(_random_model(np.random.default_rng(2)))
        for text in (f'{{"draws": [{one}], "draws": [{one}]}}',
                     f'{{"draws": [{one}], "draws": 5}}',
                     '{"k": 1, "k": 1}'):
            key = "k" if text.startswith('{"k"') else "draws"
            with pytest.raises(LoadError) as err:
                deserialize_models(text)
            assert str(err.value) == f"model document names {key!r} twice"

    def test_a_string_is_read_as_it_stands(self):
        # carriage returns are white space, not translated, and a lone
        # surrogate in a key that no reader looks at is kept; a syntax
        # error is placed as json.loads places it in the string
        models = [_random_model(np.random.default_rng(h)) for h in (3, 4)]
        want = [(m.theta.tobytes(), m.probs.tobytes()) for m in models]
        crlf = serialize_models(models).replace("\n", "\r\n")
        lone = '{"x\ud800":1,' + crlf[1:]
        for text in (crlf, lone):
            assert [(m.theta.tobytes(), m.probs.tobytes())
                    for m in deserialize_models(text)] == want
        for text in (crlf[:-9], lone.replace(",\r\n", "\r\n", 1)):
            with pytest.raises(json.JSONDecodeError) as expected:
                json.loads(text)
            with pytest.raises(LoadError) as err:
                deserialize_models(text)
            assert str(err.value) == f"invalid JSON: {expected.value}"

    @pytest.mark.parametrize("size", [1, 2, 3, 64])
    def test_utf8_reader_reads_as_one_read_of_the_whole_file(self, size):
        # read a few bytes at a time, never seeking: the text is open's,
        # newlines translated, and a bad byte, a bad continuation or a
        # character cut short at the end is placed as one decode of the
        # whole file places it
        good = "é€\r\n𝄞 x\ray\r".encode()
        for data in (good, good + b"\xff", good[:5] + b"\xe2\x28" + good[5:],
                     good + "€".encode()[:2]):
            with core._Utf8(io.BytesIO(data)) as f:
                try:
                    want = io.TextIOWrapper(io.BytesIO(data), "utf-8").read()
                except UnicodeDecodeError as exc:
                    with pytest.raises(LoadError) as err:
                        while f.read(size):
                            pass
                    assert str(err.value) == str(exc)
                else:
                    parts = []
                    while part := f.read(size):
                        parts.append(part)
                    assert "".join(parts) == want


def _spiky_model(rng, k, cards):
    """A model whose vectors hold exact zeros, ones and tiny entries."""
    schema = CategoricalSchema(cards)
    probs = np.concatenate([rng.dirichlet(np.full(d, 0.02), size=k)
                            for d in cards], axis=1)
    probs[0, :2] = [1.0, 0.0]
    return CollapsedModel(schema, rng.dirichlet(np.full(k, 0.5)), probs)


def _oracle_dict(m):
    """The document of one model, built from its arrays for json.dumps."""
    starts = m.schema.offsets(0)
    return {
        "k": m.k,
        "cardinalities": list(m.schema.cardinalities),
        "theta": m.theta.tolist(),
        "tildePsi": [[m.probs[h, i:j].tolist()
                      for i, j in zip(starts[:-1], starts[1:])]
                     for h in range(m.k)],
    }


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class TestModelJsonLayout:
    """The model JSON is what json.dumps writes with compact separators,
    each draw of a draws document on a line of its own."""

    CARDS = (2, 100, 3, 17, 2, 5, 64)

    def _assert_draws_document(self, models):
        draws = [_oracle_dict(m) for m in models]
        text = serialize_models(models)
        assert text.replace("\n", "") == _compact(
            {"cardinalities": list(models[0].schema.cardinalities),
             "draws": draws})
        lines = text.split("\n")
        assert lines[1:-2] == [_compact(d) + "," for d in draws[:-1]] + [
            _compact(draws[-1])]
        assert lines[-2:] == ["]}", ""]

    def test_draws_of_several_k_match_json_dumps(self):
        rng = np.random.default_rng(12)
        self._assert_draws_document(
            [_spiky_model(rng, k, self.CARDS) for k in (3, 1, 3, 7, 1)])

    @pytest.mark.parametrize("k", [1, 4])
    def test_single_model_matches_json_dumps(self, k):
        m = _spiky_model(np.random.default_rng(k), k, self.CARDS)
        assert core._model_text(m) == _compact(_oracle_dict(m))
        self._assert_draws_document([m])

    def test_one_binary_variable(self):
        m = _random_model(np.random.default_rng(2), k=1, cards=(2,))
        self._assert_draws_document([m])

    def test_old_indented_files_load_as_the_compact_ones(self, tmp_path):
        # documents laid out as json.dumps(indent=2), as earlier versions
        # wrote them, read back as the same draws and impute alike
        rng = np.random.default_rng(5)
        cards = (2, 5, 3)
        models = [_random_model(rng, k, cards) for k in (2, 1, 3)]
        compact = serialize_models(models)
        old = json.dumps({"cardinalities": list(cards),
                          "draws": [_oracle_dict(m) for m in models]},
                         indent=2) + "\n"
        for a, b in zip(deserialize_models(old), deserialize_models(compact),
                        strict=True):
            assert a.theta.tobytes() == b.theta.tobytes()
            assert a.probs.tobytes() == b.probs.tobytes()
        cells = np.column_stack([rng.integers(0, d + 1, 60) for d in cards])
        table = tmp_path / "t.csv"
        table.write_text(dataset_to_csv(Dataset(CategoricalSchema(cards), cells)))
        outputs = []
        for name, text in (("old", old), ("compact", compact)):
            (tmp_path / f"{name}.json").write_text(text)
            out = tmp_path / f"{name}.csv"
            assert cli.main(["impute", str(table), str(tmp_path / f"{name}.json"),
                             "--out", str(out), "--rule", "sample",
                             "--seed", "3"]) == 0
            outputs.append((out.read_bytes(),
                            Path(f"{out}.cells.csv").read_bytes()))
        assert outputs[0] == outputs[1]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_model_round_trips_bit_exactly(seed):
    m = _random_model(np.random.default_rng(seed), k=1 + seed % 4)
    again = deserialize_models(serialize_models([m]))[0]
    assert np.array_equal(again.theta, m.theta)
    assert np.array_equal(again.probs, m.probs)


def test_padded_dirichlet_keeps_zero_concentrations_at_zero():
    rng = np.random.default_rng(0)
    conc = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 1.0]])
    draw = padded_dirichlet(conc, rng)
    assert draw[0, 2] == 0.0
    np.testing.assert_allclose(draw.sum(axis=1), 1.0, rtol=0, atol=1e-12)


#: The package surface: the names ``catmix`` re-exports.
PACKAGE_NAMES = {
    "AugmentedModel", "CategoricalSchema", "CollapsedModel",
    "ConstructionReport", "Dataset", "GibbsConfig", "ImputationResult",
    "JointDistribution", "LoadError", "MaskResult", "MechanismSpec",
    "MissingnessTable", "ModelState", "ParseError", "ReplicationReport",
    "class_posterior", "collapse_state", "construct_saturated_model",
    "correlation_gap", "correlation_matrix", "dataset_to_csv",
    "deserialize_models", "fisher_exact_2x2", "impute",
    "imputation_accuracy", "iterate_states", "joint_distribution",
    "k_histogram", "largest_remainder_counts", "mask", "mask_fraction",
    "modal_k", "pair_marginal", "pairwise_independence",
    "parse_dataset", "parse_ratings_csv", "predictive_cell",
    "preprocess_ratings", "pool_draws", "run_gibbs", "run_replications",
    "sample_mixture_dataset", "sample_xor_dataset", "saturated_model",
    "serialize_models", "verify_construction",
}


def test_package_surface_is_the_union_of_the_module_lists():
    modules = (core, sampler, inference, synth, metrics)
    assert len(PACKAGE_NAMES) == 46
    assert sorted(catmix.__all__) == sorted(PACKAGE_NAMES)
    for module in modules:
        for name in module.__all__:
            assert getattr(catmix, name) is getattr(module, name)
    # names kept off the package surface still import from their modules
    for module, name in [
            (core, "DEFAULT_CELL_LIMIT"), (core, "MISSING"),
            (core, "NA_TOKEN"), (core, "padded_dirichlet"),
            (core, "rescale_missing"), (core, "segment_sums"),
            (metrics, "PROTOCOLS"),
            (metrics, "simulate")]:
        assert name not in catmix.__all__ and hasattr(module, name)


# ---------------------------------------------------------------------------
# The array-level CSV and model readers and writers against the per-line,
# per-vector and per-cell code they replaced, kept here as references
# ---------------------------------------------------------------------------

def _reference_parse(text, schema=None):
    """parse_dataset as it read a document line by line and field by
    field, with a code beyond int64 refused as the token table refuses it
    (the line loop raised OverflowError there)."""
    records = core._csv_records(text)
    if not records:
        raise ParseError("document is empty")
    names = [f.strip() for f in records[0][1].split(",")]
    p = len(names)
    if schema is not None and schema.n_variables != p:
        raise ParseError(
            f"header has {p} columns but schema has "
            f"{schema.n_variables} variables"
        )
    rows = np.zeros((len(records) - 1, p), dtype=np.int64)
    for r, (i, ln) in enumerate(records[1:]):
        fields = [f.strip() for f in ln.split(",")]
        if len(fields) != p:
            raise ParseError(
                f"line {i}: expected {p} fields, found {len(fields)}"
            )
        for j, f in enumerate(fields):
            if f == "" or f.upper() == "NA":
                continue
            try:
                code = int(f)
            except ValueError:
                raise ParseError(
                    f"line {i}, column {names[j]!r}: {f!r} is not an integer"
                ) from None
            if code <= 0:
                raise ParseError(
                    f"line {i}, column {names[j]!r}: codes must be positive, "
                    f"use NA for missing entries"
                )
            if code > np.iinfo(np.int64).max:
                raise ParseError(f"line {i}, column {names[j]!r}: code {f} "
                                 "does not fit in 64 bits")
            rows[r, j] = code
    if schema is None:
        cards = rows.max(axis=0, initial=0)
        bad = [names[j] for j in np.nonzero(cards < 2)[0]]
        if bad:
            raise ParseError(
                "cannot infer cardinalities for column(s) "
                f"{', '.join(bad)}; supply a schema"
            )
        schema = CategoricalSchema(cards.tolist())
    else:
        limit = schema.codes_array()
        over = rows > limit[None, :]
        if rows.size and over.any():
            r, j = np.argwhere(over)[0]
            raise ParseError(
                f"line {records[r + 1][0]}, column {names[j]!r}: "
                f"code {rows[r, j]} exceeds cardinality {limit[j]}"
            )
    return Dataset(schema, rows, tuple(names))


def _reference_csv(dataset):
    """dataset_to_csv as it printed one tuple per row."""
    rows = (tuple("NA" if c == 0 else c for c in row)
            for row in dataset.cells.tolist())
    return core._csv(dataset.column_names, rows)


def _one_model(obj):
    """One parsed draw, read as the model file reader reads it."""
    return core._model_from_dict(obj, {})


def _reference_model_from_dict(obj):
    """_model_from_dict as it checked one vector at a time."""
    if not isinstance(obj, dict):
        raise LoadError(f"model document must be an object, got {type(obj).__name__}")
    for key in ("k", "cardinalities", "theta", "tildePsi"):
        if key not in obj:
            raise LoadError(f"model document lacks required key {key!r}")
    if not core._json_numbers(obj["cardinalities"], int):
        raise LoadError("cardinalities must be a list of integers")
    try:
        schema = CategoricalSchema(obj["cardinalities"])
    except ValueError as exc:
        raise LoadError(f"bad cardinalities: {exc}") from None
    k, theta, tilde = obj["k"], obj["theta"], obj["tildePsi"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise LoadError(f"k must be a positive integer, got {k!r}")
    if not core._json_numbers(theta) or len(theta) != k:
        raise LoadError(f"theta must be a list of finite numbers of length k={k}")
    if not isinstance(tilde, list) or len(tilde) != k:
        raise LoadError(f"tildePsi must be a list of length k={k}")
    p = schema.n_variables
    for h, comp in enumerate(tilde):
        if not isinstance(comp, list) or len(comp) != p:
            raise LoadError(f"tildePsi[{h}] must list {p} variables")
        for j, (vec, d) in enumerate(zip(comp, schema.cardinalities)):
            if not core._json_numbers(vec) or len(vec) != d:
                raise LoadError(
                    f"tildePsi[{h}][{j}] must have {d} entries, all finite numbers"
                )
    flat = [[x for vec in comp for x in vec] for comp in tilde]
    try:
        return CollapsedModel(schema, np.asarray(theta, dtype=np.float64), flat)
    except (TypeError, ValueError) as exc:
        raise LoadError(str(exc)) from None


def _reference_cell_lines(names, schema, filled, posteriors):
    """The cell-posterior CSV as impute wrote it, one tuple per code."""
    cards = schema.cardinalities
    cells = ((i, names[j], c, prob)
             for (i, j), vec in zip(filled.tolist(), posteriors)
             for c, prob in enumerate(vec[:cards[j]].tolist(), start=1))
    return core._csv(("row", "column", "category", "probability"), cells)


def _draw_corpus(data):
    """Cardinalities and a list of draw documents over them, some of them
    spoilt: a bad entry, a short or long vector, a bad vector or
    component, or other cardinalities."""
    cards = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    draws = []
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        draws.append({
            "k": k, "cardinalities": list(cards),
            "theta": rng.dirichlet(np.ones(k)).tolist(),
            "tildePsi": [[rng.dirichlet(np.ones(d)).tolist() for d in cards]
                         for _ in range(k)]})
    bad = [True, False, math.nan, math.inf, "0.5", None, [0.5], {},
           10 ** 400, -10 ** 400, int(sys.float_info.max) + 1,
           sys.float_info.max, 1, 0, 0.5]
    for _ in range(data.draw(st.integers(0, 2))):
        doc = data.draw(st.sampled_from(draws))
        h = data.draw(st.integers(0, doc["k"] - 1))
        j = data.draw(st.integers(0, len(cards) - 1))
        how = data.draw(st.sampled_from(["entry", "short", "long",
                                         "vector", "component",
                                         "cardinalities"]))
        if how == "cardinalities":
            doc["cardinalities"] = data.draw(st.sampled_from([
                cards + [3], [1] + cards[1:], [2.5] + cards[1:],
                [True] + cards[1:], "22", [max(cards) + 1] * len(cards)]))
            continue
        comp = doc["tildePsi"][h]
        if not (isinstance(comp, list) and j < len(comp)
                and isinstance(comp[j], list) and comp[j]):
            continue  # broken by an earlier change
        vec = comp[j]
        if how == "entry":
            vec[data.draw(st.integers(0, len(vec) - 1))] = \
                data.draw(st.sampled_from(bad))
        elif how == "short":
            vec.pop()
        elif how == "long":
            vec.append(0.0)
        elif how == "vector":
            doc["tildePsi"][h][j] = data.draw(st.sampled_from(bad))
        else:
            doc["tildePsi"][h] = data.draw(st.sampled_from(
                [doc["tildePsi"][h][:-1], "ab", None, 3]))
    return cards, draws


def _outcome(read, *args):
    """What ``read(*args)`` returns or the error it raises, comparably."""
    try:
        return read(*args)
    except (ParseError, LoadError) as exc:
        return type(exc), str(exc)


#: Raw CSV fields, each meaning a code, a missing cell or an error.
FIELDS = ["1", "2", "3", " 2 ", "\t1", "12", "007", "NA", "na", "Na", " nA ",
          "", " ", "+2", "1_0", "0", " 0", "-1", "1.0", "x", " x ", "1e3",
          "NaN",
          "99999999999999999999", "-99999999999999999999",
          str(2 ** 63 - 1), str(2 ** 63)]


@st.composite
def csv_documents(draw):
    """A header of p names, then lines of p fields (now and then one more
    or one fewer), with blank lines among them, and maybe a schema."""
    p = draw(st.integers(1, 4))
    lines = [",".join(f"c{j}" for j in range(p))]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        width = p + draw(st.sampled_from([0] * 8 + [-1, 1]))
        lines.append(",".join(draw(st.lists(st.sampled_from(FIELDS),
                                            min_size=width, max_size=width))))
    schema = None
    if draw(st.booleans()):
        schema = CategoricalSchema(draw(st.lists(st.integers(2, 12),
                                                 min_size=p, max_size=p)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])), schema


def _dataset_outcome(read, text, schema):
    out = _outcome(read, text, schema)
    if isinstance(out, Dataset):
        return (out.cells.tolist(), out.schema.cardinalities,
                out.column_names, dataset_to_csv(out), _reference_csv(out))
    return out


class TestReadersAgainstReferences:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(csv_documents())
    def test_token_table_parses_as_the_line_loop(self, document):
        text, schema = document
        ours = _dataset_outcome(parse_dataset, text, schema)
        assert ours == _dataset_outcome(_reference_parse, text, schema)
        if not isinstance(ours[0], type):
            # the block renderer writes what the tuple renderer wrote
            assert ours[3] == ours[4]

    @pytest.mark.parametrize("text, message", [
        ("a,b\nx,1\n1\n", "line 2, column 'a': 'x' is not an integer"),
        ("a,b\n1\nx,1\n", "line 2: expected 2 fields, found 1"),
        ("a,b\n1,1\n1,2,0\n\n-1,1\n", "line 3: expected 2 fields, found 3"),
        ("a,b\n1,1\n\n1,-1\n1\n", "line 4, column 'b': codes must be positive"),
        ("a\n1\n" * 1 + "1\n" * 300 + "1,1\n",
         "line 303: expected 1 fields, found 2"),
        ("a,b\n" + "1,2\n" * 300 + "2,NA\n1,x\n",
         "line 303, column 'b': 'x' is not an integer"),
    ])
    def test_a_line_is_refused_after_the_cells_before_it(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert str(err.value).startswith(message)
        assert str(err.value) == str(_outcome(_reference_parse, text)[1])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_array_validation_loads_as_the_vector_loop(self, data):
        cards, draws = _draw_corpus(data)
        text = json.dumps({"cardinalities": cards, "draws": draws})

        def load(model_from_dict):
            draws = json.loads(text)["draws"]
            models = list(core._checked(map(model_from_dict, draws),
                                        LoadError, cards))
            return [(m.theta.tobytes(), m.probs.tobytes()) for m in models]

        def read():
            return [(m.theta.tobytes(), m.probs.tobytes())
                    for m in core.deserialize_models(text)]

        ours = _outcome(load, _one_model)
        assert ours == _outcome(load, _reference_model_from_dict)
        # the document reader, which checks each list of cardinalities once
        assert _outcome(read) == ours

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_chunked_reader_loads_as_json_loads(self, data):
        # the corpus above, with its keys in either order or no top-level
        # cardinalities, which may disagree with the draws, a bare number
        # among the draws, laid out flat or indented, and read a few
        # characters at a time, so that keys, numbers and draws span chunks
        cards, draws = _draw_corpus(data)
        if data.draw(st.booleans()):
            draws.insert(data.draw(st.integers(0, len(draws))),
                         data.draw(st.sampled_from([7, -1.5e300, 0.25])))
        listed = data.draw(st.sampled_from([cards, cards + [2]]))
        doc = data.draw(st.sampled_from([
            {"cardinalities": listed, "draws": draws},
            {"draws": draws, "cardinalities": listed}, {"draws": draws}]))
        text = json.dumps(doc, indent=data.draw(st.sampled_from([None, 2])))
        chunk = data.draw(st.sampled_from([1, 2, 5, 64]))

        def load():
            # a list of cardinalities after the draws is compared with
            # them once they have all been read
            obj = json.loads(text)
            given = obj.get("cardinalities")
            ahead = list(obj)[0] == "cardinalities"
            models = list(core._checked(map(_one_model, obj["draws"]),
                                        LoadError, given if ahead else None))
            if given not in (None, list(models[0].schema.cardinalities)):
                raise LoadError("draws disagree on cardinalities")
            return [(m.theta.tobytes(), m.probs.tobytes()) for m in models]

        def read():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_CHUNK", chunk)
                return [(m.theta.tobytes(), m.probs.tobytes())
                        for m in deserialize_models(text)]

        assert _outcome(read) == _outcome(load)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3),
                              st.integers(0, 2 ** 32 - 1)), max_size=600),
           st.lists(st.integers(2, 12), min_size=4, max_size=4),
           st.lists(st.text("ab%@,é ", min_size=1, max_size=4), min_size=4,
                    max_size=4))
    def test_block_renderer_writes_the_tuple_lines(self, cells, cards, names):
        schema = CategoricalSchema(cards)
        filled = np.array([(i, j) for i, j, _ in cells],
                          np.int64).reshape(-1, 2)
        posteriors = np.zeros((len(cells), schema.max_cardinality))
        for vec, (_, j, seed) in zip(posteriors, cells):
            d = cards[j]
            vec[:d] = np.random.default_rng(seed).dirichlet(np.full(d, 0.3))
            vec[seed % d] = [0.0, 1.0, 1e-300, 0.1][seed % 4]
        assert ("".join(core._cell_lines(names, schema, filled, posteriors))
                == _reference_cell_lines(names, schema, filled, posteriors))

    def test_cell_renderer_holds_far_less_than_the_file(self):
        rng = np.random.default_rng(0)
        schema = CategoricalSchema([4] * 5)
        filled = np.argwhere(np.ones((3000, 5), bool))
        posteriors = rng.dirichlet(np.ones(4), size=len(filled))
        names = [f"V{j + 1}" for j in range(5)]
        size = 0
        tracemalloc.start()
        try:
            for text in core._cell_lines(names, schema, filled, posteriors):
                size += len(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 1_500_000
        assert peak < size / 8
