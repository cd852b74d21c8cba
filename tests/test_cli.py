import gc
import json
import math
import os
import re
import shutil
import subprocess
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from catmix import cli, core, inference, metrics, sampler, synth
from catmix.core import (
    CategoricalSchema,
    CollapsedModel,
    Dataset,
    dataset_to_csv,
    deserialize_models,
    parse_dataset,
    serialize_model,
    serialize_models,
)
from catmix.metrics import run_replications
from catmix.sampler import GibbsConfig, run_gibbs
from catmix.synth import MechanismSpec, mask, sample_mixture_dataset

FAST = ["--burnin", "20", "--samples", "10", "--thin", "1"]
#: Each subcommand's required arguments, short of ``--out``.
REQUIRED = {"simulate": ["--protocol", "mixture"],
            "benchmark": ["--protocol", "mixture", "--reps", "1",
                          "--jobs", "1", *FAST],
            "preprocess-ratings": ["ratings.csv"]}


def _toy_csv(tmp_path, name="data.csv", missing=True):
    rng = np.random.default_rng(0)
    cells = rng.integers(1, 3, size=(12, 3))
    if missing:
        cells[rng.random(cells.shape) < 0.2] = 0
        cells[0, 0] = 0  # make sure at least one cell is missing
    data = Dataset(CategoricalSchema([2, 2, 2]), cells)
    path = tmp_path / name
    path.write_text(dataset_to_csv(data))
    return path


def _fit(tmp_path, inp, extra=(), name="model.json"):
    out = tmp_path / name
    rc = cli.main(["fit", str(inp), "--out", str(out), "--seed", "7",
                   *FAST, "--progress-every", "0", *extra])
    assert rc == 0
    return out


class TestFit:
    def test_writes_model_and_histogram(self, tmp_path, capsys):
        inp = _toy_csv(tmp_path)
        out = _fit(tmp_path, inp)
        draws = deserialize_models(out.read_text())
        assert len(draws) == 10
        hist = (tmp_path / "model.json.khist.csv").read_text().splitlines()
        assert hist[0] == "k,count"
        counts = [int(line.split(",")[1]) for line in hist[1:]]
        assert sum(counts) == 10
        assert "modal k=" in capsys.readouterr().err

    def test_reproducible_byte_for_byte(self, tmp_path):
        inp = _toy_csv(tmp_path)
        a = _fit(tmp_path, inp, name="a.json")
        b = _fit(tmp_path, inp, name="b.json")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.khist.csv").read_bytes() == \
            (tmp_path / "b.json.khist.csv").read_bytes()

    def test_summary_pools_into_one_model(self, tmp_path):
        inp = _toy_csv(tmp_path)
        out = _fit(tmp_path, inp, extra=["--summary"])
        model = deserialize_models(out.read_text())[0]
        assert isinstance(model, CollapsedModel)
        assert len(deserialize_models(out.read_text())) == 1

    def test_custom_histogram_path(self, tmp_path):
        inp = _toy_csv(tmp_path)
        hist = tmp_path / "khist.csv"
        _fit(tmp_path, inp, extra=["--k-histogram", str(hist)])
        assert hist.exists()

    def test_schema_flag_rescues_constant_columns(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("a,b\n1,1\n2,1\n1,1\n2,1\n")
        out = tmp_path / "m.json"
        rc = cli.main(["fit", str(path), "--out", str(out), *FAST,
                       "--progress-every", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        rc = cli.main(["fit", str(path), "--out", str(out), *FAST,
                       "--schema", "2,2", "--progress-every", "0"])
        assert rc == 0

    def test_rejects_nonpositive_alpha_at_the_flag(self, tmp_path):
        inp = _toy_csv(tmp_path)
        with pytest.raises(SystemExit) as err:
            cli.main(["fit", str(inp), "--out", "x.json", "--alpha", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_infinite_prior_fails_cleanly(self, tmp_path, capsys, flag):
        inp = _toy_csv(tmp_path)
        out = tmp_path / "x.json"
        rc = cli.main(["fit", str(inp), "--out", str(out), flag, "inf"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("beta, message", [
        ("1e308", "beta must be at most 1e+300, got 1e+308"),
        ("0.005", "beta must be at least 0.01, got 0.005"),
    ], ids=["1e308", "0.005"])
    def test_huge_beta_is_refused_with_its_bound(self, tmp_path, capsys,
                                                 beta, message):
        inp = tmp_path / "sim.csv"
        rc = cli.main(["simulate", "--protocol", "mixture", "--n", "30",
                       "--p", "5", "--seed", "0", "--out", str(inp)])
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["fit", str(inp), "--out", str(out),
                           "--beta", beta])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_unwritable_out_is_named_as_given(self, tmp_path, capsys):
        inp = _toy_csv(tmp_path)
        out = tmp_path / "nodir" / "x.json"
        rc = cli.main(["fit", str(inp), "--out", str(out), *FAST,
                       "--progress-every", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    @pytest.mark.parametrize("summary", [[], ["--summary"]],
                             ids=["draws", "summary"])
    @pytest.mark.parametrize("flag", ["--out", "--k-histogram"])
    def test_unwritable_output_is_refused_before_any_sweep(
            self, tmp_path, capsys, monkeypatch, flag, summary):
        def no_sweeps(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(sampler._Chain, "sweep", no_sweeps)
        inp = _toy_csv(tmp_path)
        missing = tmp_path / "nodir" / "x.csv"
        outputs = {"--out": str(tmp_path / "m.json"),
                   "--k-histogram": str(tmp_path / "k.csv"), flag: str(missing)}
        rc = cli.main(["fit", str(inp), *FAST, *summary,
                       *[a for pair in outputs.items() for a in pair]])
        assert rc == 1
        # no model is left beside a histogram that could not be written
        assert capsys.readouterr().err == (
            f"error: cannot write {missing}: No such file or directory\n")
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_one_path_for_two_outputs_is_refused_before_any_sweep(
            self, tmp_path, capsys, monkeypatch, spelling):
        def no_sweeps(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(sampler._Chain, "sweep", no_sweeps)
        inp = _toy_csv(tmp_path)
        out = str(tmp_path / "m.json")
        again = out if spelling == "same" else f"{tmp_path}/./m.json"
        rc = cli.main(["fit", str(inp), *FAST, "--out", out,
                       "--k-histogram", again])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: one file named as two outputs: {out}, {again}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    @pytest.mark.parametrize("slash", ["", "/"], ids=["dir", "dir-slash"])
    def test_directory_out_is_refused_before_any_sweep(self, tmp_path,
                                                       capsys, slash):
        inp = _toy_csv(tmp_path)
        (tmp_path / "m").mkdir()
        out = f"{tmp_path / 'm'}{slash}"
        rc = cli.main(["fit", str(inp), "--out", out, *FAST,
                       "--progress-every", "1"])
        assert rc == 1
        # one error line, and no sweep ran before it
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: Is a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "m"]
        assert not list((tmp_path / "m").iterdir())

    def test_memory_does_not_grow_with_samples(self, tmp_path):
        # a held draw is (k, 2, 100) floats, so holding the 360 more
        # draws would add about 1 MB here
        cards = [2, 100]
        rng = np.random.default_rng(1)
        cells = rng.integers(1, np.array(cards) + 1, size=(40, 2))
        cells[rng.random(cells.shape) < 0.2] = 0
        inp = tmp_path / "wide.csv"
        inp.write_text(dataset_to_csv(Dataset(CategoricalSchema(cards), cells)))

        def peak(samples):
            tracemalloc.start()
            try:
                assert cli.main([
                    "fit", str(inp), "--out", str(tmp_path / "m.json"),
                    "--schema", "2,100", "--burnin", "5", "--thin", "1",
                    "--samples", str(samples), "--seed", "0",
                    "--progress-every", "0"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(40), peak(400)
        assert len(deserialize_models((tmp_path / "m.json").read_text())) == 400
        assert many < few + 100_000

    def test_progress_lines(self, tmp_path, capsys):
        inp = _toy_csv(tmp_path)
        rc = cli.main(["fit", str(inp), "--out", str(tmp_path / "m.json"),
                       "--seed", "0", "--burnin", "1", "--samples", "2",
                       "--thin", "2", "--progress-every", "2"])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("fit: ")
        lines = lines[:-1]
        assert len(lines) == 3  # sweeps 2, 4 and the final 5
        assert all(re.fullmatch(r"sweep \d+/5 k=\d+", s) for s in lines)
        assert lines[-1].startswith("sweep 5/5")

    def test_progress_lines_report_the_live_component_count(self, tmp_path,
                                                            capsys):
        inp = _toy_csv(tmp_path)
        rc = cli.main(["fit", str(inp), "--out", str(tmp_path / "m.json"),
                       "--seed", "2", "--burnin", "0", "--samples", "6",
                       "--thin", "1", "--alpha", "5", "--progress-every", "1"])
        assert rc == 0
        draws = run_gibbs(parse_dataset(inp.read_text()),
                          GibbsConfig(burnin=0, samples=6, thin=1, alpha=5.0),
                          seed=2)
        assert capsys.readouterr().err.splitlines()[:-1] == [
            f"sweep {t}/6 k={m.k}" for t, m in enumerate(draws, start=1)]

    def test_rejects_bad_progress_interval(self, tmp_path, capsys,
                                           monkeypatch):
        def no_sweeps(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(sampler._Chain, "sweep", no_sweeps)
        inp = _toy_csv(tmp_path)
        for every, message in (("-1", "must be >= 0, got -1"),
                               ("1.5", "'1.5' is not an integer"),
                               ("True", "'True' is not an integer")):
            # refused before the first sweep runs
            with pytest.raises(SystemExit) as err:
                cli.main(["fit", str(inp), "--out", str(tmp_path / "m.json"),
                          "--progress-every", every])
            assert err.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1].endswith(
                f"argument --progress-every: {message}")
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    def test_help_states_the_progress_interval_default(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fit", "--help"])
        assert re.search(r"0 silences\s+\(default\s+50\)",
                         capsys.readouterr().out)

    def test_code_beyond_int64_is_one_error_line(self, tmp_path, capsys):
        inp = tmp_path / "big.csv"
        inp.write_text("a,b\n1,2\n2,99999999999999999999\n1,1\n")
        out = tmp_path / "x.json"
        rc = cli.main(["fit", str(inp), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: line 3, column 'b': code 99999999999999999999 does not "
            "fit in 64 bits"]
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        rc = cli.main(["fit", str(tmp_path / "nope.csv"), "--out", "x.json"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestImpute:
    def test_complete_input_round_trips(self, tmp_path):
        inp = _toy_csv(tmp_path, "complete.csv", missing=False)
        model = _fit(tmp_path, inp)
        out = tmp_path / "filled.csv"
        rc = cli.main(["impute", str(inp), str(model), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == inp.read_text()
        cells = (tmp_path / "filled.csv.cells.csv").read_text().splitlines()
        assert cells == ["row,column,category,probability"]

    def test_fills_every_missing_cell(self, tmp_path):
        inp = _toy_csv(tmp_path)
        model = _fit(tmp_path, inp)
        out = tmp_path / "filled.csv"
        post = tmp_path / "post.csv"
        rc = cli.main(["impute", str(inp), str(model), "--out", str(out),
                       "--cell-posterior", str(post)])
        assert rc == 0
        completed = parse_dataset(out.read_text(), CategoricalSchema([2, 2, 2]))
        original = parse_dataset(inp.read_text(), CategoricalSchema([2, 2, 2]))
        assert completed.n_missing() == 0
        obs = original.cells > 0
        assert np.array_equal(completed.cells[obs], original.cells[obs])

        lines = post.read_text().splitlines()
        assert lines[0] == "row,column,category,probability"
        # two rows per missing cell (binary variables), summing to 1
        assert len(lines) - 1 == 2 * original.n_missing()
        by_cell = {}
        for line in lines[1:]:
            row, col, cat, prob = line.split(",")
            assert col in ("V1", "V2", "V3")
            by_cell.setdefault((row, col), []).append(float(prob))
        for probs in by_cell.values():
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_sample_rule_reproducible(self, tmp_path):
        inp = _toy_csv(tmp_path)
        model = _fit(tmp_path, inp)
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            rc = cli.main(["impute", str(inp), str(model), "--out", str(out),
                           "--rule", "sample", "--seed", "3"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_schema_mismatch_fails_cleanly(self, tmp_path, capsys):
        inp = _toy_csv(tmp_path)
        model = _fit(tmp_path, inp)
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("a,b\n1,2\nNA,1\n")
        rc = cli.main(["impute", str(narrow), str(model), "--out",
                       str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_model_fails_cleanly(self, tmp_path, capsys):
        inp = _toy_csv(tmp_path)
        doc = json.loads(_fit(tmp_path, inp, ("--summary",)).read_text())
        doc["tildePsi"][0][1][0] = math.nan
        model = tmp_path / "nan.json"
        model.write_text(json.dumps(doc))
        assert "NaN" in model.read_text()
        capsys.readouterr()
        out = tmp_path / "x.csv"
        rc = cli.main(["impute", str(inp), str(model), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()
        assert not (tmp_path / "x.csv.cells.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("k", True),
        ("cardinalities", [2.9, 2, 2]),
        ("cardinalities", ["2", 2, 2]),
        ("theta", ["1.0"]),
        ("tildePsi", [[["0.5", 0.5], [0.5, 0.5], [0.5, 0.5]]]),
        ("tildePsi", [[[[0.5], 0.5], [0.5, 0.5], [0.5, 0.5]]]),
        # integers that no float holds
        ("theta", [10 ** 400]),
        ("tildePsi", [[[10 ** 400, 0.5], [0.5, 0.5], [0.5, 0.5]]]),
    ])
    def test_malformed_model_is_one_error_naming_its_key(
            self, tmp_path, capsys, key, value):
        # JSON integers and numbers only: no bools, strings or nesting
        inp = _toy_csv(tmp_path)
        doc = {"k": 1, "cardinalities": [2, 2, 2], "theta": [1.0],
               "tildePsi": [[[0.5, 0.5]] * 3]}
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({**doc, key: value}))
        out = tmp_path / "x.csv"
        rc = cli.main(["impute", str(inp), str(model), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
        assert not out.exists()
        assert not (tmp_path / "x.csv.cells.csv").exists()

    def test_huge_cardinality_is_refused_before_allocating(self, tmp_path,
                                                            capsys):
        # a padded (1, 1, 10**12) array would need 7.28 TiB
        inp = _toy_csv(tmp_path)
        model = tmp_path / "big.json"
        model.write_text(json.dumps({"k": 1, "cardinalities": [10 ** 12],
                                     "theta": [1.0],
                                     "tildePsi": [[[0.5, 0.5]]]}))
        out = tmp_path / "x.csv"
        rc = cli.main(["impute", str(inp), str(model), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: tildePsi[0][0] must have 1000000000000 "
                       "entries, all finite numbers"]
        assert not out.exists()
        assert not (tmp_path / "x.csv.cells.csv").exists()

    def test_draws_of_two_schemas_are_one_error(self, tmp_path, capsys):
        inp = _toy_csv(tmp_path)
        one = json.loads(_fit(tmp_path, inp, ("--summary",)).read_text())
        other = {"k": 1, "cardinalities": [2, 3], "theta": [1.0],
                 "tildePsi": [[[0.5, 0.5], [0.2, 0.3, 0.5]]]}
        model = tmp_path / "mixed.json"
        out = tmp_path / "x.csv"
        # two schemas among the draws, or draws of one schema under a
        # document that lists another
        for doc in ({"cardinalities": [2, 2, 2], "draws": [one, other]},
                    {"cardinalities": [9, 9, 9], "draws": [one, one]}):
            model.write_text(json.dumps(doc))
            capsys.readouterr()
            rc = cli.main(["impute", str(inp), str(model), "--out", str(out)])
            assert rc == 1
            assert capsys.readouterr().err == \
                "error: draws disagree on cardinalities\n"
            assert not out.exists()

    def test_memory_does_not_grow_with_draws(self, tmp_path):
        # the model file is read a chunk at a time and each group of draws
        # folded in as it is decoded; 360 more draws of (12, 102) floats
        # would add 9.4 MB of JSON text here, and more as models.  The 40
        # draws span several chunks, and as a group's evidence and log
        # table hold about 2**15 floats, with some 360 rows to impute they
        # fill several groups too
        cards = [2, 100]
        rng = np.random.default_rng(1)
        cells = rng.integers(1, np.array(cards) + 1, size=(1000, 2))
        cells[rng.random(cells.shape) < 0.2] = 0
        inp = tmp_path / "wide.csv"
        inp.write_text(dataset_to_csv(Dataset(CategoricalSchema(cards), cells)))
        draws = [CollapsedModel(CategoricalSchema(cards), rng.dirichlet([1] * 12),
                                np.hstack([rng.dirichlet([1] * d, 12)
                                           for d in cards]))
                 for _ in range(400)]

        def peak(n):
            model = tmp_path / f"m{n}.json"
            model.write_text(serialize_models(draws[:n]))
            # each call's argparse parser is freed by the cyclic collector,
            # at a moment that varies, unless no cycle is left before it
            gc.collect()
            tracemalloc.start()
            try:
                assert cli.main(["impute", str(inp), str(model), "--out",
                                 str(tmp_path / "x.csv"), "--rule", "sample",
                                 "--seed", "0"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(40), peak(400)
        assert (tmp_path / "m40.json").stat().st_size > 3 * core._CHUNK
        assert many < few + 100_000

    @pytest.mark.parametrize("spoil", ["third draw", "cut short", "bad byte"])
    def test_a_late_bad_draw_is_one_error_and_leaves_no_file(
            self, tmp_path, capsys, monkeypatch, spoil):
        # the draws before it have been read and the outputs opened; a
        # syntax error or a byte that is not UTF-8, read in a later chunk,
        # is worded as a read and parse of the whole file word it
        monkeypatch.setattr(core, "_CHUNK", 64)
        inp = _toy_csv(tmp_path)
        text = _fit(tmp_path, inp, ("--samples", "100")).read_text()
        assert len(text) > 3 * 8192  # the blocks a text file decodes
        doc = json.loads(text)
        doc["draws"][2]["theta"][0] += 0.5
        model = tmp_path / "late.json"
        if spoil == "third draw":
            model.write_text(json.dumps(doc, indent=2))
            message = "error: theta sums to "
        elif spoil == "cut short":
            model.write_text(text[:-200])
            message = "error: invalid JSON: Expecting "
        else:
            model.write_bytes(text[:-200].encode() + b"\xff" + text[-200:].encode())
            with pytest.raises(UnicodeDecodeError) as read:
                model.read_text()
            message = f"error: {read.value}"
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        rc = cli.main(["impute", str(inp), str(model), "--out",
                       str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_a_bad_byte_read_through_a_pipe_is_placed_in_the_whole_file(
            self, tmp_path, capsys, monkeypatch):
        # a pipe cannot seek back, so the reader counts the bytes it has
        # decoded to place the byte as one read of the whole file does;
        # the byte lies well past the first 8192-byte block
        monkeypatch.setattr(core, "_CHUNK", 64)
        inp = _toy_csv(tmp_path)
        text = _fit(tmp_path, inp, ("--samples", "100")).read_bytes()
        at = len(text) - 200
        bad = text[:at] + b"\xff" + text[at + 1:]
        model = tmp_path / "bad.json"
        model.write_bytes(bad)
        with pytest.raises(UnicodeDecodeError) as read:
            model.read_text()
        assert f"position {at}:" in str(read.value) and at > 3 * 8192
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(bad,),
                                  daemon=True)
        writer.start()
        for source in (model, pipe):
            capsys.readouterr()
            assert cli.main(["impute", str(inp), str(source), "--out",
                             str(tmp_path / "x.csv")]) == 1
            assert capsys.readouterr().err == f"error: {read.value}\n"
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_a_late_bad_draw_is_reported_after_the_dataset_and_outputs(
            self, tmp_path, capsys):
        # the first draw gives the schema that the dataset is parsed with,
        # and the outputs are claimed before the later draws are read
        inp = _toy_csv(tmp_path)
        good = json.loads(_fit(tmp_path, inp).read_text())
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,x\n")
        out = str(tmp_path / "x.csv")
        for h, table, to, message in [
                (2, bad, out, "error: line 2, column 'c': 'x' is not an integer"),
                (2, inp, str(tmp_path / "nodir" / "x.csv"),
                 f"error: cannot write {tmp_path / 'nodir' / 'x.csv'}: "
                 "No such file or directory"),
                (0, bad, out, "error: theta sums to ")]:
            doc = json.loads(json.dumps(good))
            doc["draws"][h]["theta"][0] += 0.5
            (tmp_path / "m.json").write_text(json.dumps(doc))
            capsys.readouterr()
            assert cli.main(["impute", str(table), str(tmp_path / "m.json"),
                             "--out", to]) == 1
            assert capsys.readouterr().err.startswith(message)

    def test_impossible_row_is_named_by_its_dataset_index(self, tmp_path,
                                                          capsys):
        probs = [[1.0, 0.0] * 3, [0.0, 1.0] * 3]
        model = tmp_path / "model.json"
        model.write_text(serialize_model(
            CollapsedModel(CategoricalSchema([2, 2, 2]), [0.5, 0.5], probs)))
        inp = tmp_path / "data.csv"
        inp.write_text("a,b,c\n1,1,NA\n1,1,1\n1,2,NA\n")
        rc = cli.main(["impute", str(inp), str(model), "--out",
                       str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error: row 2 has probability zero" in capsys.readouterr().err


class TestSimulate:
    def test_mixture_with_masking(self, tmp_path):
        args = ["simulate", "--protocol", "mixture", "--n", "15", "--p", "4",
                "--seed", "5", "--mechanism", "mcar",
                "--out", str(tmp_path / "masked.csv"),
                "--complete-out", str(tmp_path / "complete.csv"),
                "--truth-out", str(tmp_path / "truth.json"),
                "--mask-out", str(tmp_path / "mask.csv")]
        assert cli.main(args) == 0
        schema = CategoricalSchema([2, 2, 2, 2])
        complete = parse_dataset((tmp_path / "complete.csv").read_text(),
                                 schema)
        masked = parse_dataset((tmp_path / "masked.csv").read_text(), schema)
        assert complete.n_missing() == 0
        mask_lines = (tmp_path / "mask.csv").read_text().splitlines()
        assert mask_lines[0] == "row,column,value"
        assert len(mask_lines) - 1 == masked.n_missing()
        names = list(complete.column_names)
        for line in mask_lines[1:]:
            row, col, value = line.split(",")
            i, j = int(row), names.index(col)
            assert masked.cells[i, j] == 0
            assert complete.cells[i, j] == int(value)
        truth = deserialize_models((tmp_path / "truth.json").read_text())[0]
        assert truth.k == 3

    @pytest.mark.parametrize("failing", ["--out", "--complete-out",
                                         "--truth-out", "--mask-out"])
    def test_one_unwritable_output_leaves_none(self, tmp_path, capsys,
                                               failing):
        outputs = {flag: str(tmp_path / f"{flag[2:]}.txt")
                   for flag in ("--out", "--complete-out", "--truth-out",
                                "--mask-out")}
        outputs[failing] = str(tmp_path / "nodir" / "x.csv")
        rc = cli.main(["simulate", "--protocol", "mixture", "--n", "15",
                       "--seed", "5", "--mechanism", "mcar",
                       *[a for pair in outputs.items() for a in pair]])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {outputs[failing]}: No such file or directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_xor_truth_is_a_point_mass_mixture(self, tmp_path):
        args = ["simulate", "--protocol", "xor", "--n", "30", "--seed", "1",
                "--out", str(tmp_path / "xor.csv"),
                "--truth-out", str(tmp_path / "truth.json")]
        assert cli.main(args) == 0
        data = parse_dataset((tmp_path / "xor.csv").read_text(),
                             CategoricalSchema([2, 2, 2]))
        assert data.cells.shape == (30, 3)
        truth = deserialize_models((tmp_path / "truth.json").read_text())[0]
        assert truth.k == 8
        assert set(np.unique(truth.probs)) == {0.0, 1.0}

    def test_no_mechanism_keeps_data_complete(self, tmp_path):
        out = tmp_path / "plain.csv"
        mask_out = tmp_path / "mask.csv"
        assert cli.main(["simulate", "--protocol", "mixture", "--n", "8",
                         "--p", "3", "--seed", "2", "--out", str(out),
                         "--mask-out", str(mask_out)]) == 0
        data = parse_dataset(out.read_text(), CategoricalSchema([2, 2, 2]))
        assert data.n_missing() == 0
        assert mask_out.read_text() == "row,column,value\n"

    def test_unallocatable_table_is_one_error_line(self, tmp_path, capsys):
        # 3 x 20 x 1e12 doubles exceed the 128 TiB user address space, so
        # the allocation fails at once under any overcommit policy
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--protocol", "mixture",
                         "--cardinality", "1000000000000",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind, flag, value, rates", [
        ("mcar", "--mcar-rate", "0", (0.0,)),
        ("mar", "--mar-rates", "0.9,0.2", (0.9, 0.2)),
        ("mnar", "--mnar-rates", "0.6,0", (0.6, 0.0)),
    ])
    def test_rate_flag_reaches_its_mechanism(self, tmp_path, kind, flag,
                                             value, rates):
        out = tmp_path / "masked.csv"
        assert cli.main(["simulate", "--protocol", "mixture", "--n", "30",
                         "--p", "3", "--seed", "3", "--mechanism", kind,
                         flag, value, "--out", str(out)]) == 0
        rng = np.random.default_rng(3)
        data, _ = metrics.simulate("mixture", n=30, p=3, seed=rng)
        masked, _ = mask(data, MechanismSpec(kind, rates), seed=rng)
        assert out.read_text() == dataset_to_csv(masked)

    @pytest.mark.parametrize("extra", [
        ["simulate", "--mechanism", "mcar", "--mar-rates", "0.9,0.9"],
        ["simulate", "--mechanism", "mcar", "--mnar-rates", "1,1"],
        ["simulate", "--mechanism", "mnar", "--mcar-rate", "0.5"],
        ["simulate", "--mcar-rate", "0.9"],  # --mechanism defaults to none
        ["simulate", "--protocol", "xor", "--p", "7"],
        ["simulate", "--protocol", "xor", "--k", "9"],
        ["simulate", "--protocol", "xor", "--cardinality", "5"],
        ["benchmark", "--protocol", "xor", "--p", "7"],
        ["benchmark", "--protocol", "xor", "--k", "9"],
        ["benchmark", "--protocol", "xor", "--cardinality", "5"],
        ["preprocess-ratings", "--coding", "five", "--cutoff", "4"],
        ["simulate", "--cardinality", "1"],
        ["benchmark", "--cardinality", "1"],
    ])
    def test_rate_flag_of_another_mechanism_is_a_usage_error(
            self, tmp_path, capsys, extra):
        # every flag that one choice alone reads, given under another
        # choice, and a cardinality no variable can have
        command, *flags = extra
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            cli.main([command, *REQUIRED[command], "--out", str(out),
                      *flags])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and extra[-2] in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("protocol", ["mixture", "xor"])
    def test_writes_what_the_library_simulates(self, tmp_path, protocol):
        out = tmp_path / "data.csv"
        truth = tmp_path / "truth.json"
        assert cli.main(["simulate", "--protocol", protocol, "--seed", "4",
                         "--out", str(out), "--truth-out", str(truth)]) == 0
        data, model = metrics.simulate(protocol, seed=4)
        assert data.n_rows == {"mixture": 50, "xor": 300}[protocol]
        assert out.read_text() == dataset_to_csv(data)
        assert truth.read_text() == serialize_model(model)


class TestBenchmark:
    def test_csv_and_summary_match_the_library(self, tmp_path):
        out = tmp_path / "bench.csv"
        summary = tmp_path / "summary.json"
        rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "2",
                       "--n", "12", "--p", "4", "--k", "2", "--seed", "9",
                       "--jobs", "1", *FAST,
                       "--out", str(out), "--summary-out", str(summary)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replication,accuracy,correlation_gap,estimated_k"
        assert len(lines) == 3

        report = run_replications(
            "mixture", reps=2, seed=9, n=12, p=4, k=2,
            gibbs=GibbsConfig(burnin=20, samples=10, thin=1),
        )
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == i
            rep = report.per_replication[i]
            assert float(fields[1]) == rep["accuracy"]
            assert float(fields[2]) == rep["correlation_gap"]
            assert float(fields[3]) == rep["estimated_k"]

        assert out.read_text() == report.to_csv()

        blob = json.loads(summary.read_text())
        assert blob["replications"] == 2
        assert blob["metrics"]["accuracy"]["mean"] == \
            pytest.approx(report.means["accuracy"])

    def test_alpha_and_beta_change_the_fit(self, tmp_path):
        def run(name, *priors):
            out = tmp_path / name
            rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "2",
                           "--n", "12", "--p", "4", "--k", "2", "--seed", "3",
                           "--jobs", "1", *FAST, "--progress-every", "0",
                           "--out", str(out), *priors])
            assert rc == 0
            return out.read_text()

        default = run("default.csv")
        assert default == run("explicit.csv", "--alpha", "0.25", "--beta", "1")
        assert default != run("priors.csv", "--alpha", "50", "--beta", "3")

    def test_failure_keeps_the_finished_replications(self, tmp_path, capsys,
                                                     monkeypatch):
        real = metrics._replicate
        calls = []

        def second_fails(seed_seq, **kwargs):
            calls.append(seed_seq)
            if len(calls) == 2:
                raise RuntimeError("replication broke")
            return real(seed_seq, **kwargs)

        monkeypatch.setattr(metrics, "_replicate", second_fails)
        out = tmp_path / "bench.csv"
        summary = tmp_path / "summary.json"
        rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "3",
                       "--n", "12", "--p", "4", "--k", "2", "--seed", "9",
                       "--jobs", "1", *FAST, "--progress-every", "0",
                       "--out", str(out), "--summary-out", str(summary)])
        assert rc == 1
        assert len(out.read_text().splitlines()) == 2  # header and rep 0
        assert json.loads(summary.read_text())["replications"] == 1
        err = capsys.readouterr().err
        assert "replication 1/3: accuracy=" in err
        assert "replication 2 failed: replication broke" in err

    def test_out_holds_the_finished_replications_after_each(
            self, tmp_path, monkeypatch):
        real = metrics.run_replications
        out, summary = tmp_path / "reps.csv", tmp_path / "summary.json"
        seen = []

        def watched(*args, on_result, **kwargs):
            # both files are claimed before any fit
            assert out.read_text() == summary.read_text() == ""

            def check(report):
                on_result(report)
                seen.append((out.read_text(), json.loads(summary.read_text()),
                             sorted(p.name for p in tmp_path.iterdir())))

            return real(*args, on_result=check, **kwargs)

        monkeypatch.setattr(metrics, "run_replications", watched)
        rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "3",
                       "--n", "12", "--p", "4", "--k", "2", "--seed", "9",
                       "--jobs", "1", *FAST, "--out", str(out),
                       "--summary-out", str(summary)])
        assert rc == 0
        final = out.read_text().splitlines(keepends=True)
        assert len(seen) == 3 and len(final) == 4
        for i, (text, blob, names) in enumerate(seen):
            assert text == "".join(final[:i + 2])
            # the summary describes exactly the replications in the CSV
            rows = np.array([line.split(",")[1:] for line in final[1:i + 2]],
                            dtype=float)
            assert blob["replications"] == i + 1
            assert [m["mean"] for m in blob["metrics"].values()] == \
                rows.mean(axis=0).tolist()
            # no temporary file is left
            assert names == ["reps.csv", "summary.json"]

    def test_failed_rewrite_is_one_error_naming_the_file(
            self, tmp_path, capsys, monkeypatch):
        real = cli._write_atomic
        out = tmp_path / "r.csv"
        calls = []

        def second_fails(*outputs):
            calls.append(outputs)
            if len(calls) == 2:  # the rewrite after replication 1
                raise OSError(f"cannot write {out}: No space left on device")
            return real(*outputs)

        monkeypatch.setattr(cli, "_write_atomic", second_fails)
        rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "3",
                       "--n", "12", "--p", "4", "--k", "2", "--seed", "9",
                       "--jobs", "1", *FAST, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("replication 1/3: accuracy=")
        assert err[1] == f"error: cannot write {out}: No space left on device"
        # no replication was written, so --out goes
        assert list(tmp_path.iterdir()) == []

    def test_summary_of_one_replication_is_strict_json(self, tmp_path):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = tmp_path / "summary.json"
        rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "1",
                       "--n", "12", "--p", "4", "--seed", "9", "--jobs", "1",
                       *FAST, "--summary-out", str(summary)])
        assert rc == 0
        blob = json.loads(summary.read_text(), parse_constant=refuse)
        for stats in blob["metrics"].values():
            assert stats["sd"] is None and math.isfinite(stats["mean"])

    def test_unknown_mechanism_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["benchmark", "--protocol", "mixture",
                      "--mechanism", "sometimes"])
        assert err.value.code == 2

    def test_progress_interval_other_than_zero_is_a_usage_error(
            self, tmp_path, capsys):
        # replications print no sweep lines, so the flag takes only 0
        argv = ["benchmark", "--protocol", "mixture", "--reps", "1",
                "--jobs", "1", "--n", "10", "--p", "3", "--seed", "1",
                "--out", str(tmp_path / "reps.csv"), *FAST]
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--progress-every", "1"])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "--progress-every" in errors[0]
        assert not (tmp_path / "reps.csv").exists()
        assert cli.main(argv + ["--progress-every", "0"]) == 0
        assert "sweep" not in capsys.readouterr().err
        assert (tmp_path / "reps.csv").exists()

    def test_rate_flag_of_another_mechanism_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch):
        def no_replications(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(metrics, "run_replications", no_replications)
        out = tmp_path / "reps.csv"
        with pytest.raises(SystemExit) as err:
            # --mechanism defaults to mcar
            cli.main(["benchmark", "--protocol", "mixture", "--reps", "1",
                      "--jobs", "1", "--mnar-rates", "0.5,0.5",
                      "--out", str(out)])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "--mnar-rates" in errors[0]
        assert not out.exists()

    def test_failing_replications_exit_nonzero(self, tmp_path, capsys):
        # MNAR requires binary data, so cardinality 3 fails inside rep 1
        rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "2",
                       "--n", "8", "--p", "3", "--cardinality", "3",
                       "--mechanism", "mnar", "--seed", "1", *FAST])
        assert rc == 1
        assert "failed" in capsys.readouterr().err

    def test_out_is_removed_when_no_replication_finishes(self, tmp_path,
                                                         capsys):
        rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "2",
                       "--n", "8", "--p", "3", "--cardinality", "3",
                       "--mechanism", "mnar", "--seed", "1", "--jobs", "1",
                       *FAST, "--out", str(tmp_path / "reps.csv"),
                       "--summary-out", str(tmp_path / "summary.json")])
        assert rc == 1
        assert "replication 1 failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # an unwritable --out is still refused before any fit
        rc = cli.main(["benchmark", "--protocol", "mixture", "--reps", "1",
                       "--jobs", "1", *FAST,
                       "--out", str(tmp_path / "no" / "reps.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path / 'no' / 'reps.csv'}: "
            "No such file or directory\n")


    @pytest.mark.parametrize("summary", ["nodir/s.json", "reps.csv"],
                             ids=["missing-dir", "same-path"])
    def test_summary_path_is_refused_before_any_fit(
            self, tmp_path, capsys, monkeypatch, summary):
        def no_replications(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(metrics, "run_replications", no_replications)
        out, summary = tmp_path / "reps.csv", str(tmp_path / summary)
        rc = cli.main(["benchmark", *REQUIRED["benchmark"], "--out", str(out),
                       "--summary-out", summary])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and summary in err
        assert list(tmp_path.iterdir()) == []


class TestIndependence:
    def _coupled_model(self, tmp_path):
        probs = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
        model = CollapsedModel(CategoricalSchema([2, 2]), [0.5, 0.5], probs)
        path = tmp_path / "model.json"
        path.write_text(serialize_model(model))
        return path

    def test_stdout_table(self, tmp_path, capsys):
        path = self._coupled_model(tmp_path)
        rc = cli.main(["test-independence", str(path), "--n", "20"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "j1,j2,p_value"
        j1, j2, p = out[1].split(",")
        assert (j1, j2) == ("0", "1")
        assert float(p) == 2 / math.comb(20, 10)

    def test_out_file(self, tmp_path, capsys):
        path = self._coupled_model(tmp_path)
        table = tmp_path / "pairs.csv"
        rc = cli.main(["test-independence", str(path), "--n", "20",
                       "--out", str(table)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert table.read_text().startswith("j1,j2,p_value\n0,1,")

    def test_uncountable_n_is_one_error_line(self, tmp_path, capsys):
        path = self._coupled_model(tmp_path)
        n = "100000000000000000000"
        rc = cli.main(["test-independence", str(path), "--n", n])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"error: n must lie in 0 .. 2**53, got {n}\n")


class TestPreprocessRatings:
    def test_pipeline(self, tmp_path):
        src = tmp_path / "ratings.csv"
        src.write_text(
            "user,item,rating\n"
            "1,101,4.0\n1,102,2.0\n"
            "2,101,3.0\n2,102,5.0\n"
            "3,101,1.5\n3,102,3.5\n"
        )
        out = tmp_path / "matrix.csv"
        rc = cli.main(["preprocess-ratings", str(src), "--out", str(out),
                       "--item-threshold", "0.5", "--user-threshold", "0.5"])
        assert rc == 0
        data = parse_dataset(out.read_text(), CategoricalSchema([2, 2]))
        assert data.column_names == ("101", "102")
        assert data.cells.tolist() == [[2, 1], [2, 2], [1, 2]]

    def test_mixed_integer_and_string_identifiers(self, tmp_path):
        # integer identifiers sort before string ones, users and items
        src = tmp_path / "ratings.csv"
        src.write_text(
            "user,item,rating\n"
            "u3,m1,1.0\nu3,5,4.5\n"
            "2,m1,3.0\n2,5,5.0\n"
            "1,m1,4.0\n1,5,2.0\n"
        )
        out = tmp_path / "matrix.csv"
        rc = cli.main(["preprocess-ratings", str(src), "--out", str(out),
                       "--item-threshold", "0.5", "--user-threshold", "0.5"])
        assert rc == 0
        data = parse_dataset(out.read_text(), CategoricalSchema([2, 2]))
        assert data.column_names == ("5", "m1")
        assert data.cells.tolist() == [[1, 2], [2, 2], [2, 1]]

    def test_overfiltered_input_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "ratings.csv"
        src.write_text("user,item,rating\n1,101,4.0\n2,102,4.0\n")
        rc = cli.main(["preprocess-ratings", str(src), "--out",
                       str(tmp_path / "x.csv"), "--item-threshold", "0.9"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def test_atomic_writes_leave_no_leftovers(tmp_path):
    target = tmp_path / "out.txt"
    cli._write_atomic((target, ["first\n"]))
    cli._write_atomic((target, iter(["sec", "ond\n"])))
    assert target.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def broken():
        yield "partial\n"
        raise ValueError("broken")

    # a failure in a later file leaves every file of the write as it was
    with pytest.raises(ValueError, match="broken"):
        cli._write_atomic((target, ["third\n"]),
                          (tmp_path / "other.txt", broken()))
    assert target.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    # two spellings of one file are refused before anything is opened,
    # and an output without a path is skipped
    with pytest.raises(ValueError, match="one file named as two outputs"):
        cli._write_atomic((tmp_path / "new.txt", ["x"]), (None, ["y"]),
                          (f"{tmp_path}/./new.txt", ["z"]))
    cli._write_atomic((target, ["fourth\n"]), (None, broken()))
    assert target.read_text() == "fourth\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    # a path that names no file is refused before anything is opened,
    # under the name it was given
    (tmp_path / "dir").mkdir()
    for path, why in (("", "no file name"),
                      (f"{tmp_path}/new/", "no file name"),
                      (f"{tmp_path}/dir/", "Is a directory"),
                      (tmp_path / "dir", "Is a directory")):
        shown = path or "''"
        with pytest.raises(OSError,
                           match=f"^{re.escape(f'cannot write {shown}: {why}')}$"):
            cli._write_atomic((tmp_path / "first.txt", ["x"]),
                              (path, broken()))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out.txt"]
        assert not list((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("command", ["fit", "impute", "test-independence"])
def test_empty_output_flag_is_refused(tmp_path, capsys, monkeypatch,
                                      command):
    # an empty path is not taken to mean the default file or stdout
    def no_sweeps(*args, **kwargs):
        raise AssertionError("a sweep ran")

    inp = _toy_csv(tmp_path)
    model = _fit(tmp_path, inp)
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    monkeypatch.setattr(sampler._Chain, "sweep", no_sweeps)
    argv = {"fit": ["fit", str(inp), "--out", str(tmp_path / "again.json"),
                    "--k-histogram", ""],
            "impute": ["impute", str(inp), str(model), "--out",
                       str(tmp_path / "filled.csv"), "--cell-posterior", ""],
            "test-independence": ["test-independence", str(model),
                                  "--n", "12", "--out", ""]}[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: cannot write '': no file name\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["impute", "test-independence",
                                     "preprocess-ratings"])
def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys,
                                                   monkeypatch, command):
    # the inputs are read first, then the outputs are claimed, and only
    # then would the imputation, the tests or the coding run
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    inp = _toy_csv(tmp_path)
    model = _fit(tmp_path, inp)
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("user,item,rating\n1,101,4.0\n2,101,3.0\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    monkeypatch.setattr(inference, "impute", no_work)
    monkeypatch.setattr(inference, "pairwise_independence", no_work)
    monkeypatch.setattr(synth, "preprocess_ratings", no_work)
    missing = tmp_path / "nodir" / "x.csv"
    argv = {"impute": ["impute", str(inp), str(model), "--out", str(missing)],
            "test-independence": ["test-independence", str(model), "--n",
                                  "12", "--out", str(missing)],
            "preprocess-ratings": ["preprocess-ratings", str(ratings),
                                   "--out", str(missing)]}[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {missing}: No such file or directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", [
    "fit", "impute", "test-independence", "preprocess-ratings"])
def test_output_naming_an_input_is_refused_before_the_work(
        tmp_path, capsys, monkeypatch, command):
    # an output that is one of the command's own inputs, under another
    # spelling, would replace that input
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    inp = _toy_csv(tmp_path)
    model = _fit(tmp_path, inp)
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("user,item,rating\n1,101,4.0\n2,101,3.0\n")
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    monkeypatch.setattr(sampler._Chain, "sweep", no_work)
    monkeypatch.setattr(inference, "impute", no_work)
    monkeypatch.setattr(inference, "pairwise_independence", no_work)
    argv, clash = {
        "fit": (["fit", str(inp), *FAST, "--out", str(tmp_path / "m.json")],
                inp),
        "impute": (["impute", str(inp), str(model), "--out",
                    str(tmp_path / "f.csv"), "--cell-posterior"], model),
        "test-independence": (["test-independence", str(model), "--n", "12",
                               "--out"], model),
        "preprocess-ratings": (["preprocess-ratings", str(ratings),
                                "--out"], ratings)}[command]
    again = f"{tmp_path}/./{clash.name}"
    if command == "fit":
        argv += ["--k-histogram", again]
    else:
        argv.append(again)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: output names an input file: {again}\n")
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("command", ["fit", "impute", "simulate", "benchmark"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                        command):
    # refused at the flag, before any output is claimed or any work runs
    monkeypatch.chdir(tmp_path)
    argv = {"fit": ["fit", "data.csv", "--out", "m.json"],
            "impute": ["impute", "data.csv", "m.json", "--out", "f.csv"],
            "simulate": ["simulate", *REQUIRED["simulate"], "--out", "s.csv"],
            "benchmark": ["benchmark", *REQUIRED["benchmark"]]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "-2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"catmix {command}: error: argument "
                                    "--seed: must be >= 0, got -2")
    assert not list(tmp_path.iterdir())


def test_console_script_is_installed():
    exe = shutil.which("catmix")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("fit", "impute", "simulate", "benchmark",
                 "test-independence", "preprocess-ratings"):
        assert name in proc.stdout
