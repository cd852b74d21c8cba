import contextlib
import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def _load(path):
    """The script at ``path`` as a module."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def script():
    """The script as a module."""
    return _load(SCRIPT)


#: A stand-in for bench/run.py: one environment line naming the
#: interpreter's pycache prefix and whether it writes bytecode, then a
#: correct result.
FAKE_RUN = """import json, sys
print("env: " + json.dumps({"pycache_prefix": sys.pycache_prefix,
                            "writes": not sys.dont_write_bytecode}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0}}}))
"""


@pytest.fixture()
def bench_pairs(script, tmp_path, monkeypatch):
    """The script as a module, with a two-commit repository as REPO whose
    commits differ in ``marker.txt`` and share a stand-in ``bench/``."""
    if shutil.which("git") is None:
        pytest.skip("needs git")
    module = script
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t",
           "-c", "user.email=t@example.invalid"]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "marker.txt").write_text("first\n")
    (repo / "bench").mkdir()
    (repo / "bench" / "run.py").write_text(FAKE_RUN)
    subprocess.run(git + ["add", "marker.txt", "bench"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "first"], check=True)
    (repo / "marker.txt").write_text("second\n")
    subprocess.run(git + ["commit", "-q", "-am", "second"], check=True)
    monkeypatch.setattr(module, "REPO", repo)
    return module, repo


def _worktrees(repo):
    out = subprocess.run(["git", "-C", str(repo), "worktree", "list"],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_a_directory_is_used_as_it_is(bench_pairs, tmp_path):
    module, _ = bench_pairs
    with contextlib.ExitStack() as stack:
        assert module.checkout(str(tmp_path), stack) == tmp_path
    assert tmp_path.is_dir()


def test_a_revision_is_checked_out_and_removed_afterwards(
        bench_pairs, tmp_path, monkeypatch):
    module, repo = bench_pairs
    with contextlib.ExitStack() as stack:
        tree = module.checkout("HEAD~1", stack)
        assert (tree / "marker.txt").read_text() == "first\n"
        assert len(_worktrees(repo)) == 2
    assert not tree.exists()
    assert not tree.parent.exists()
    assert len(_worktrees(repo)) == 1

    # --parent and --change alike take a revision
    seen = {}

    def record(args, dirs):
        seen.update({side: (d, (d / "marker.txt").read_text())
                     for side, d in dirs.items()})
        seen["worktrees"] = len(_worktrees(repo))

    monkeypatch.setattr(module, "run_pairs", record)
    assert module.main(["--parent", "HEAD~1", "--change", "HEAD",
                        "--run", "wide:1", "--out",
                        str(tmp_path / "pairs.json")]) == 0
    assert seen["parent"][1] == "first\n"
    assert seen["change"][1] == "second\n"
    assert seen["worktrees"] == 3
    assert not seen["parent"][0].exists() and not seen["change"][0].exists()
    assert len(_worktrees(repo)) == 1


def test_neither_directory_nor_revision_is_refused(bench_pairs):
    module, _ = bench_pairs
    with pytest.raises(SystemExit, match="neither a directory nor a git"):
        with contextlib.ExitStack() as stack:
            module.checkout("no-such-revision", stack)


def test_revisions_mark_a_dirty_tree_and_ignore_an_enclosing_one(
        bench_pairs):
    module, repo = bench_pairs
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    assert module.revision(repo) == head
    (repo / "marker.txt").write_text("edited\n")
    assert module.revision(repo) == head + "-dirty"
    plain = repo / "plain"
    plain.mkdir()
    assert module.revision(plain) == "unavailable"


def test_an_exported_tree_records_the_revision_it_came_from(
        bench_pairs, tmp_path, monkeypatch):
    module, repo = bench_pairs
    export = tmp_path / "export"
    export.mkdir()
    (tmp_path / "a=b").mkdir()
    assert module.exported(str(tmp_path / "a=b")) == (str(tmp_path / "a=b"),
                                                      None)
    assert module.exported("HEAD~1") == ("HEAD~1", None)
    monkeypatch.setattr(module, "bench_once", lambda *args: {
        "correct": True, "failed": 0, "metrics": {"wall_s": 1.0}})
    out = tmp_path / "pairs.json"
    assert module.main(["--parent", f"{export}=abc123", "--change",
                        f"{repo}=abc123", "--run", "wide:1", "--out",
                        str(out)]) == 0
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    # a git checkout still names its own commit
    assert json.loads(out.read_text())["revisions"] == {
        "parent": "abc123", "change": head}


def test_each_side_runs_with_a_fresh_pycache_of_its_own(bench_pairs,
                                                        tmp_path,
                                                        monkeypatch):
    module, repo = bench_pairs
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    export = tmp_path / "export"
    shutil.copytree(repo / "bench", export / "bench")
    # neither a stale cache nor the runs' own outputs count as bench/
    (export / "bench" / "__pycache__").mkdir()
    (export / "bench" / "__pycache__" / "run.cpython.pyc").write_text("x")
    (export / "bench" / "out").mkdir()
    (export / "bench" / "out" / "trace.jsonl").write_text("{}\n")
    out = tmp_path / "pairs.json"
    assert module.main(["--parent", "HEAD~1", "--change", f"{export}=abc",
                        "--run", "wide:3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["same_bench"] is True
    assert doc["bench_sha1"]["parent"] == doc["bench_sha1"]["change"]
    runs = doc["workloads"]["wide"]["runs"]
    assert all(p[side]["correct"] for p in runs for side in module.SIDES)
    prefixes = {side: {p[side]["env"]["pycache_prefix"] for p in runs}
                for side in module.SIDES}
    # bytecode is written, so that a side's later runs read its cache
    assert all(p[side]["env"]["writes"] for p in runs
               for side in module.SIDES)
    # one prefix per side, outside both trees, gone once the pairs ran
    (parent,), (change,) = prefixes["parent"], prefixes["change"]
    assert parent != change
    for prefix in (parent, change):
        assert not Path(prefix).exists()
        assert export not in Path(prefix).parents
        assert repo not in Path(prefix).parents

    # a side with another bench/ is flagged
    (export / "bench" / "run.py").write_text(FAKE_RUN + "# edited\n")
    assert module.main(["--parent", "HEAD", "--change", str(export),
                        "--run", "wide:1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["same_bench"] is False
    assert doc["bench_sha1"]["parent"] != doc["bench_sha1"]["change"]


def test_impute_levels_gives_each_run_the_cache_it_is_handed(
        tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    impute_levels = _load(ROOT / "scripts" / "impute_levels.py")
    # a stand-in catmix whose CLI writes down its pycache prefix
    package = tmp_path / "tree" / "src" / "catmix"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys\nopen('prefix.txt', 'w').write("
        "f'{sys.pycache_prefix} {sys.dont_write_bytecode}')\n")
    cache = tmp_path / "cache"
    run = impute_levels.catmix(tmp_path / "tree", ["impute"], tmp_path,
                               str(cache))
    assert (tmp_path / "prefix.txt").read_text() == f"{cache} False"
    # the stand-in package was compiled into the cache, not beside itself
    assert list(cache.rglob("__init__*.pyc"))
    assert not list(package.rglob("*.pyc"))
    assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0


def _pairs(parent, change):
    """Synthetic pair records of one metric, ``wall_s``."""
    out = []
    for a, b in zip(parent, change):
        out.append({
            "parent": {"correct": True, "failed": 0,
                       "metrics": {"wall_s": a}},
            "change": {"correct": True, "failed": 0,
                       "metrics": {"wall_s": b}},
            "ratio_change_over_parent": {"wall_s": b / a}})
    return out


def test_ten_pairs_give_the_sign_test_interval_and_meet_the_claim(script):
    parent = [1.00, 1.02, 0.98, 1.05, 0.97, 1.01, 1.03, 0.99, 1.04, 0.96]
    scale = [0.50, 0.52, 0.54, 0.56, 0.58, 0.60, 0.62, 0.64, 0.66, 0.68]
    row = script.summarize(_pairs(parent, [a * s for a, s in
                                           zip(parent, scale)]))
    wall = row["metrics"]["wall_s"]
    # with 10 pairs, the 2nd smallest to the 2nd largest ratio covers
    # the median with probability 1 - 2 * 11 / 1024; the 3rd would not
    # reach 95%
    assert wall["pair_ratio"]["low"] == pytest.approx(0.52)
    assert wall["pair_ratio"]["high"] == pytest.approx(0.66)
    assert wall["pair_ratio"]["median"] == pytest.approx(0.59)
    assert wall["pair_ratio"]["coverage"] == pytest.approx(1 - 22 / 1024)
    assert wall["change_wins"] == 10
    assert wall["claim_met"] is True


def test_eight_wins_in_ten_pairs_do_not_meet_the_claim(script):
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    wall = script.summarize(_pairs(parent, change))["metrics"]["wall_s"]
    assert wall["change_wins"] == 8
    assert wall["gain_exceeds_parent_iqr"] is True
    assert wall["claim_met"] is False


def test_a_gain_within_the_parent_spread_does_not_meet_the_claim(script):
    parent = [1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4]
    change = [a - 0.05 for a in parent]
    wall = script.summarize(_pairs(parent, change))["metrics"]["wall_s"]
    assert wall["change_wins"] == 10
    assert wall["gain_exceeds_parent_iqr"] is False
    assert wall["claim_met"] is False


def test_failed_pairs_count_against_the_claim(script):
    unparsed = {"correct": False}
    pairs = _pairs([1.0] * 9, [0.5] * 9)
    pairs.append({"parent": unparsed,
                  "change": {"correct": True, "failed": 0,
                             "metrics": {"wall_s": 0.5}}})
    summary = script.summarize(pairs)
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["metrics"]["wall_s"]["change_wins"] == 9
    assert summary["metrics"]["wall_s"]["claim_met"] is True
    pairs[-1] = {"parent": {"correct": True, "failed": 0,
                            "metrics": {"wall_s": 1.0}},
                 "change": unparsed}
    summary = script.summarize(pairs)
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["metrics"]["wall_s"]["change_wins"] == 9
    assert summary["metrics"]["wall_s"]["claim_met"] is False


def test_three_winning_pairs_are_too_few_for_a_claim(script):
    wall = script.summarize(_pairs([1.0, 1.01, 0.99],
                                   [0.5, 0.51, 0.49]))["metrics"]["wall_s"]
    assert wall["change_wins"] == 3
    assert wall["gain_exceeds_parent_iqr"] is True
    assert wall["claim_met"] is False


def test_a_faster_incorrect_change_run_defeats_the_claim(script):
    pairs = _pairs([1.0] * 10, [0.5] * 10)
    pairs[0]["change"]["correct"] = False
    summary = script.summarize(pairs)
    wall = summary["metrics"]["wall_s"]
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert wall["change_wins"] == 9
    assert wall["claim_met"] is False


def test_more_failed_commands_on_the_change_defeat_the_claim(script):
    pairs = _pairs([1.0] * 10, [0.5] * 10)
    pairs[0]["change"]["failed"] = 1
    summary = script.summarize(pairs)
    wall = summary["metrics"]["wall_s"]
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert wall["change_wins"] == 9
    assert wall["claim_met"] is False


def test_three_pairs_give_their_range_with_its_coverage(script):
    interval = script.median_interval([1.2, 0.9, 1.0])
    assert (interval["low"], interval["median"], interval["high"]) == (
        0.9, 1.0, 1.2)
    assert interval["coverage"] == pytest.approx(0.75)


@pytest.fixture()
def draw_hashes():
    return _load(ROOT / "scripts" / "draw_hashes.py")


def test_draw_hashes_print_one_line_per_fit(draw_hashes, tmp_path, capsys):
    saved = tmp_path / "psi.npz"
    draw_hashes.main(["--save", str(saved)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(draw_hashes.TABLES) * len(draw_hashes.PRIORS)
    arrays = np.load(saved)
    assert len(arrays.files) == 3 * len(lines)
    for line in lines:
        name, *digests = line.split()
        assert len(digests) == 3
        assert all(len(d) == 40 and set(d) <= set("0123456789abcdef")
                   for d in digests)
        assert hashlib.sha1(arrays[name].tobytes()).hexdigest() == digests[1]
        # the draws' weights and flat tables, one row per component
        theta, probs = arrays[f"{name}.theta"], arrays[f"{name}.probs"]
        assert theta.shape == (probs.shape[0],)
        assert theta.sum() == pytest.approx(5.0)
        width = sum(draw_hashes.TABLES[int(name[1])][1])
        assert probs.shape[1] == width
    # --src imports catmix from the named directory, here in a fresh
    # interpreter whose working directory holds no catmix
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "draw_hashes.py"),
         "--src", str(ROOT / "src")],
        cwd=tmp_path, capture_output=True, text=True, check=True, env={})
    assert out.stdout.splitlines() == lines


def test_padded_and_flat_psi_hash_alike(draw_hashes):
    cards = (2, 4)
    flat = np.array([[0.2, 0.3, 0.5, 0.1, 0.2, 0.3, 0.15, 0.25]])
    padded = np.zeros((1, 2, 5))
    padded[0, 0, :3] = flat[0, :3]
    padded[0, 1] = flat[0, 3:]
    assert (draw_hashes.real_codes(padded, cards).tobytes()
            == draw_hashes.real_codes(flat, cards).tobytes())


def test_cli_hashes_print_one_line_per_stream_and_file(tmp_path, capsys,
                                                       monkeypatch):
    cli_hashes = _load(ROOT / "scripts" / "cli_hashes.py")
    # the commands run in a temporary directory of their own
    monkeypatch.chdir(tmp_path)
    cli_hashes.main(["--src", str(ROOT / "src")])
    lines = capsys.readouterr().out.splitlines()
    assert not list(tmp_path.iterdir())
    streams = 2 * len(cli_hashes.COMMANDS)
    assert [line.split()[0] for line in lines[:streams]] == [
        f"{name}.{stream}" for name, _ in cli_hashes.COMMANDS
        for stream in ("stdout", "stderr")]
    # every command succeeds but the fit of the malformed table, the
    # commands with an output in a missing directory, naming no file or
    # given as an empty flag, the fit that names one path twice, the
    # benchmark whose replications fail, the impute from a document
    # that disagrees with its draws, the imputes from a document whose third
    # draw is bad or cut short, the cut one read from a file or a pipe, and
    # the fit whose output is its input; none of these leaves a file behind
    exits = dict(line.split()[::2] for line in lines[1:streams:2])
    assert exits.pop("fit-malformed.stderr") == "exit=1"
    assert exits.pop("fit-missing-dir.stderr") == "exit=1"
    assert exits.pop("fit-missing-khist.stderr") == "exit=1"
    assert exits.pop("benchmark-failing.stderr") == "exit=1"
    assert exits.pop("simulate-missing-mask-dir.stderr") == "exit=1"
    assert exits.pop("fit-same-path.stderr") == "exit=1"
    assert exits.pop("benchmark-summary-missing-dir.stderr") == "exit=1"
    assert exits.pop("fit-out-dir.stderr") == "exit=1"
    assert exits.pop("simulate-out-slash.stderr") == "exit=1"
    assert exits.pop("impute-doc-cardinalities.stderr") == "exit=1"
    assert exits.pop("fit-empty-khist.stderr") == "exit=1"
    assert exits.pop("impute-empty-cells.stderr") == "exit=1"
    assert exits.pop("independence-empty-out.stderr") == "exit=1"
    assert exits.pop("impute-missing-dir.stderr") == "exit=1"
    assert exits.pop("independence-missing-dir.stderr") == "exit=1"
    assert exits.pop("impute-late-bad-draw.stderr") == "exit=1"
    assert exits.pop("impute-truncated-model.stderr") == "exit=1"
    assert exits.pop("impute-piped-truncated.stderr") == "exit=1"
    assert exits.pop("fit-out-is-input.stderr") == "exit=1"
    assert set(exits.values()) == {"exit=0"}
    assert [line.split()[0] for line in lines[streams:]] == [
        "argmax.csv", "argmax.csv.cells.csv", "binary.csv", "complete.csv",
        "five.csv", "hundred-argmax.csv", "hundred-argmax.csv.cells.csv",
        "hundred-sample.csv", "hundred-sample.csv.cells.csv", "hundred.json",
        "hundred.json.khist.csv", "mar-mask.csv", "mar.csv", "mask.csv", "mcar-rate.csv",
        "messy-argmax.csv",
        "messy-argmax.csv.cells.csv", "messy-sample.csv",
        "messy-sample.csv.cells.csv", "messy.json", "messy.json.khist.csv",
        "mixed-argmax.csv",
        "mixed-argmax.csv.cells.csv", "mixed-sample.csv",
        "mixed-sample.csv.cells.csv", "mixed.json", "mixed.json.khist.csv",
        "mixture.csv", "mnar.csv", "model.json", "model.json.khist.csv",
        "piped.csv", "piped.csv.cells.csv", "pooled.json",
        "pooled.json.khist.csv", "pvalues.csv", "reps.csv", "sample.csv",
        "sample.csv.cells.csv", "summary.json", "truth.json",
        "unmasked-mask.csv", "unmasked.csv",
        "xor-argmax.csv", "xor-argmax.csv.cells.csv", "xor-mask.csv",
        "xor-sample.csv", "xor-sample.csv.cells.csv", "xor-truth.json",
        "xor.csv"]
    for line in lines:
        digest = line.split()[1]
        assert len(digest) == 40 and set(digest) <= set("0123456789abcdef")
    assert cli_hashes.masked(b"sweep 7/20 k=3\nfit: 9 rows, 3 draws, 1.5s\n") \
        == b"sweep 7/20 k=3\nfit: 9 rows, 3 draws, <elapsed>s\n"
