import contextlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="needs git")


@pytest.fixture()
def bench_pairs(tmp_path, monkeypatch):
    """The script as a module, with a one-commit repository as REPO."""
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t",
           "-c", "user.email=t@example.invalid"]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "marker.txt").write_text("first\n")
    subprocess.run(git + ["add", "marker.txt"], check=True)
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


def test_a_revision_is_checked_out_and_removed_afterwards(bench_pairs):
    module, repo = bench_pairs
    with contextlib.ExitStack() as stack:
        tree = module.checkout("HEAD~1", stack)
        assert (tree / "marker.txt").read_text() == "first\n"
        assert len(_worktrees(repo)) == 2
    assert not tree.exists()
    assert not tree.parent.exists()
    assert len(_worktrees(repo)) == 1


def test_neither_directory_nor_revision_is_refused(bench_pairs):
    module, _ = bench_pairs
    with pytest.raises(SystemExit, match="neither a directory nor a git"):
        with contextlib.ExitStack() as stack:
            module.checkout("no-such-revision", stack)
