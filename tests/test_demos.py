"""The quick demos and README's quick start run end to end; the slow
benchmark demos are left out."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv, **kwargs):
    """Run ``argv`` with this repository's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120, **kwargs)


@pytest.mark.parametrize(
    "demo", ["representability.py", "fit_and_impute.py", "ratings_pipeline.py"])
def test_demo_runs_cleanly(demo):
    proc = _run([sys.executable, str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if demo == "representability.py":
        assert "tables identical: True" in proc.stdout


def _readme_block(lang):
    """The first fenced ``lang`` block of README.md."""
    text = (ROOT / "README.md").read_text()
    return re.search(rf"^```{lang}\n(.*?)^```", text, re.M | re.S).group(1)


def test_readme_quick_start_runs(tmp_path):
    # the quick start reads the data-format example as survey.csv
    (tmp_path / "survey.csv").write_text(_readme_block("csv"))
    proc = _run([sys.executable, "-c", _readme_block("python")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
