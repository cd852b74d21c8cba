"""The benchmark's trace mode still finds every catmix function it wraps.

``bench/spans.py`` replaces catmix functions by name, so a renamed
function or a changed signature would otherwise break only
``bench/run.py --trace 1``.  The tracer is installed in a fresh
process, as the benchmark's worker installs it.  ``catmix fit`` runs
the chain without ``run_gibbs``; a benchmark replication still calls it.
``catmix impute`` is traced too: the benchmark counts the imputed cells
from the result that ``inference.impute`` returns.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_FIT = """
import json
from catmix import cli
from spans import Tracer

tracer = Tracer()
tracer.install()
status = tracer.call("cli.main", cli.main, [
    "fit", "data.csv", "--out", "model.json", "--seed", "0",
    "--burnin", "3", "--samples", "2", "--thin", "1", "--progress-every", "0"])
names = [span[0] for span in tracer.spans]
metrics = tracer.layer_metrics()
impute_status = tracer.call("cli.main", cli.main, [
    "impute", "data.csv", "model.json", "--out", "filled.csv"])
impute_names = [span[0] for span in tracer.spans[len(names):]]
imputed_cells = tracer.layer_metrics()["inference.imputed_cells"]
done = len(tracer.spans)
bench_status = tracer.call("cli.main", cli.main, [
    "benchmark", "--protocol", "mixture", "--reps", "1", "--jobs", "1",
    "--n", "10", "--p", "3", "--seed", "0",
    "--burnin", "1", "--samples", "1", "--thin", "1"])
print(json.dumps({"status": status, "names": names, "metrics": metrics,
                  "impute_status": impute_status,
                  "impute_names": impute_names,
                  "imputed_cells": imputed_cells,
                  "bench_status": bench_status,
                  "bench_names": [span[0] for span in tracer.spans[done:]]}))
"""


def test_trace_sees_every_sweep_and_draw(tmp_path):
    (tmp_path / "data.csv").write_text(
        "a,b,c\n1,2,NA\n2,NA,1\n1,1,3\n2,2,2\nNA,1,1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave bench/ as it is
    proc = subprocess.run([sys.executable, "-c", TRACED_FIT], cwd=tmp_path,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["status"] == 0
    names = out["names"]
    # fit streams the chain itself, so only the sweeps and draws show
    assert "sampler.run_gibbs" not in names
    assert names.count("sampler.sweep") == 5
    assert names.count("sampler.collapse_state") == 2
    assert out["metrics"]["sampler.sweeps"] == 5.0
    # one imputation span, whose value is the table's three missing cells
    assert out["impute_status"] == 0
    assert out["impute_names"].count("inference.impute") == 1
    assert out["imputed_cells"] == 3.0
    # a replication still fits through run_gibbs
    assert out["bench_status"] == 0
    bench = out["bench_names"]
    assert bench.count("metrics.replicate") == 1
    assert bench.count("sampler.run_gibbs") == 1
    assert bench.count("sampler.sweep") == 2
    assert bench.count("sampler.collapse_state") == 1
