"""Spans around catmix's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every catmix module that holds a reference to it (``metrics`` imports
``run_gibbs`` and friends by name), for the rest of the process.  Spans
are kept in memory as ``[name, parent, round, start_ns, end_ns, value]``
lists and written out once, when the traced process ends.  A
layer's self time is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

#: (module, function, span name, value recorded from the call).  The
#: run_gibbs span reports nothing itself; it keeps the chain's bookkeeping
#: out of its callers' self time.
TARGETS = (
    ("catmix.sampler", "run_gibbs", "sampler.run_gibbs", None),
    ("catmix.sampler", "collapse_state", "sampler.collapse_state", None),
    ("catmix.core", "parse_dataset", "core.parse_dataset", None),
    ("catmix.core", "serialize_models", "core.serialize_models",
     lambda args, out: len(out)),
    ("catmix.core", "deserialize_models", "core.deserialize_models", None),
    ("catmix.inference", "impute", "inference.impute",
     lambda args, out: len(out.cell_posteriors)),
    ("catmix.inference", "pool_draws", "inference.pool_draws", None),
    ("catmix.inference", "correlation_matrix",
     "inference.correlation_matrix", None),
    ("catmix.metrics", "_replicate", "metrics.replicate", None),
    ("catmix.synth", "sample_mixture_dataset",
     "synth.sample_mixture_dataset", None),
    ("catmix.synth", "mask", "synth.mask", None),
)

#: Span names whose summed self time per round is reported as ``<name>_s``.
SELF_TIMED = (
    "sampler.collapse_state", "core.collapsed_model", "inference.impute",
    "inference.pool_draws", "inference.correlation_matrix",
    "core.deserialize_models", "core.parse_dataset", "core.serialize_models",
    "synth.sample_mixture_dataset", "synth.mask",
)


class Tracer:
    def __init__(self, round_index: int = -1):
        self.spans: list[list] = []
        self.round = round_index
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.round, time.perf_counter_ns(),
                           0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, value=None, **kwargs):
        """Run ``fn`` inside a span; ``value(args, result)`` is recorded."""
        sid = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(sid)
        if value is not None:
            self.spans[sid][5] = value(args, out)
        return out

    def _wrap(self, name, fn, value):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, value=value, **kwargs)
        return traced

    def _wrap_sweeps(self, fn):
        """Time each step of ``iterate_states``, excluding its consumer.

        The first step includes building the chain and the initial
        one-row-per-component state; its value records the computed
        size of the padded psi array and the k after the sweep.
        """
        @functools.wraps(fn)
        def traced(data, *args, **kwargs):
            psi_bytes = 8 * data.n_rows * data.n_variables * (
                data.schema.max_cardinality + 1)
            states = fn(data, *args, **kwargs)
            first = True
            while True:
                sid = self._open("sampler.sweep")
                try:
                    state = next(states)
                except StopIteration:
                    self._close(sid)
                    del self.spans[sid]
                    return
                except BaseException:
                    self._close(sid)
                    raise
                self._close(sid)
                self.spans[sid][5] = {"first": first, "k": state.k,
                                      "rows": data.n_rows,
                                      "psi_bytes": psi_bytes}
                first = False
                yield state
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import catmix.core as core
        import catmix.sampler as sampler
        replacements = [(sampler.iterate_states,
                         self._wrap_sweeps(sampler.iterate_states))]
        for modname, attr, name, value in TARGETS:
            original = getattr(sys.modules[modname], attr)
            replacements.append((original, self._wrap(name, original, value)))
        for mod in [m for n, m in sys.modules.items()
                    if n == "catmix" or n.startswith("catmix.")]:
            for original, wrapper in replacements:
                for attr, current in list(vars(mod).items()):
                    if current is original:
                        setattr(mod, attr, wrapper)
        core.CollapsedModel.__post_init__ = self._wrap(
            "core.collapsed_model", core.CollapsedModel.__post_init__, None)

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Append the spans to ``path`` as JSON lines."""
        keys = ("name", "parent", "round", "start_ns", "end_ns", "value")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by its child spans."""
        own = [(s[4] - s[3]) / 1e9 for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= (s[4] - s[3]) / 1e9
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced in this process."""
        spans = list(zip(self.spans, self.self_times()))
        out = {f"{name}_s": 0.0 for name in SELF_TIMED}
        out["cli.self_s"] = 0.0
        for s, self_s in spans:
            if s[0] in SELF_TIMED:
                out[f"{s[0]}_s"] += self_s
            elif s[0] == "cli.main":
                out["cli.self_s"] += self_s

        def total(s):
            return (s[4] - s[3]) / 1e9

        sweeps = [s for s, _ in spans if s[0] == "sampler.sweep"]
        steady = [s for s in sweeps if not s[5]["first"]]
        first = [s for s in sweeps if s[5]["first"]]
        out["sampler.sweeps"] = float(len(sweeps))
        out["sampler.steady_sweep_ms"] = _median(
            [1e3 * total(s) for s in steady])
        busy = sum(total(s) for s in steady)
        out["sampler.row_visits_per_s"] = (
            sum(s[5]["rows"] for s in steady) / busy if busy else 0.0)
        out["sampler.mean_k"] = (
            statistics.fmean(s[5]["k"] for s in steady) if steady else 0.0)
        out["sampler.first_sweep_s"] = _median([total(s) for s in first])
        out["sampler.k_first"] = _median([s[5]["k"] for s in first])
        out["sampler.init_psi_mb"] = _median(
            [s[5]["psi_bytes"] / 1e6 for s in first])
        reps = [total(s) for s, _ in spans if s[0] == "metrics.replicate"]
        out["metrics.replication_s"] = _median(reps)
        out["metrics.replications"] = float(len(reps))
        out["inference.imputed_cells"] = float(sum(
            s[5] for s, _ in spans if s[0] == "inference.impute"))
        out["core.model_json_mb"] = sum(
            s[5] for s, _ in spans if s[0] == "core.serialize_models") / 1e6
        return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
