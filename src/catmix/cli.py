"""
Command line entry points.

Every subcommand honors ``--seed`` for end-to-end reproducibility, logs
only to standard error, and hands all its output files to one atomic
write (temp files, opened before any work and renamed once all are
written): a failed command leaves none of them, and a path named twice
is refused.  ``fit`` writes each retained draw as the chain keeps it, so
its memory does not grow with ``--samples`` unless ``--summary`` pools
the draws.  ``benchmark`` claims ``--out`` and ``--summary-out`` before
any fit, rewrites both after each replication, and removes them if none
is written.  ``impute`` holds one chunk of the model file and one group
of draws, folding each draw in as it is decoded, and writes its cell CSV
a block of cells at a time.
Exit codes: 0 on success, 1 on runtime or contract errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from catmix import core, inference, metrics, sampler, synth

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Flag helpers
# ---------------------------------------------------------------------------

def _bounded(cast, ok, rule: str):
    """Flag type: convert with ``cast``, then require ``ok(value)``."""
    kind = "a number" if cast is float else "an integer"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    return parse


_positive_float = _bounded(float, lambda v: v > 0, "must be positive")
_rate = _bounded(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_positive_int = _bounded(int, lambda v: v >= 1, "must be >= 1")
_nonneg_int = _bounded(int, lambda v: v >= 0, "must be >= 0")
_zero = _bounded(int, lambda v: v == 0, "must be 0")


def _rate_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated rates, got {text!r}"
        )
    return (_rate(parts[0]), _rate(parts[1]))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _write_atomic(*outputs, inputs=()) -> None:
    """Write each ``(path, pieces)`` of ``outputs`` whose path is not None,
    ``pieces`` an iterable of strings, through temporary files opened before
    any piece is read and renamed once all are written.  A path that is
    unwritable, empty, ends in a separator, is a directory or names one file
    with another or with one of the command's ``inputs`` fails before any
    work; a failed write leaves no file.  An ``OSError`` names the path as
    given, not the temporary file."""
    outputs = [(path, pieces) for path, pieces in outputs if path is not None]
    for path, _ in outputs:
        if os.path.isdir(path) or not os.path.basename(path):
            why = "Is a directory" if os.path.isdir(path) else "no file name"
            raise OSError(f"cannot write {path or repr(path)}: {why}")
    real = [os.path.realpath(path) for path, _ in outputs]
    if twice := [path for (path, _), r in zip(outputs, real) if real.count(r) > 1]:
        raise ValueError(f"one file named as two outputs: {', '.join(map(str, twice))}")
    read = {os.path.realpath(path) for path in inputs}
    if clash := [path for (path, _), r in zip(outputs, real) if r in read]:
        raise ValueError(f"output names an input file: {', '.join(map(str, clash))}")
    with contextlib.ExitStack() as stack:
        try:
            files = []
            for i, (path, _) in enumerate(outputs):
                tmp = Path(path).with_name(f".{Path(path).name}.tmp{os.getpid()}.{i}")
                stack.callback(tmp.unlink, missing_ok=True)
                files.append((tmp, stack.enter_context(open(tmp, "w"))))
            for (path, pieces), (_, f) in zip(outputs, files):
                with f:
                    f.writelines(pieces)
            for (path, _), (tmp, _) in zip(outputs, files):
                os.replace(tmp, path)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _add_gibbs_flags(sub: argparse.ArgumentParser) -> None:
    default = sampler.GibbsConfig()
    sub.add_argument("--burnin", type=_nonneg_int, default=default.burnin,
                     help="discarded initial sweeps (default %(default)s)")
    sub.add_argument("--samples", type=_positive_int, default=default.samples,
                     help="retained posterior draws (default %(default)s)")
    sub.add_argument("--thin", type=_positive_int, default=default.thin,
                     help="sweeps between retained draws (default %(default)s)")
    sub.add_argument("--alpha", type=_positive_float, default=default.alpha,
                     help="partition concentration (default %(default)s)")
    sub.add_argument("--beta", type=_positive_float, default=default.beta,
                     help="flat Dirichlet pseudo-count (default %(default)s)")


def _add_table_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--protocol", choices=metrics.PROTOCOLS, required=True)
    sub.add_argument("--n", type=_positive_int, help="rows")
    sub.add_argument("--p", type=_positive_int, help="mixture variables")
    sub.add_argument("--k", type=_positive_int, help="mixture components")
    sub.add_argument("--cardinality",
                     type=_bounded(int, lambda v: v >= 2, "must be >= 2"),
                     help="categories per mixture variable")
    sub.add_argument("--seed", type=_nonneg_int, default=None)


def _add_mechanism_flags(sub: argparse.ArgumentParser, *, with_none: bool) -> None:
    choices = ["mcar", "mar", "mnar"] + (["none"] if with_none else [])
    sub.add_argument("--mechanism", choices=choices,
                     default="none" if with_none else "mcar",
                     help="missingness mechanism")
    sub.add_argument("--mcar-rate", type=lambda text: (_rate(text),),
                     help="MCAR per-cell masking rate")
    sub.add_argument("--mar-rates", type=_rate_pair, metavar="R1,R2",
                     help="MAR rates keyed on the first variable")
    sub.add_argument("--mnar-rates", type=_rate_pair, metavar="R1,R2",
                     help="MNAR rates keyed on the cell value")


#: Flags read under one choice only: destination -> (choosing flag, choice).
_READ_UNDER = {
    "mcar_rate": ("mechanism", "mcar"),
    "mar_rates": ("mechanism", "mar"),
    "mnar_rates": ("mechanism", "mnar"),
    "p": ("protocol", "mixture"),
    "k": ("protocol", "mixture"),
    "cardinality": ("protocol", "mixture"),
    "cutoff": ("coding", "binary"),
}
#: The table flags, each passed to the protocol's generator when given.
_TABLE = ("n", "p", "k", "cardinality")


def _given(args, *dests) -> dict:
    """The given flags among ``dests``, as keywords for the library."""
    return {d: vars(args)[d] for d in dests if vars(args)[d] is not None}


def _mechanism(args) -> synth.MechanismSpec:
    if args.mechanism == "none":  # a rate that masks no cell
        return synth.MechanismSpec.mcar(0.0)
    # _READ_UNDER leaves at most one rate flag, the chosen mechanism's own
    rates = _given(args, "mcar_rate", "mar_rates", "mnar_rates").values()
    return synth.MechanismSpec(args.mechanism, *rates)


def _gibbs_config(args) -> sampler.GibbsConfig:
    return sampler.GibbsConfig(
        burnin=args.burnin, samples=args.samples, thin=args.thin,
        alpha=args.alpha, beta=args.beta,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    text = Path(args.input).read_text()
    schema = core.CategoricalSchema(args.schema) if args.schema else None
    data = core.parse_dataset(text, schema)
    config = _gibbs_config(args)
    started = time.perf_counter()
    k_values: list[int] = []

    def draws():
        for model in sampler._retained(data, config, args.seed,
                                       args.progress_every):
            k_values.append(model.k)
            yield model

    def pooled():  # the one-draw case of the draws document
        yield inference.pool_draws(draws())

    def histogram():
        hist = sampler.k_histogram(k_values)
        yield core._csv(("k", "count"), sorted(hist.items()))

    # the chain runs as the model file is written, once both are open
    _write_atomic((args.out, core._document(pooled() if args.summary
                                            else draws())),
                  (f"{args.out}.khist.csv" if args.k_histogram is None
                   else args.k_histogram, histogram()), inputs=[args.input])
    _log(
        f"fit: {data.n_rows} rows, {data.n_variables} variables, "
        f"{len(k_values)} draws, modal k={sampler.modal_k(k_values)}, "
        f"{time.perf_counter() - started:.1f}s"
    )
    return 0


def _cmd_impute(args) -> int:
    # decoded as they are folded in
    draws = core._models(core._Utf8(open(args.model, "rb")))
    first = next(draws)
    data = core.parse_dataset(Path(args.input).read_text(), first.schema)
    result = None

    def completed():
        nonlocal result
        result = inference.impute(data, itertools.chain([first], draws),
                                  rule=args.rule, seed=args.seed)
        yield core.dataset_to_csv(result.completed)

    def cells():
        yield from core._cell_lines(data.column_names, data.schema,
                                    result.filled, result.cell_posteriors)

    # the imputation runs as the first file is written, once both are open
    _write_atomic((args.out, completed()),
                  (f"{args.out}.cells.csv" if args.cell_posterior is None
                   else args.cell_posterior, cells()),
                  inputs=[args.input, args.model])
    _log(
        f"impute: filled {len(result.cell_posteriors)} cells "
        f"({args.rule} rule) in {data.n_rows} rows"
    )
    return 0


def _cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    data, truth_model = metrics.simulate(args.protocol, seed=rng,
                                         **_given(args, *_TABLE))

    out_data, record = synth.mask(data, _mechanism(args), seed=rng)

    names = (data.column_names[j] for j in record.cols.tolist())
    rows = zip(record.rows.tolist(), names, record.values.tolist())
    # each map renders only if its path is given, once every file is open
    _write_atomic((args.out, map(core.dataset_to_csv, [out_data])),
                  (args.complete_out, map(core.dataset_to_csv, [data])),
                  (args.truth_out, core._document([truth_model])),
                  (args.mask_out, map(core._csv, [("row", "column", "value")], [rows])))
    _log(
        f"simulate: {data.n_rows}x{data.n_variables} {args.protocol} data, "
        f"{len(record)} cells masked"
    )
    return 0


def _cmd_benchmark(args) -> int:
    mechanism = _mechanism(args)
    gibbs = _gibbs_config(args)
    final = None  # the report of the replications written so far

    def on_result(report: metrics.ReplicationReport) -> None:
        nonlocal final
        rep = report.per_replication[-1]
        shown = ", ".join(f"{k}={v:.4f}" for k, v in rep.items())
        _log(f"replication {report.n_replications}/{args.reps}: {shown}")
        summary = json.dumps(report.summary(), indent=2) + "\n"
        _write_atomic((args.out, [report.to_csv()]), (args.summary_out, [summary]))
        final = report

    _write_atomic((args.out, []), (args.summary_out, []))  # claimed before any fit
    try:
        metrics.run_replications(
            args.protocol, mechanism, reps=args.reps, gibbs=gibbs,
            seed=args.seed, jobs=args.jobs, on_result=on_result,
            **_given(args, *_TABLE),
        )
    except OSError:
        raise  # writing --out failed (or the system did); main names it
    except Exception as exc:
        done = final.n_replications if final else 0
        _log(f"replication {done + 1} failed: {exc}")
    finally:
        if final is None:  # the claimed files hold no replication
            for path in filter(None, (args.out, args.summary_out)):
                Path(path).unlink(missing_ok=True)

    if final is None:
        return 1
    for name in final.metric_names:
        _log(f"{name}: mean={final.means[name]:.4f} sd={final.sds[name]:.4f}")
    return 1 if final.n_replications < args.reps else 0


def _cmd_test_independence(args) -> int:
    pooled = inference.pool_draws(
        core._models(core._Utf8(open(args.model, "rb"))))
    pairs = []

    def payload():  # the tests run once --out is open
        pairs.extend(inference.pairwise_independence(pooled, args.n))
        yield core._csv(("j1", "j2", "p_value"), pairs)

    _write_atomic((args.out, payload()), inputs=[args.model])  # none without --out
    if args.out is None:
        sys.stdout.writelines(payload())
    _log(f"test-independence: {len(pairs)} pairs at n={args.n}")
    return 0


def _cmd_preprocess_ratings(args) -> int:
    triples = synth.parse_ratings_csv(Path(args.input).read_text())
    given = _given(args, "item_threshold", "user_threshold", "cutoff")
    data = None

    def payload():  # the table is coded once --out is open
        nonlocal data
        data = synth.preprocess_ratings(triples, coding=args.coding, **given)
        yield core.dataset_to_csv(data)

    _write_atomic((args.out, payload()), inputs=[args.input])
    _log(
        f"preprocess-ratings: {data.n_rows} users x {data.n_variables} items, "
        f"{data.n_missing() / data.cells.size:.2%} missing"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catmix",
        description=(
            "Mixture modeling and imputation for incomplete categorical data."
        ),
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    fit = subs.add_parser("fit", help="fit the mixture to a CSV dataset")
    fit.add_argument("input", help="dataset CSV (codes 1..d, NA = missing)")
    fit.add_argument("--out", required=True, help="model JSON output path")
    fit.add_argument("--schema", type=_int_list, default=None,
                     metavar="D1,D2,...",
                     help="explicit cardinalities (default: inferred)")
    fit.add_argument("--summary", action="store_true",
                     help="write one pooled model instead of all draws")
    fit.add_argument("--k-histogram", default=None,
                     help="component-count histogram CSV (default OUT.khist.csv)")
    fit.add_argument("--seed", type=_nonneg_int, default=None)
    _add_gibbs_flags(fit)
    fit.add_argument("--progress-every", type=_nonneg_int, default=50,
                     help="progress line interval in sweeps; 0 silences "
                          "(default %(default)s)")
    fit.set_defaults(func=_cmd_fit)

    imp = subs.add_parser("impute", help="fill missing cells from a fitted model")
    imp.add_argument("input", help="dataset CSV")
    imp.add_argument("model", help="model JSON from fit")
    imp.add_argument("--out", required=True, help="completed CSV output path")
    imp.add_argument("--cell-posterior", default=None,
                     help="per-cell predictive CSV (default OUT.cells.csv)")
    imp.add_argument("--rule", choices=["argmax", "sample"], default="argmax")
    imp.add_argument("--seed", type=_nonneg_int, default=None,
                     help="seed for the sample rule")
    imp.set_defaults(func=_cmd_impute)

    sim = subs.add_parser("simulate", help="generate synthetic benchmark data")
    _add_table_flags(sim)
    sim.add_argument("--out", required=True, help="dataset CSV output path")
    sim.add_argument("--complete-out", default=None,
                     help="also write the unmasked data")
    sim.add_argument("--truth-out", default=None,
                     help="write the generating mixture as model JSON")
    sim.add_argument("--mask-out", default=None,
                     help="write masked coordinates and true values as CSV")
    _add_mechanism_flags(sim, with_none=True)
    sim.set_defaults(func=_cmd_simulate)

    bench = subs.add_parser("benchmark", help="run replicated benchmarks")
    _add_table_flags(bench)
    bench.add_argument("--reps", type=_positive_int, default=20)
    bench.add_argument("--out", default=None,
                       help="per-replication CSV (claimed before any fit, "
                            "rewritten after each replication)")
    bench.add_argument("--summary-out", default=None,
                       help="summary JSON, claimed and rewritten together with --out")
    bench.add_argument("--jobs", type=_positive_int,
                       default=os.cpu_count() or 1,
                       help="worker processes (default: available cores)")
    _add_mechanism_flags(bench, with_none=False)
    _add_gibbs_flags(bench)
    bench.add_argument("--progress-every", type=_zero, default=0,
                       help="must be 0: replications print no sweep lines")
    bench.set_defaults(func=_cmd_benchmark)

    ind = subs.add_parser(
        "test-independence",
        help="Fisher exact tests for all variable pairs of a binary model",
    )
    ind.add_argument("model", help="model JSON from fit")
    ind.add_argument("--n", type=_positive_int, required=True,
                     help="effective sample size for the count tables")
    ind.add_argument("--out", default=None,
                     help="output CSV (default: stdout); 0-based indices, "
                          "sorted by ascending p-value")
    ind.set_defaults(func=_cmd_test_independence)

    prep = subs.add_parser(
        "preprocess-ratings",
        help="filter and code a (user,item,rating) CSV into a dataset",
    )
    prep.add_argument("input", help="ratings CSV with a header row")
    prep.add_argument("--out", required=True, help="dataset CSV output path")
    prep.add_argument("--coding", choices=["binary", "five"], default="binary")
    prep.add_argument("--cutoff", type=_positive_float,
                      help="binary coding like-threshold")
    prep.add_argument("--item-threshold", type=_rate,
                      help="keep items rated by > this fraction of users")
    prep.add_argument("--user-threshold", type=_rate,
                      help="keep users rating > this fraction of kept items")
    prep.set_defaults(func=_cmd_preprocess_ratings)

    for sub in subs.choices.values():
        sub.set_defaults(usage_error=sub.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, (chooser, choice) in _READ_UNDER.items():
        if vars(args).get(dest) is not None and vars(args)[chooser] != choice:
            args.usage_error(f"argument --{dest.replace('_', '-')}: "
                             f"applies only to --{chooser} {choice}")
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
