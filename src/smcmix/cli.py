"""Command-line frontend.

Subcommands: ``fit``, ``select``, ``simulate``, ``bench``, ``classify``,
``graph``.  Exit codes: 0 on success, 2 on input errors, 3 on numerical
failures; error paths emit one machine-readable JSON line on stderr and
never leave partial output files behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import dataio, fixtures
from .em import EmConfig, e_step, fit, map_cluster
from .errors import DataError, NumericalError, SmcmixError
from .initialization import RESTARTS, initial_model
from .selection import select_g
from .sim import run_benchmark, simulate_panel

_F = "{:.6f}".format


def _fail(exc: BaseException) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc), file=sys.stderr)


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="panel CSV (subject,replication,attribute,onset[,end])")
    p.add_argument("--attributes", help="comma-separated label list fixing the state order")
    p.add_argument("--absorbing", default=dataio.DEFAULT_ABSORBING_LABEL,
                   help="absorbing attribute label (default %(default)s)")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--ends", help="sidecar CSV with columns subject,replication,end")


def _add_em_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--penalized", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--max-iter", type=int, default=EmConfig.max_iter)
    p.add_argument("--rel-tol", type=float, default=EmConfig.rel_tol)
    p.add_argument("--z-round", type=float, default=EmConfig.z_round)
    p.add_argument("--min-obs", type=int, default=EmConfig.min_obs_mass)
    p.add_argument("--seed", type=int, default=EmConfig.seed)
    p.add_argument("--restarts", type=int, default=RESTARTS)


def _read_panel(args, labels=None, absorbing_label=None):
    """Read ``--data``; ``labels`` and ``absorbing_label`` default to
    ``--attributes`` and ``--absorbing``."""
    if labels is None and args.attributes:
        labels = [s.strip() for s in args.attributes.split(",") if s.strip()]
    return dataio.read_panel(
        args.data,
        labels=labels,
        absorbing_label=args.absorbing if absorbing_label is None else absorbing_label,
        delimiter=args.delimiter,
        ends_path=args.ends,
    )


def _em_config(args) -> EmConfig:
    return EmConfig(
        max_iter=args.max_iter,
        rel_tol=args.rel_tol,
        z_round=args.z_round,
        min_obs_mass=args.min_obs,
        penalized=args.penalized,
        seed=args.seed,
    )


def _resolve_scenario(ref: str):
    if os.path.exists(ref):
        return dataio.read_scenario(ref)
    if ref in fixtures.BUNDLED_SCENARIOS:
        return fixtures.benchmark_scenario(ref)
    raise DataError(f"scenario {ref!r} is neither a file nor a bundled name "
                    f"{fixtures.BUNDLED_SCENARIOS}")


def _cmd_fit(args) -> int:
    panel, report = _read_panel(args)
    cfg = _em_config(args)
    init, _ = initial_model(panel, args.n_components, seed=args.seed,
                            restarts=args.restarts, min_obs_mass=args.min_obs)
    result = fit(panel, init, cfg)
    dataio.write_model(args.out, result.model)

    labels = map_cluster(result.posteriors)
    sizes = np.bincount(labels, minlength=args.n_components)
    print(f"subjects: {panel.n_subjects}")
    print(f"replications: {panel.n_replications}")
    print(f"states: {panel.space.n_states}")
    print(f"merged_rows: {report.merge_count}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    print(f"loglik: {_F(result.loglik)}")
    print(f"objective: {_F(result.objective_trace[-1])}")
    print("cluster_sizes:", " ".join(str(int(s)) for s in sizes))
    print(f"warnings: {len(result.warnings)}")
    for w in result.warnings:
        print(f"  - {w}")
    if args.posteriors:
        dataio.write_csv(
            args.posteriors,
            ["subject"] + [f"comp_{g + 1}" for g in range(args.n_components)],
            ([sid, *z] for sid, z in zip(report.subject_ids, result.posteriors.z)),
        )
    return 0


def _cmd_select(args) -> int:
    panel, _ = _read_panel(args)
    cfg = _em_config(args)
    sweep = select_g(
        panel,
        range(args.g_min, args.g_max + 1),
        cfg,
        sample_size=args.sample_size,
        restarts=args.restarts,
    )
    header = f"{'G':>3} {'loglik':>14} {'q':>6} {'BIC':>14} {'AIC':>14} {'AICc':>14}"
    print(header)
    for row in sweep.rows:
        aicc = _F(row.aicc) if row.aicc is not None else "n/a"
        print(f"{row.n_components:>3} {_F(row.loglik):>14} {row.q:>6} "
              f"{_F(row.bic):>14} {_F(row.aic):>14} {aicc:>14}")
    for name in ("bic", "aic", "aicc"):
        if name in sweep.chosen:
            print(f"chosen_{name}: {sweep.chosen[name]}")
    for w in sweep.warnings:
        print(f"warning: {w}")
    if args.out:
        dataio.write_csv(
            args.out,
            ["G", "loglik", "q", "bic", "aic", "aicc"],
            ([row.n_components, row.loglik, row.q, row.bic, row.aic, row.aicc]
             for row in sweep.rows),
        )
    return 0


def _cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    panel, labels = simulate_panel(scenario)
    dataio.write_panel(args.out, panel)
    if args.labels:
        dataio.write_labels(args.labels, [str(i + 1) for i in range(panel.n_subjects)], labels)
    print(f"subjects: {panel.n_subjects}")
    print(f"replications: {panel.n_replications}")
    print(f"trajectories: {panel.n_subjects * panel.n_replications}")
    return 0


def _cmd_bench(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    if args.replicates is not None:
        scenario = replace(scenario, replicate_count=args.replicates)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    cfg = _em_config(args)
    g_range = None
    if args.g_min is not None or args.g_max is not None:
        lo = args.g_min if args.g_min is not None else 1
        hi = args.g_max if args.g_max is not None else lo
        g_range = range(lo, hi + 1)
    result = run_benchmark(scenario, cfg, g_range=g_range, restarts=args.restarts)
    table = result.table()
    print(f"{'metric':<16} {'mean':>12} {'sd':>12}")
    for name, (mean, sd) in table.items():
        print(f"{name:<16} {_F(mean):>12} {_F(sd):>12}")
    for crit, hist in result.histograms.items():
        picks = " ".join(f"G={g}:{c}" for g, c in sorted(hist.items()))
        print(f"{crit}_picks: {picks}")
    if args.out:
        def rows():
            for name, (mean, sd) in table.items():
                yield [name, mean, sd]
            for crit, hist in result.histograms.items():
                for g, c in sorted(hist.items()):
                    yield [f"{crit}_picks_{g}", c, None]

        dataio.write_csv(args.out, ["metric", "mean", "sd"], rows())
    return 0


def _cmd_classify(args) -> int:
    # The model's state space defines the label order; reading the data any
    # other way would silently permute state indices.
    model = dataio.read_model(args.model)
    if args.attributes:
        raise DataError("--attributes conflicts with --model; the model fixes the labels")
    absorbing_label = None
    if model.space.absorbing is not None:
        absorbing_label = model.space.labels[model.space.absorbing]
    panel, report = _read_panel(args, list(model.space.labels), absorbing_label)
    if panel.space != model.space:
        raise DataError(
            "data and model disagree about the absorbing state "
            f"({panel.space.absorbing} vs {model.space.absorbing})"
        )
    posteriors = e_step(panel, model, z_round=args.z_round)
    labels = map_cluster(posteriors)
    dataio.write_labels(args.out, report.subject_ids, labels)
    sizes = np.bincount(labels, minlength=model.n_components)
    print("cluster_sizes:", " ".join(str(int(s)) for s in sizes))
    return 0


def _cmd_graph(args) -> int:
    panel, report = _read_panel(args)
    subjects = None
    if args.labels:
        if args.cluster is None:
            raise DataError("--cluster is required when --labels is given")
        assignment = dataio.read_labels(args.labels)
        subjects = [
            i for i, sid in enumerate(report.subject_ids)
            if assignment.get(sid) == args.cluster - 1
        ]
        if not subjects:
            raise DataError(f"no subjects in cluster {args.cluster}")
    dot = dataio.export_tds_graph(
        panel,
        subjects=subjects,
        prob_threshold=args.prob_threshold,
        elicit_frac=args.elicit_frac,
    )
    if args.out:
        dataio.write_text(args.out, dot)
    else:
        print(dot, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcmix",
        description="Cluster panels of categorical trajectories with mixtures "
                    "of semi-Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a mixture with the penalized EM")
    _add_data_options(p)
    _add_em_options(p)
    p.add_argument("--components", "-G", type=int, required=True, dest="n_components",
                   metavar="COMPONENTS")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--posteriors", help="optional responsibilities CSV")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("select", help="sweep component counts and rank by information criteria")
    _add_data_options(p)
    _add_em_options(p)
    p.add_argument("--g-min", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--sample-size", type=int, help="observation count used by the criteria (default n*B)")
    p.add_argument("--out", help="optional criteria CSV")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="simulate a panel from a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
    p.add_argument("--out", required=True, help="output panel CSV")
    p.add_argument("--labels", help="optional true-labels CSV")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="Monte-Carlo recovery benchmark")
    p.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
    p.add_argument("--replicates", type=int, help="override the scenario replicate count")
    _add_em_options(p)
    p.add_argument("--g-min", type=int, help="sweep component counts from this value")
    p.add_argument("--g-max", type=int, help="sweep component counts up to this value")
    p.add_argument("--out", help="optional aggregate CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("classify", help="assign subjects to components of a fitted model")
    _add_data_options(p)
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--out", required=True, help="output labels CSV")
    p.add_argument("--z-round", type=float, default=EmConfig.z_round)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("graph", help="export the dominance-transition graph as DOT")
    _add_data_options(p)
    p.add_argument("--labels", help="labels CSV restricting the graph to one cluster")
    p.add_argument("--cluster", type=int, help="1-based cluster id within --labels")
    p.add_argument("--prob-threshold", type=float, default=0.15)
    p.add_argument("--elicit-frac", type=float, default=0.5)
    p.add_argument("--out", help="output DOT file (stdout if omitted)")
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError, ValueError) as exc:
        _fail(exc)
        return 2
    except NumericalError as exc:
        _fail(exc)
        return 3
    except SmcmixError as exc:
        _fail(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
