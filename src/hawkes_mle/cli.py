"""Command line: simulate, fit, benchmark, consistency, stationarity, ingestion.

Exit codes: 0 success, 1 usage/config error, 2 domain error (non-stationary
parameters, infeasible initialization, a recipe with no stationary draw), 3
data error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .io import (
    ConfigError,
    DataError,
    _read,
    check_output_path,
    check_report_dir,
    domain_from_config,
    experiment_from_config,
    hyperparams_from_config,
    ingest_lobster,
    ingest_memetracker,
    init_from_config,
    load_config,
    read_events,
    read_params,
    reg_c_from_config,
    spec_from_config,
    write_events,
    write_params,
    write_report,
    write_trace,
)
from .likelihood import LikelihoodProblem
from .model import _RULES, DomainError, _require, branching_matrix, spectral_radius
from .model import stationary_mean_intensity
from .optim import RUNNERS, HyperParamsError, InfeasibleInitError
from .simulate import SimConfig, SimulationCapError
from .simulate import simulate_cluster, simulate_thinning

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_DATA = 3


def cmd_simulate(args):
    config = _read("--seed, --max-events", SimConfig, args.seed, args.max_events)
    doc = load_config(args.config, require=("model", "init", "horizon"))
    spec = spec_from_config(doc)
    params = init_from_config(doc, spec)
    if args.horizon is not None:
        doc["horizon"] = _require("--horizon", args.horizon, _RULES["nonnegative"], ConfigError)
    horizon = float(doc["horizon"])
    check_output_path(args.out)
    sim = simulate_cluster if args.method == "cluster" else simulate_thinning
    events = sim(spec, params, horizon, config)
    write_events(args.out, events)
    lam_bar = stationary_mean_intensity(spec, params)
    counts = events.counts(spec.K)
    rate = counts / horizon if horizon > 0 else np.zeros(spec.K)
    print(f"wrote {len(events)} events to {args.out} (horizon {horizon})")
    for i in range(spec.K):
        print(
            f"type {i}: count {counts[i]}, empirical rate {rate[i]:.6g}, "
            f"stationary mean {lam_bar[i]:.6g}"
        )
    return EXIT_OK


# The table the fit command dispatches through (the same dict as
# optim.RUNNERS), kept under this name so a profiler can wrap its entries.
_RUNNERS = RUNNERS


def cmd_fit(args):
    doc = load_config(
        args.config,
        require=("model", "domain", "init", "regularization", "optimizer", "horizon"),
    )
    spec = spec_from_config(doc)
    domain = domain_from_config(doc, spec)
    init = init_from_config(doc, spec)
    reg_c = reg_c_from_config(doc)
    horizon = float(doc["horizon"])
    hp, algorithm = hyperparams_from_config(
        doc, allow_noncompliant=args.allow_noncompliant_hp, algo=args.algo, iters=args.iters)
    check_output_path(args.out)
    if args.trace:
        check_output_path(args.trace)
    events = read_events(args.events, horizon=horizon)
    problem = LikelihoodProblem(spec, events, domain, reg_c=reg_c)
    res = _RUNNERS[algorithm](problem, hp, init)
    meta = {
        "algorithm": algorithm,
        "iterations": hp.max_iters,
        "accepted_aa": res.accepted_aa,
        "rejected_aa": res.rejected_aa,
        "events": args.events,
        "n_events": len(events),
        "horizon": horizon,
        "reg_c": reg_c,
    }
    write_params(args.out, spec, res.params, objective=res.final_objective, meta=meta)
    if args.trace:
        write_trace(args.trace, res.trace)
    print(
        f"fit {algorithm}: {hp.max_iters} iterations, "
        f"final objective {res.final_objective:.6f}, wrote {args.out}"
    )
    return EXIT_OK


def cmd_check_stationarity(args):
    spec, params, _, _ = read_params(args.params)
    G = branching_matrix(spec, params)
    radius = spectral_radius(G)
    print("branching matrix:")
    for row in G:
        print("  " + " ".join(f"{v:.6g}" for v in row))
    print(f"spectral radius: {radius:.6g}")
    if radius >= 1.0:
        print("non-stationary: spectral radius >= 1")
        return EXIT_DOMAIN
    lam_bar = stationary_mean_intensity(spec, params)
    print("stationary mean intensity: " + " ".join(f"{v:.6g}" for v in lam_bar))
    return EXIT_OK


def cmd_benchmark(args):
    check_report_dir(args.out, experiments.BenchmarkReport)
    _, instance, kwargs = experiment_from_config(args.config, "benchmark")
    report = experiments.run_benchmark(instance, **kwargs)
    write_report(args.out, report)
    for algo in report.algorithms:
        print(f"{algo}: median final objective {report.median_final(algo):.6f}")
    print(f"wrote report to {args.out}")
    return EXIT_OK


def cmd_consistency(args):
    check_report_dir(args.out, experiments.ConsistencyReport)
    recipe, _, kwargs = experiment_from_config(args.config, "consistency")
    report = experiments.run_consistency_study(recipe, **kwargs)
    write_report(args.out, report)
    for T, med in sorted(report.medians.items()):
        print(f"T={T:g}: median relative error {med:.6g}")
    print(f"wrote report to {args.out}")
    return EXIT_OK


def cmd_ingest_lobster(args):
    check_output_path(args.out)
    summary = ingest_lobster(
        args.messages, args.types, args.out, max_bad_fraction=args.max_bad_fraction
    )
    print(
        f"read {summary['rows_read']} rows: wrote {summary['rows_written']}, "
        f"dropped {summary['rows_unmapped']} unmapped, "
        f"{summary['rows_bad']} unparseable"
    )
    return EXIT_OK


def cmd_ingest_memetracker(args):
    check_output_path(args.out)
    summary = ingest_memetracker(args.posts, args.groups, args.out)
    print(
        f"wrote {summary['rows_written']} events, "
        f"dropped {summary['rows_unmapped']} unmapped"
    )
    return EXIT_OK


def _fraction(text):
    """The ``--max-bad-fraction`` value: a finite number in [0, 1]."""
    value = float(text)  # a malformed number is argparse's "invalid _fraction value"
    return _require("max_bad_fraction", value, _RULES["fraction"], argparse.ArgumentTypeError)


def build_parser():
    p = argparse.ArgumentParser(
        prog="hawkes-mle",
        description="Simulate multivariate Hawkes processes and fit "
        "regularized MLEs with PALM, iPALM, or Anderson-accelerated iPALM.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="sample an event stream")
    s.add_argument("--config", required=True)
    s.add_argument("--horizon", type=float, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--method", choices=("cluster", "thinning"), default="cluster")
    s.add_argument("--max-events", type=int, default=10_000_000)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("fit", help="fit parameters to an event stream")
    s.add_argument("--events", required=True)
    s.add_argument("--config", required=True)
    s.add_argument("--algo", choices=experiments.ALGORITHMS, default=None)
    s.add_argument("--iters", type=int, default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--trace", default=None)
    s.add_argument("--allow-noncompliant-hp", action="store_true")
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("benchmark", help="compare algorithms on a synthetic recipe")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_benchmark)

    s = sub.add_parser("consistency", help="parameter error vs observation horizon")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_consistency)

    s = sub.add_parser("check-stationarity", help="branching matrix diagnostics")
    s.add_argument("--params", required=True)
    s.set_defaults(func=cmd_check_stationarity)

    s = sub.add_parser("ingest-lobster", help="order-book messages to event CSV")
    s.add_argument("--messages", required=True)
    s.add_argument("--types", required=True, help="JSON mapping event code -> L|M|C")
    s.add_argument("--out", required=True)
    s.add_argument("--max-bad-fraction", type=_fraction, default=0.01)
    s.set_defaults(func=cmd_ingest_lobster)

    s = sub.add_parser("ingest-memetracker", help="posting log to event CSV")
    s.add_argument("--posts", required=True, help="CSV with header time,url")
    s.add_argument("--groups", required=True, help="JSON mapping url -> type index")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_ingest_memetracker)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, HyperParamsError, SimulationCapError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, InfeasibleInitError, experiments.NoStationaryDrawError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    raise SystemExit(main())
