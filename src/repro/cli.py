"""Command-line interface for the COBRA reproduction.

Usage::

    python -m repro.cli optimize PROGRAM.py [--function NAME]
        [--catalog catalog.json | --network slow-remote|fast-local]
        [--amortization AF] [--workload orders|wilos] [--scale N]
        [--shards N] [--wal] [--mvcc] [--admission N]
        [--fault-rate P] [--fault-seed N]
        [--show-alternatives] [--heuristic] [--stats]

    python -m repro.cli experiment fig13a|fig13b|fig13c|fig14|fig15|fig16|opt-time
        [--scale N] [--divisor N]

    python -m repro.cli catalog --network slow-remote --out catalog.json

``optimize`` reads a Python source file containing one function written
against the :class:`repro.appsim.runtime.AppRuntime` API, optimizes it
against a synthetic workload database (orders/customer or Wilos-like), and
prints the chosen strategy, the estimated costs, and the rewritten program.

``experiment`` runs one of the paper-figure reproductions and prints the
result table.

``catalog`` writes a cost catalog file that can be edited and passed back via
``--catalog``.

All subcommands run through the :class:`repro.api.Engine` facade, which
wires the workload database, the network preset, the ORM mapping registry,
and the cost parameters together in one place.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.api import Engine
from repro.core.catalog import catalog_for_network, load_catalog, save_catalog
from repro.core.cost_model import CostModel, CostParameters
from repro.core.plans import DagCostCalculator


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="COBRA: cost based rewriting of database applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    optimize = sub.add_parser("optimize", help="optimize a program source file")
    optimize.add_argument("program", type=Path, help="path to the Python source")
    optimize.add_argument("--function", default=None, help="function to optimize")
    optimize.add_argument(
        "--network",
        choices=["slow-remote", "fast-local"],
        default="fast-local",
        help="network preset for the cost model",
    )
    optimize.add_argument(
        "--catalog", type=Path, default=None, help="cost catalog JSON file"
    )
    optimize.add_argument(
        "--amortization", type=float, default=1.0, help="amortization factor AF"
    )
    optimize.add_argument(
        "--workload",
        choices=["orders", "wilos"],
        default="orders",
        help="synthetic database the statistics come from",
    )
    optimize.add_argument(
        "--scale", type=int, default=2_000, help="workload scale (row count)"
    )
    optimize.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "hash-shard every workload table with a primary key over N "
            "partitions (0 = unsharded)"
        ),
    )
    optimize.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "execute shard-local plans on an N-worker pool "
            "(0 = serial; requires --shards)"
        ),
    )
    optimize.add_argument(
        "--show-alternatives",
        action="store_true",
        help="print every alternative of every region with its estimated cost",
    )
    optimize.add_argument(
        "--heuristic",
        action="store_true",
        help="also show the always-push-to-SQL heuristic rewrite",
    )
    optimize.add_argument(
        "--wal",
        action="store_true",
        help="enable write-ahead logging on the workload database",
    )
    optimize.add_argument(
        "--mvcc",
        action="store_true",
        help=(
            "enable MVCC: snapshot reads and first-committer-wins "
            "transactions on the workload database"
        ),
    )
    optimize.add_argument(
        "--admission",
        type=int,
        default=0,
        metavar="N",
        help=(
            "bound server concurrency at N in-flight requests; excess "
            "arrivals queue on the virtual clock (0 = unbounded)"
        ),
    )
    optimize.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help=(
            "inject seeded network faults at this per-operation probability "
            "(retried with capped exponential backoff on the virtual clock)"
        ),
    )
    optimize.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault injector",
    )
    optimize.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print aggregated engine statistics (statement cache, network, "
            "WAL, fault/retry counters)"
        ),
    )
    optimize.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a structured trace per statement executed through the "
            "engine and print the trace report after the run"
        ),
    )
    optimize.add_argument(
        "--slow-query-threshold",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "log statements charged more than SECONDS of virtual latency "
            "to the slow-query log (implies --trace)"
        ),
    )
    optimize.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "print the metrics registry snapshot: counters, gauges, "
            "latency histograms, and subsystem views"
        ),
    )

    experiment = sub.add_parser("experiment", help="run a paper-figure reproduction")
    experiment.add_argument(
        "figure",
        choices=["fig13a", "fig13b", "fig13c", "fig14", "fig15", "fig16", "opt-time"],
    )
    experiment.add_argument("--scale", type=int, default=2_000)
    experiment.add_argument("--divisor", type=int, default=200)

    catalog = sub.add_parser("catalog", help="write a cost catalog file")
    catalog.add_argument(
        "--network", choices=["slow-remote", "fast-local"], default="fast-local"
    )
    catalog.add_argument("--amortization", type=float, default=1.0)
    catalog.add_argument("--out", type=Path, required=True)

    return parser


# -- subcommands ----------------------------------------------------------------


def _load_parameters(args: argparse.Namespace) -> CostParameters:
    if args.catalog is not None:
        parameters = load_catalog(args.catalog)
    else:
        parameters = catalog_for_network(args.network)
    if args.amortization != 1.0:
        parameters = parameters.with_amortization(args.amortization)
    return parameters


def _build_engine(args: argparse.Namespace) -> Engine:
    """Assemble the engine the subcommand runs against."""
    builder = (
        Engine.builder()
        .network(args.network)
        .cost_parameters(_load_parameters(args))
    )
    if args.workload == "wilos":
        builder.wilos_workload(scale=args.scale)
    else:
        builder.orders_workload(
            num_orders=args.scale, num_customers=max(args.scale // 10, 10)
        )
    if getattr(args, "shards", 0):
        builder.shards(args.shards)
    if getattr(args, "workers", 0):
        builder.parallel(args.workers)
    if getattr(args, "wal", False):
        builder.wal()
    if getattr(args, "mvcc", False):
        builder.mvcc()
    if getattr(args, "admission", 0):
        builder.admission(args.admission)
    if getattr(args, "fault_rate", 0.0):
        builder.fault_rate(args.fault_rate, seed=getattr(args, "fault_seed", 0))
    threshold = getattr(args, "slow_query_threshold", None)
    if getattr(args, "trace", False) or threshold is not None:
        builder.tracing(slow_query_threshold=threshold)
    return builder.build()


def run_optimize(args: argparse.Namespace, out) -> int:
    source = args.program.read_text()
    engine = _build_engine(args)
    result = engine.optimize(source, function_name=args.function)

    print(f"program              : {args.program}", file=out)
    print(f"alternatives added   : {result.alternatives_added}", file=out)
    print(f"original cost (est.) : {result.original_cost:.6f} s", file=out)
    print(f"best cost (est.)     : {result.best_cost:.6f} s", file=out)
    print(f"estimated speedup    : {result.estimated_speedup:.2f}x", file=out)
    print(f"chosen strategy      : {result.primary_choice()}", file=out)
    print(f"optimization time    : {result.optimization_seconds * 1000:.1f} ms", file=out)

    if args.show_alternatives:
        calculator = DagCostCalculator(
            result.dag, CostModel(engine.database, engine.parameters)
        )
        print("\nalternatives per region:", file=out)
        for group in result.dag.iter_groups():
            if len(group.alternatives) < 2:
                continue
            print(f"  {group.label}:", file=out)
            for node in group.alternatives:
                cost = calculator.node_cost(node)
                print(f"    {node.strategy:<20} {cost:.6f} s", file=out)

    print("\nrewritten program:", file=out)
    print(result.rewritten_source, file=out)

    if args.heuristic:
        outcome = engine.heuristic_rewrite(source, function_name=args.function)
        print("\nheuristic (always push to SQL) rewrite:", file=out)
        print(outcome.rewritten_source, file=out)

    if args.stats:
        _print_stats(engine, out)
    if args.trace or args.slow_query_threshold is not None:
        _print_traces(engine, out)
    if args.metrics:
        _print_metrics(engine, out)
    return 0


def _emit_counters(prefix: str, counters: dict, out) -> None:
    """Flatten one counter group into sorted dotted ``path : value`` lines."""
    for name, value in sorted(counters.items()):
        path = f"{prefix}.{name}"
        if isinstance(value, dict):
            if not value:
                print(f"  {path:<30}: (none)", file=out)
            else:
                _emit_counters(path, value, out)
        elif isinstance(value, float):
            print(f"  {path:<30}: {value:.6f}", file=out)
        else:
            print(f"  {path:<30}: {value}", file=out)


def _print_stats(engine: Engine, out) -> None:
    """Render ``engine.stats()`` as aligned ``group.counter : value`` lines.

    Nested counter groups (the executor's per-tier and vectorized
    fallback-reason counters, the sharding routed/local/fallback counts, the
    tracing and metrics summaries) flatten into dotted paths, one counter
    per line, sorted at every level so the output is diff-stable.
    """
    print("\nengine statistics:", file=out)
    for group, counters in sorted(engine.stats().items()):
        _emit_counters(group, counters, out)


def _print_traces(engine: Engine, out) -> None:
    """Render the tracer's recorded traces and the slow-query log."""
    print("\nquery traces:", file=out)
    tracer = engine.tracer
    if tracer is None:
        print("  (tracing disabled)", file=out)
        return
    print(tracer.render(), file=out)
    if tracer.slow_query_threshold is not None:
        print(
            f"\nslow queries (>= {tracer.slow_query_threshold}s): "
            f"{tracer.slow_queries_recorded}",
            file=out,
        )


def _print_metrics(engine: Engine, out) -> None:
    """Render ``engine.metrics()`` as sorted dotted counter lines."""
    print("\nmetrics:", file=out)
    for group, values in sorted(engine.metrics().as_dict().items()):
        if values:
            _emit_counters(group, values, out)


def run_experiment(args: argparse.Namespace, out) -> int:
    from repro.experiments import figure13, figure15, opt_time

    if args.figure == "fig13a":
        table = figure13.run_figure13a(scale_divisor=args.divisor)
    elif args.figure == "fig13b":
        table = figure13.run_figure13b(scale_divisor=args.divisor)
    elif args.figure == "fig13c":
        table = figure13.run_figure13c(scale_divisor=args.divisor)
    elif args.figure == "fig14":
        table = figure15.run_figure14()
    elif args.figure == "fig15":
        table = figure15.run_figure15(scale=args.scale)
    elif args.figure == "fig16":
        table = figure15.run_figure16()
    else:
        table = opt_time.run_optimization_time(scale=args.scale)
    print(table.render(), file=out)
    return 0


def run_catalog(args: argparse.Namespace, out) -> int:
    parameters = catalog_for_network(args.network).with_amortization(
        args.amortization
    )
    path = save_catalog(parameters, args.out)
    print(f"wrote cost catalog to {path}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "optimize":
        return run_optimize(args, out)
    if args.command == "experiment":
        return run_experiment(args, out)
    if args.command == "catalog":
        return run_catalog(args, out)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
