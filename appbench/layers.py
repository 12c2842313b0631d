"""Which layer entry points the traced run wraps, and the per-layer metrics.

Every probe names a public entry point of one layer of the stack, plus two
private seams: ORM relation access, and the module-level optimizer helpers
that the optimizer imports by name.  The span names double as the layer
keys of the per-layer metrics.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Any

from repro.appsim.cache import ClientCache
from repro.appsim.runtime import AppRuntime
from repro.core import optimizer as core_optimizer
from repro.core import plans as core_plans
from repro.core import regions as core_regions
from repro.core.rules import DEFAULT_REGION_RULES
from repro.db.database import Database, PreparedStatement
from repro.db.executor import Executor
from repro.db.parallel import ShardExecutorPool
from repro.db.sharding import ShardRouter
from repro.net.connection import SimulatedConnection
from repro.orm.session import Session

from spans import COUNT, END, NAME, START, Probe, has_ancestor, self_times

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("app.self_s", "s"),
    ("orm.self_s", "s"),
    ("orm.entities", "count"),
    ("orm.lazy_loads", "count"),
    ("orm.cache_hit_ratio", "ratio"),
    ("appsim.self_s", "s"),
    ("appsim.cache_lookups", "count"),
    ("net.statements", "count"),
    ("net.round_trips", "count"),
    ("net.bytes_transferred", "bytes"),
    ("net.self_s", "s"),
    ("net.stmt_p50_us", "us"),
    ("net.stmt_p99_us", "us"),
    ("net.virtual_network_s", "virtual-s"),
    ("net.virtual_server_s", "virtual-s"),
    ("db.prepare_s", "s"),
    ("db.stmt_cache_hit_ratio", "ratio"),
    ("db.estimate_s", "s"),
    ("db.execute.self_s", "s"),
    ("db.update_s", "s"),
    ("db.rows_updated", "count"),
    ("table.version_bumps", "count"),
    ("exec.s", "s"),
    ("exec.calls", "count"),
    ("exec.rows_out", "count"),
    ("exec.codegen_share", "ratio"),
    ("exec.fallbacks", "count"),
    ("router.self_s", "s"),
    ("router.routed_share", "ratio"),
    ("router.scatters", "count"),
    ("parallel.s", "s"),
    ("parallel.overlap", "ratio"),
    ("wal.records", "count"),
    ("wal.cells_logged", "count"),
    ("core.analyze_s", "s"),
    ("core.rule_s", "s"),
    ("core.rule_calls", "count"),
    ("core.cost_s", "s"),
    ("core.extract_s", "s"),
    ("core.self_s", "s"),
    ("core.dag_groups", "count"),
    ("core.dag_nodes", "count"),
    ("core.alternatives", "count"),
    ("obs.trace_overhead", "ratio"),
]

#: self-time metrics: metric name -> span names whose self time it sums.
SELF_TIME = {
    "app.self_s": ("app.pass", "app.program"),
    "orm.self_s": ("orm",),
    "appsim.self_s": ("appsim",),
    "net.self_s": ("net",),
    "db.prepare_s": ("db.prepare",),
    "db.estimate_s": ("db.estimate",),
    "db.execute.self_s": ("db.execute",),
    "db.update_s": ("db.update",),
    "exec.s": ("exec",),
    "router.self_s": ("router",),
    "parallel.s": ("parallel",),
    "core.analyze_s": ("core.analyze",),
    "core.rule_s": ("core.rule",),
    "core.cost_s": ("core.cost",),
    "core.extract_s": ("core.extract",),
    "core.self_s": ("core.optimize",),
}


def probes() -> list[Probe]:
    """Every entry point the traced run wraps, with its span name."""
    entries: list[Probe] = []

    def add(owner: Any, attributes: tuple, name: str, count=None) -> None:
        entries.extend(Probe(owner, a, name, count) for a in attributes)

    add(Session, ("load_all", "get", "prefetch", "execute_query",
                  "_load_relation"), "orm")
    add(AppRuntime, ("lookup", "lookup_group", "prefetch", "prefetch_query",
                     "prefetch_group"), "appsim")
    add(ClientCache, ("cache_by_column", "cache_groups_by_column"), "appsim")
    add(SimulatedConnection, ("execute_query", "execute_prepared",
                              "execute_update", "execute_update_prepared",
                              "execute_lookup"), "net")
    add(Database, ("prepare",), "db.prepare")
    add(PreparedStatement, ("estimate",), "db.estimate")
    add(PreparedStatement, ("execute",), "db.execute")
    add(PreparedStatement, ("execute_update",), "db.update", int)
    add(Database, ("update_table",), "db.update", int)
    add(Executor, ("execute",), "exec", len)
    add(ShardRouter, ("try_execute",), "router")
    add(ShardExecutorPool, ("run_tasks",), "parallel")
    add(core_optimizer.CobraOptimizer, ("optimize",), "core.optimize")
    # The optimizer module imported these helpers by name, so its own
    # bindings are the ones to wrap (region_cost also recurses through
    # the plans module's binding).
    add(core_optimizer, ("analyze_program",), "core.analyze")
    add(core_optimizer, ("region_cost",), "core.cost")
    add(core_plans, ("region_cost",), "core.cost")
    add(core_plans.DagCostCalculator, ("group_cost",), "core.cost")
    for rule_type in {type(rule) for rule in DEFAULT_REGION_RULES}:
        add(rule_type, ("apply",), "core.rule")
    add(core_plans.PlanExtractor, ("extract",), "core.extract")
    for value in vars(core_regions).values():
        if (
            isinstance(value, type)
            and issubclass(value, core_regions.Region)
            and "to_source" in vars(value)
        ):
            add(value, ("to_source",), "core.extract")
    return entries


def engine_counters(databases: list[Database]) -> dict[str, float]:
    """Cumulative engine counters, summed over ``databases``.

    Read before and after a traced pass; the difference is the pass's.
    """
    totals: dict[str, float] = {}
    for database in databases:
        execution = database.execution_stats()
        sharding = database.sharding_stats()
        parallel = sharding["parallel"]
        wal = database.wal_stats()
        counters = {
            "stmt_hits": database.statement_cache.hits,
            "stmt_misses": database.statement_cache.misses,
            "tier_executions": sum(execution["tiers"].values()),
            "codegen_executions": execution["vectorized"]["codegen_executions"],
            "fallbacks": execution["vectorized"]["fallbacks"],
            "routed": sharding["routed"],
            "local": sharding["local"],
            "scatter": sharding["scatter"],
            "fallback_routes": sharding["fallback"],
            "shard_seconds": parallel.get("shard_seconds", 0.0),
            "parallel_seconds": parallel.get("parallel_seconds", 0.0),
            "wal_records": wal.get("records", 0),
            "wal_cells": wal.get("cells_logged", 0),
            "table_versions": sum(
                table.version for table in database.tables.values()
            ),
        }
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when the layer saw no attempts."""
    return numerator / denominator if denominator else 0.0


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0 for an empty population."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def pass_metrics(
    spans: list[list],
    first: int,
    last: int,
    counters: dict[str, float],
    delta: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans[first:last]`` are the pass's spans (``spans[first]`` is the
    pass span), ``counters`` the per-program counters the pass summed, and
    ``delta`` the change of :func:`engine_counters` across the pass.
    Raises when the self times do not add up to the pass span.
    """
    root = spans[first]
    if root[NAME] != "app.pass":
        raise RuntimeError("traced pass does not start with its pass span")
    selfs = self_times(spans, first, last)
    pass_seconds = root[END] - root[START]
    if abs(sum(selfs) - pass_seconds) > 1e-9 * (last - first) + 1e-9:
        raise RuntimeError(
            f"span self times sum to {sum(selfs)!r}, pass span is "
            f"{pass_seconds!r}"
        )
    by_name: dict[str, float] = {}
    statement_us: list[float] = []
    exec_calls = exec_rows = rows_updated = rule_calls = 0
    for offset, own in enumerate(selfs):
        index = first + offset
        span = spans[index]
        name = span[NAME]
        by_name[name] = by_name.get(name, 0.0) + own
        if name == "net":
            statement_us.append((span[END] - span[START]) * 1e6)
        elif name == "exec" and not has_ancestor(spans, index, "exec"):
            exec_calls += 1
            exec_rows += span[COUNT] or 0
        elif name == "db.update":
            rows_updated += span[COUNT] or 0
        elif name == "core.rule":
            rule_calls += 1
    metrics = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME.items()
    }
    get = delta.get
    routes = (
        get("routed", 0) + get("local", 0) + get("scatter", 0)
        + get("fallback_routes", 0)
    )
    metrics.update(
        {
            "orm.entities": counters.get("orm_entities", 0),
            "orm.lazy_loads": counters.get("orm_lazy_loads", 0),
            "orm.cache_hit_ratio": _ratio(
                counters.get("orm_cache_hits", 0),
                counters.get("orm_cache_hits", 0)
                + counters.get("orm_lazy_loads", 0),
            ),
            "appsim.cache_lookups": counters.get("cache_lookups", 0),
            "net.statements": counters.get("statements", 0),
            "net.round_trips": counters.get("round_trips", 0),
            "net.bytes_transferred": counters.get("bytes_transferred", 0),
            "net.stmt_p50_us": _percentile(statement_us, 0.50),
            "net.stmt_p99_us": _percentile(statement_us, 0.99),
            "net.virtual_network_s": counters.get("network_time", 0.0),
            "net.virtual_server_s": counters.get("server_time", 0.0),
            "db.stmt_cache_hit_ratio": _ratio(
                get("stmt_hits", 0), get("stmt_hits", 0) + get("stmt_misses", 0)
            ),
            "db.rows_updated": rows_updated,
            "table.version_bumps": get("table_versions", 0),
            "exec.calls": exec_calls,
            "exec.rows_out": exec_rows,
            "exec.codegen_share": _ratio(
                get("codegen_executions", 0), get("tier_executions", 0)
            ),
            "exec.fallbacks": get("fallbacks", 0),
            "router.routed_share": _ratio(get("routed", 0), routes),
            "router.scatters": get("scatter", 0) + get("local", 0),
            "parallel.overlap": _ratio(
                get("shard_seconds", 0.0), get("parallel_seconds", 0.0)
            ),
            "wal.records": get("wal_records", 0),
            "wal.cells_logged": get("wal_cells", 0),
            "core.rule_calls": rule_calls,
            "core.dag_groups": counters.get("dag_groups", 0),
            "core.dag_nodes": counters.get("dag_nodes", 0),
            "core.alternatives": counters.get("alternatives", 0),
        }
    )
    return metrics


def summarize(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of every per-layer metric over the traced passes."""
    return {
        name: median(p[name] for p in passes)
        for name, _ in PER_LAYER
        if name != "obs.trace_overhead"
    }
