"""Engine performance benchmarks: executor tiers and optimizer wall-clock.

Run directly (``python benchmarks/bench_engine.py`` or ``make bench``).  The
benchmark families timed:

* **Executor microbenchmarks** — scan+filter, projected and full-width hash
  joins, and grouped aggregation over a 50k-row orders table, executed on
  the interpreted (tree-walking) tier, on the vectorized tier's batch
  kernels alone (codegen off), and on the default vectorized tier (fused
  codegen where the plan is a pipeline spine).  Each entry reports the
  vectorized speedup over the interpreted baseline and over the kernel
  path; row-for-row equality across all three is asserted as part of the
  run.  The ``*_codegen`` entries (``scan_filter_codegen``,
  ``aggregate_codegen``, ``dict_filter_strings``) time the fused-pipeline
  codegen path against the batch-kernel path on the same plans
  (interleaved min-of so allocator drift hits both equally), asserting
  row equality and that codegen actually served the run;
  ``dict_filter_strings`` additionally compares a string-equality filter
  over the dictionary-encoded column against the same filter with
  strings stored boxed.

* **Prepared-statement point lookups** — the N+1 lazy-load query shape
  (``select * from customers where c_id = ?``) executed over and over with
  changing parameters, once through the pre-prepared-statement client path
  (parse to execute + parse to estimate, every call, executed on the batch
  kernels) and once through one
  :class:`repro.db.database.PreparedStatement` (parse once, plan-keyed
  estimate cached, index-backed execution).  Result equality between the two
  paths is asserted.

* **Pipelined executemany** — a 1 000-tuple parameterized ``executemany``
  over the slow-remote network, once through the per-tuple client path (one
  ``SimulatedNetwork`` round trip per tuple, the pre-pipeline driver) and
  once through the pipelined cursor (the whole batch in ONE round trip).
  Reported in *virtual* seconds — the deterministic network-model time the
  paper's cost formulas price — alongside wall-clock; result equality
  between the two paths is asserted.

* **Async concurrent clients** — N asyncio clients each replaying point
  lookups on the slow-remote network, once strictly sequentially and once
  concurrently through ``repro.api.aio`` (overlapping in-flight requests on
  the shared clock pay max-latency, not sum-latency).

* **Sharded execution** — the same data hash-partitioned over 8 shards:
  ``sharded_point_lookup`` times a shard-key point predicate through the
  router's single-shard routed class (and the shard-aware prepared fast
  path) against the same plan forced through scatter-gather;
  ``sharded_scan_filter`` times a non-shard-key filter, which runs once on
  the aggregate view, and ``sharded_aggregate`` partial-aggregate merging,
  each against unsharded execution.  Result equality (routed ≡ scatter ≡
  unsharded as row sets; the filter exactly, order included) is asserted
  as part of the run.

* **WAL overhead** — the write path (bulk insert + predicate UPDATEs) with
  and without the write-ahead log; recovery equivalence (log replay
  reproduces the live state row-for-row) is asserted as part of the run.

* **Fault-retry convergence** — a seeded fault-injected workload (timeouts,
  drops, transient server errors, retried with capped exponential backoff
  on the virtual clock) against the identical fault-free workload;
  row-for-row equality of every result and of the final table state is
  asserted, and the virtual-time cost of the faults is reported.

* **MVCC reader/writer** — an open-loop read workload against an MVCC
  engine, once write-free and once with a concurrent transactional write
  mix: snapshot readers must not serialize behind writers (read p50 within
  1.2x of the write-free baseline, asserted), and a snapshot opened before
  a committed write must still see the old rows (asserted).

* **Admission open loop** — Poisson arrivals at 0.5x / 1x / 2x the
  admission-controlled server's capacity, reporting p50/p95/p99 virtual
  latency per rate; the queueing knee (p95 blowing up past the limit) is
  asserted visible.

* **Tracing overhead** — the vectorized scan_filter query through the full
  connection path with no tracer, a disabled tracer, and tracing enabled;
  enabled tracing is asserted within 5% of the untraced wall time and a
  disabled tracer asserted free.

* **End-to-end optimizer** — ``CobraOptimizer.optimize()`` wall-clock on the
  Figure 13 motivating program (P0) and all six Wilos patterns, i.e. the
  workloads the opt-time experiment reports.

Results are written to ``BENCH_engine.json`` in the repository root (path
overridable via ``BENCH_ENGINE_OUT``, used by the CI smoke run) so later
PRs can track the performance trajectory.  Scale is adjustable via the
``BENCH_ENGINE_ROWS`` environment variable (default 50 000).

This file is intentionally *not* named ``test_*``: it is a standalone
harness, not part of the pytest benchmark suite.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.core.catalog import CostParameters  # noqa: E402
from repro.core.optimizer import CobraOptimizer  # noqa: E402
from repro.db import algebra  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.executor import Executor  # noqa: E402
from repro.db.expressions import (  # noqa: E402
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Literal,
)
from repro.db.schema import Column, ColumnType  # noqa: E402
from repro.net.network import FAST_LOCAL  # noqa: E402
from repro.workloads import tpcds  # noqa: E402
from repro.workloads.programs import P0_SOURCE  # noqa: E402
from repro.workloads.wilos import build_wilos_database  # noqa: E402
from repro.workloads.wilos_programs import build_patterns  # noqa: E402

#: Largest-relation row count for the executor microbenchmarks.
DEFAULT_ROWS = 50_000

#: Timing repetitions; the best (minimum) run is reported.  Allocation-heavy
#: runs (50k output dicts) see multi-millisecond allocator-state noise, so
#: the minimum is taken over enough repetitions to converge.
REPEATS = 7


def build_benchmark_database(
    rows: int, execution_mode: str = "vectorized"
) -> Database:
    """A deterministic orders/customers database for the microbenchmarks."""
    database = Database(execution_mode=execution_mode)
    database.create_table(
        "customers",
        [
            Column("c_id", ColumnType.INT),
            Column("c_name", ColumnType.STRING, width=16),
            Column("c_tier", ColumnType.INT),
        ],
        primary_key="c_id",
    )
    database.create_table(
        "orders",
        [
            Column("o_id", ColumnType.INT),
            Column("o_c_id", ColumnType.INT),
            Column("o_total", ColumnType.FLOAT),
            Column("o_status", ColumnType.STRING, width=8),
        ],
        primary_key="o_id",
    )
    customers = max(rows // 10, 1)
    database.insert(
        "customers",
        (
            {"c_id": i, "c_name": f"customer-{i}", "c_tier": i % 5}
            for i in range(customers)
        ),
    )
    database.insert(
        "orders",
        (
            {
                "o_id": i,
                "o_c_id": i % customers,
                "o_total": float((i * 7919) % 1000),
                "o_status": "OPEN" if i % 3 else "DONE",
            }
            for i in range(rows)
        ),
    )
    database.analyze()
    return database


def executor_plans() -> dict[str, algebra.PlanNode]:
    """The microbenchmark plans: scan+filter, equi-joins, grouped aggregate."""
    scan_filter = algebra.Select(
        algebra.Scan("orders", "o"),
        BooleanOp(
            "and",
            (
                BinaryOp(">", ColumnRef("o_total", "o"), Literal(500.0)),
                BinaryOp("=", ColumnRef("o_status", "o"), Literal("OPEN")),
            ),
        ),
    )
    join = algebra.Join(
        algebra.Scan("orders", "o"),
        algebra.Scan("customers", "c"),
        BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
    )
    # The headline join benchmark projects a few columns, as real queries
    # do.  The full-width join (every bare and qualified column of both sides)
    # is tracked separately as hash_join_wide.
    hash_join = algebra.Project(
        join,
        (
            algebra.OutputColumn(ColumnRef("o_id", "o"), "o_id"),
            algebra.OutputColumn(ColumnRef("c_name", "c"), "c_name"),
            algebra.OutputColumn(ColumnRef("o_total", "o"), "o_total"),
        ),
    )
    aggregate = algebra.Aggregate(
        algebra.Scan("orders"),
        group_by=(ColumnRef("o_c_id"),),
        aggregates=(
            algebra.AggregateSpec("sum", ColumnRef("o_total"), "total"),
            algebra.AggregateSpec("count", None, "n"),
            algebra.AggregateSpec("avg", ColumnRef("o_total"), "avg_total"),
        ),
    )
    return {
        "scan_filter": scan_filter,
        "hash_join": hash_join,
        "hash_join_wide": join,
        "aggregate": aggregate,
    }


def _best_time(run: Callable[[], object], repeats: int = REPEATS) -> float:
    import gc

    best = float("inf")
    # Collect once up front, then keep the collector out of the timed
    # region (pyperf-style): allocation-heavy runs otherwise pay a noisy,
    # state-dependent share of generational GC passes.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def bench_executor(rows: int) -> dict:
    """Time every microbenchmark plan on each execution path.

    Every plan runs interpreted, on the batch kernels alone (codegen off)
    and on the default vectorized tier; kernel and vectorized are timed
    interleaved.  ``hash_join_wide`` is the vectorized tier's headline
    number: the row tier is bounded there by per-row output-dict
    construction, which vectorized execution defers to one
    late-materialization pass at the root.  Row-for-row equality across
    the three paths is asserted, as is that the vectorized executor never
    fell back.
    """
    database = build_benchmark_database(rows)
    interpreted = Executor(database.tables, mode="interpreted")
    kernel = Executor(database.tables, mode="vectorized")
    kernel._vectorized.codegen_enabled = False
    vectorized = Executor(database.tables, mode="vectorized")
    results: dict = {}
    for name, plan in executor_plans().items():
        reference = interpreted.execute(plan)
        if reference != kernel.execute(plan) or reference != (
            vectorized.execute(plan)
        ):
            raise AssertionError(
                f"vectorized / kernel / interpreted rows differ for {name!r}"
            )
        output_rows = len(reference)
        # Release the held result set before timing: ~150k live dicts
        # otherwise skew the allocator against the timed runs.
        del reference
        interpreted_s = _best_time(lambda: interpreted.execute(plan))
        timings = _interleaved_best(
            {
                "kernel": lambda: kernel.execute(plan),
                "vectorized": lambda: vectorized.execute(plan),
            }
        )
        vectorized_s = timings["vectorized"]
        results[name] = {
            "output_rows": output_rows,
            "interpreted_seconds": interpreted_s,
            "kernel_seconds": timings["kernel"],
            "vectorized_seconds": vectorized_s,
            "speedup": interpreted_s / vectorized_s,
            "speedup_vs_kernel": timings["kernel"] / vectorized_s,
        }
    for executor in (kernel, vectorized):
        if executor.tier_counts["interpreted"]:
            raise AssertionError("a plan fell off the vectorized tier")
    return results


def _interleaved_best(
    runners: dict[str, Callable[[], object]], repeats: int = REPEATS
) -> dict[str, float]:
    """Per-runner minimum over ``repeats`` round-robin rounds.

    Competing paths over the same data are timed alternately so allocator
    and cache-state drift hits them equally — sequential min-of runs can
    hand whichever path runs second a warmed allocator.
    """
    import gc

    best = {label: float("inf") for label in runners}
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for label, run in runners.items():
                started = time.perf_counter()
                run()
                best[label] = min(best[label], time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


#: Plans timed codegen-vs-kernel (both run on the vectorized tier).
CODEGEN_PLANS = ("scan_filter", "aggregate")


def bench_codegen(rows: int) -> dict:
    """Fused-pipeline codegen vs the batch-kernel vectorized path.

    Both paths run on the vectorized tier over identical tables: the
    *kernel* executor has codegen disabled, the *codegen* executor compiles
    the fused loops.  Row equality against the interpreted tier is asserted,
    as is that the codegen executor actually served every run from a
    compiled pipeline.  ``dict_filter_strings`` times a string-equality
    filter whose codegen compares dictionary codes, against the kernel
    path and against the same pipeline with strings stored boxed.
    """
    database = build_benchmark_database(rows)
    interpreted = Executor(database.tables, mode="interpreted")
    kernel = Executor(database.tables, mode="vectorized")
    kernel._vectorized.codegen_enabled = False
    codegen = Executor(database.tables, mode="vectorized")
    plans = executor_plans()
    results: dict = {}
    for name in CODEGEN_PLANS:
        plan = plans[name]
        reference = interpreted.execute(plan)
        if reference != kernel.execute(plan) or reference != codegen.execute(
            plan
        ):
            raise AssertionError(
                f"codegen / kernel / interpreted results differ for {name!r}"
            )
        output_rows = len(reference)
        del reference
        timings = _interleaved_best(
            {
                "kernel": lambda: kernel.execute(plan),
                "codegen": lambda: codegen.execute(plan),
            }
        )
        interpreted_s = _best_time(lambda: interpreted.execute(plan))
        results[f"{name}_codegen"] = {
            "output_rows": output_rows,
            "interpreted_seconds": interpreted_s,
            "kernel_seconds": timings["kernel"],
            "codegen_seconds": timings["codegen"],
            # Headline: the fused compiled loop over the batch-kernel path.
            "speedup_vs_kernel": timings["kernel"] / timings["codegen"],
            "speedup_vs_interpreted": interpreted_s / timings["codegen"],
        }
    if codegen._vectorized.codegen_executions == 0:
        raise AssertionError("codegen executor never took the codegen path")
    if codegen._vectorized.fallback_reasons.get("codegen_unsupported"):
        raise AssertionError("a benchmark plan was codegen-unsupported")
    if kernel._vectorized.codegen_executions:
        raise AssertionError("kernel baseline unexpectedly ran codegen")

    # -- dict_filter_strings: dictionary codes vs boxed strings ----------
    dict_plan = algebra.Select(
        algebra.Scan("orders", "o"),
        BinaryOp("=", ColumnRef("o_status", "o"), Literal("OPEN")),
    )
    boxed_database = build_benchmark_database(rows)
    boxed_database.table("orders").set_storage_mode("typed")  # strings boxed
    boxed = Executor(boxed_database.tables, mode="vectorized")
    reference = interpreted.execute(dict_plan)
    if reference != codegen.execute(dict_plan) or reference != boxed.execute(
        dict_plan
    ) or reference != kernel.execute(dict_plan):
        raise AssertionError("dict_filter_strings results differ across paths")
    if database.table("orders").column_encodings()["o_status"] != "dict":
        raise AssertionError("o_status is not dictionary-encoded")
    output_rows = len(reference)
    del reference
    timings = _interleaved_best(
        {
            "kernel": lambda: kernel.execute(dict_plan),
            "dict_codegen": lambda: codegen.execute(dict_plan),
            "boxed_codegen": lambda: boxed.execute(dict_plan),
        }
    )
    results["dict_filter_strings"] = {
        "output_rows": output_rows,
        "kernel_seconds": timings["kernel"],
        "dict_codegen_seconds": timings["dict_codegen"],
        "boxed_codegen_seconds": timings["boxed_codegen"],
        "speedup_vs_kernel": timings["kernel"] / timings["dict_codegen"],
        "speedup_vs_boxed": (
            timings["boxed_codegen"] / timings["dict_codegen"]
        ),
    }
    return results


#: Parameterized lookups per timed run of the prepared-statement benchmark.
LOOKUPS = 2_000


def bench_prepared_point_lookup(rows: int) -> dict:
    """Repeated parameterized point lookups: prepared vs. unprepared.

    The *unprepared* runner reproduces the pre-prepared-statement client
    stack exactly: every call parses the SQL text to execute it, parses it a
    second time to estimate it (as ``SimulatedConnection.execute_query``
    used to), and runs the bound plan through the generic executor.  The
    *prepared* runner prepares the statement once and replays it with fresh
    parameters, hitting the cached plan, the plan-keyed estimate, and the
    index-backed point-lookup fast path.
    """
    from repro.db.sqlparser import bind_parameters, parse_sql  # noqa: E402

    # Pinned to the batch kernels: every unprepared call binds a fresh plan,
    # which codegen would compile into a new pipeline per distinct key; the
    # prepared runner's index-backed fast path never enters the executor.
    database = build_benchmark_database(rows)
    database._executor._vectorized.codegen_enabled = False
    customers = max(rows // 10, 1)
    sql = "select * from customers where c_id = ?"
    keys = [(i * 7919) % customers for i in range(LOOKUPS)]

    def unprepared() -> int:
        fetched = 0
        for key in keys:
            plan = bind_parameters(parse_sql(sql), (key,))
            result = database.execute_plan(plan, sql=sql)
            estimate_plan = bind_parameters(parse_sql(sql), (key,))
            database.estimate_plan(estimate_plan)
            fetched += len(result.rows)
        return fetched

    statement = database.prepare(sql)

    def prepared() -> int:
        fetched = 0
        for key in keys:
            result = statement.execute((key,))
            statement.estimate()
            fetched += len(result.rows)
        return fetched

    for key in keys[:25]:
        reference = database.execute_plan(
            bind_parameters(parse_sql(sql), (key,)), sql=sql
        )
        fast = statement.execute((key,))
        if reference.rows != fast.rows:
            raise AssertionError(
                f"prepared and unprepared lookup results differ for key {key}"
            )

    unprepared_s = _best_time(unprepared)
    prepared_s = _best_time(prepared)
    return {
        "lookups": len(keys),
        "table_rows": customers,
        "unprepared_seconds": unprepared_s,
        "prepared_seconds": prepared_s,
        "speedup": unprepared_s / prepared_s if prepared_s else None,
    }


#: Parameter tuples per executemany batch in the pipelining benchmark.
BATCH_TUPLES = 1_000


def bench_pipelined_executemany(rows: int) -> dict:
    """1k-tuple parameterized executemany: per-tuple round trips vs pipeline.

    The *per-tuple* runner reproduces the pre-pipeline driver exactly: the
    statement is prepared once but every parameter tuple pays its own
    network round trip.  The *pipelined* runner is today's
    ``Cursor.executemany``: the same tuples ship as one batch in a single
    round trip (``NetworkConditions.pipelined_time``).  Both run on the
    paper's slow-remote network; the headline number is the **virtual-time**
    speedup, with wall-clock recorded alongside.
    """
    from repro.net.connection import SimulatedConnection
    from repro.net.network import SLOW_REMOTE

    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    sql = "select * from customers where c_id = ?"
    tuples = [((i * 7919) % customers,) for i in range(BATCH_TUPLES)]

    per_tuple_conn = SimulatedConnection(database, SLOW_REMOTE)
    statement = per_tuple_conn.prepare(sql)

    def per_tuple() -> list:
        per_tuple_conn.reset()
        cursor = per_tuple_conn.cursor()
        last = None
        for params in tuples:
            last = cursor.execute_prepared(statement, params).fetchall()
        return last

    pipelined_conn = SimulatedConnection(database, SLOW_REMOTE)

    def pipelined() -> list:
        pipelined_conn.reset()
        cursor = pipelined_conn.cursor()
        cursor.executemany(sql, tuples)
        return cursor.fetchall()

    if per_tuple() != pipelined():
        raise AssertionError(
            "pipelined and per-tuple executemany results differ"
        )
    per_tuple_wall = _best_time(per_tuple)
    per_tuple_virtual = per_tuple_conn.elapsed
    per_tuple_trips = per_tuple_conn.stats.round_trips
    pipelined_wall = _best_time(pipelined)
    pipelined_virtual = pipelined_conn.elapsed
    pipelined_trips = pipelined_conn.stats.round_trips
    return {
        "tuples": len(tuples),
        "network": SLOW_REMOTE.name,
        "per_tuple_round_trips": per_tuple_trips,
        "pipelined_round_trips": pipelined_trips,
        "per_tuple_virtual_seconds": per_tuple_virtual,
        "pipelined_virtual_seconds": pipelined_virtual,
        "virtual_speedup": (
            per_tuple_virtual / pipelined_virtual if pipelined_virtual else None
        ),
        "per_tuple_wall_seconds": per_tuple_wall,
        "pipelined_wall_seconds": pipelined_wall,
        "wall_speedup": (
            per_tuple_wall / pipelined_wall if pipelined_wall else None
        ),
    }


#: Concurrent clients / lookups per client in the async benchmark.
ASYNC_CLIENTS = 8
ASYNC_LOOKUPS = 25


def bench_async_concurrent_clients(rows: int) -> dict:
    """N clients x K point lookups: sequential vs overlapping async clients.

    Sequential execution charges each client's round trips back to back;
    the async engine's shared clock lets the N clients' in-flight requests
    overlap, so the fleet pays roughly one client's latency.  Virtual time
    is the headline (deterministic); wall-clock covers the asyncio harness
    overhead.
    """
    import asyncio

    from repro.api import connect
    from repro.net.network import SLOW_REMOTE

    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    engine = connect(database=database, network=SLOW_REMOTE)
    sql = "select * from customers where c_id = ?"
    keys = [(i * 7919) % customers for i in range(ASYNC_LOOKUPS)]

    def sequential() -> float:
        connections = [engine.connect() for _ in range(ASYNC_CLIENTS)]
        statement = engine.prepare(sql)
        for connection in connections:
            for key in keys:
                connection.execute_prepared(statement, (key,))
        return sum(connection.elapsed for connection in connections)

    def concurrent() -> float:
        aengine = engine.aio()

        async def client(connection) -> None:
            statement = engine.prepare(sql)
            for key in keys:
                await connection.execute_prepared(statement, (key,))

        async def fleet() -> None:
            connections = [aengine.connect() for _ in range(ASYNC_CLIENTS)]
            await asyncio.gather(
                *[client(connection) for connection in connections]
            )

        asyncio.run(fleet())
        return aengine.elapsed

    started = time.perf_counter()
    sequential_virtual = sequential()
    sequential_wall = time.perf_counter() - started
    started = time.perf_counter()
    concurrent_virtual = concurrent()
    concurrent_wall = time.perf_counter() - started
    return {
        "clients": ASYNC_CLIENTS,
        "lookups_per_client": ASYNC_LOOKUPS,
        "network": SLOW_REMOTE.name,
        "sequential_virtual_seconds": sequential_virtual,
        "concurrent_virtual_seconds": concurrent_virtual,
        "overlap_speedup": (
            sequential_virtual / concurrent_virtual
            if concurrent_virtual
            else None
        ),
        "sequential_wall_seconds": sequential_wall,
        "concurrent_wall_seconds": concurrent_wall,
    }


#: Shard partitions used by the sharded-execution benchmarks.
SHARD_COUNT = 8

#: Point lookups per timed run of the sharded-routing benchmark.
SHARDED_LOOKUPS = 200


def _build_sharded_pair(rows: int):
    """Identically-populated (sharded, unsharded) benchmark databases."""
    sharded = build_benchmark_database(rows)
    sharded.shard_table("customers", "c_id", SHARD_COUNT)
    sharded.shard_table("orders", "o_c_id", SHARD_COUNT)
    sharded.analyze()
    unsharded = build_benchmark_database(rows)
    return sharded, unsharded


def _normalized(rows: list) -> list:
    return sorted(
        rows, key=lambda row: [(k, repr(v)) for k, v in sorted(row.items())]
    )


def bench_sharded(rows: int) -> dict:
    """Sharded execution: routed vs scatter-gather, and sharded overheads.

    * ``sharded_point_lookup`` — the same shard-key point predicate executed
      through the router's **single-shard routed** class (one partition does
      the work) and through forced **scatter-gather** (every partition
      executes and a gather node concatenates).  Routing must win by at
      least the shard count — it scans 1/N of the rows and pays one
      pipeline instead of N.
    * ``sharded_scan_filter`` — a non-shard-key filter, timed against the
      same plan on an unsharded database.  No shard can be pruned and
      every surviving row would pass a gather, so the router runs it once
      on the aggregate view (the ``fallback`` class): the overhead is the
      routing decision alone and should sit near 1.0.
    * ``sharded_aggregate`` — a grouped aggregate executed as per-shard
      partial aggregates merged at the gather node, against the unsharded
      single-pass aggregation.  Integer aggregates, so results are asserted
      exactly equal.
    """
    from repro.db.expressions import ParameterSlot

    sharded, unsharded = _build_sharded_pair(rows)
    router = sharded._router
    customers = max(rows // 10, 1)

    # -- sharded_point_lookup: routed vs forced scatter-gather -----------
    # The *routed* runner is the engine's real point-lookup path: a prepared
    # statement whose fast path probes only the secondary index of the shard
    # the key hashes to.  The *routed executor* runner is the generic
    # single-shard routed class (a vectorized filter over one partition, no
    # index).  The *scatter* runner forces the same plan through
    # scatter-gather: every partition executes and a gather concatenates.
    slots: list = [None]
    lookup_plan = algebra.Select(
        algebra.Scan("customers", "c"),
        BinaryOp("=", ColumnRef("c_id", "c"), ParameterSlot(0, slots)),
    )
    sql = "select * from customers where c_id = ?"
    statement = sharded.prepare(sql)
    if statement.point_lookup is None:
        raise AssertionError("prepared lookup lost its fast path")
    keys = [(i * 7919) % customers for i in range(SHARDED_LOOKUPS)]

    def routed() -> int:
        fetched = 0
        for key in keys:
            fetched += len(statement.execute((key,)).rows)
        return fetched

    def routed_executor() -> int:
        fetched = 0
        for key in keys:
            slots[0] = key
            fetched += len(sharded._executor.execute(lookup_plan))
        return fetched

    names = frozenset({"customers"})

    def scattered() -> int:
        fetched = 0
        for key in keys:
            slots[0] = key
            fetched += len(router._scatter(lookup_plan, names, SHARD_COUNT))
        return fetched

    slots[0] = keys[0]
    routed_rows = statement.execute((keys[0],)).rows
    executor_rows = sharded._executor.execute(lookup_plan)
    scatter_rows = router._scatter(lookup_plan, names, SHARD_COUNT)
    # The prepared statement scans without an alias while the hand-built
    # plan aliases the table: compare on the bare-column view.
    alias_free = lambda rows: _normalized(  # noqa: E731
        [{k: v for k, v in row.items() if "." not in k} for row in rows]
    )
    if not (
        alias_free(routed_rows)
        == alias_free(executor_rows)
        == alias_free(scatter_rows)
    ):
        raise AssertionError("routed and scatter-gather lookups differ")
    if router.stats.routed == 0:
        raise AssertionError("point lookup did not route to a single shard")
    routed_s = _best_time(routed)
    routed_executor_s = _best_time(routed_executor)
    scatter_s = _best_time(scattered)
    point_lookup = {
        "lookups": len(keys),
        "shards": SHARD_COUNT,
        "table_rows": customers,
        "routed_seconds": routed_s,
        "routed_executor_seconds": routed_executor_s,
        "scatter_seconds": scatter_s,
        # Headline: the engine's routed point-lookup path vs forcing the
        # same statement through every shard.
        "speedup": scatter_s / routed_s if routed_s else None,
        "speedup_executor_routed": (
            scatter_s / routed_executor_s if routed_executor_s else None
        ),
    }

    # -- sharded_scan_filter: the aggregate view vs unsharded -------------
    filter_plan = executor_plans()["scan_filter"]
    sharded_rows = sharded._executor.execute(filter_plan)
    unsharded_rows = unsharded._executor.execute(filter_plan)
    if sharded_rows != unsharded_rows:
        raise AssertionError("sharded and unsharded scan_filter results differ")
    fallback_before = router.stats.fallback
    sharded._executor.execute(filter_plan)
    if router.stats.fallback == fallback_before:
        raise AssertionError("scan_filter did not run on the aggregate view")
    output_rows = len(sharded_rows)
    del sharded_rows, unsharded_rows
    sharded_filter_s = _best_time(lambda: sharded._executor.execute(filter_plan))
    unsharded_filter_s = _best_time(
        lambda: unsharded._executor.execute(filter_plan)
    )
    scan_filter = {
        "output_rows": output_rows,
        "shards": SHARD_COUNT,
        "unsharded_seconds": unsharded_filter_s,
        "sharded_seconds": sharded_filter_s,
        "relative_overhead": (
            sharded_filter_s / unsharded_filter_s if unsharded_filter_s else None
        ),
    }

    # -- sharded_aggregate: partial aggregates merged at the gather -------
    aggregate_plan = algebra.Aggregate(
        algebra.Scan("orders"),
        group_by=(ColumnRef("o_c_id"),),
        aggregates=(
            algebra.AggregateSpec("count", None, "n"),
            algebra.AggregateSpec("sum", ColumnRef("o_id"), "total"),
            algebra.AggregateSpec("min", ColumnRef("o_id"), "low"),
            algebra.AggregateSpec("max", ColumnRef("o_id"), "high"),
        ),
    )
    sharded_rows = sharded._executor.execute(aggregate_plan)
    unsharded_rows = unsharded._executor.execute(aggregate_plan)
    # Integer partials merge exactly; only group order may differ.
    if _normalized(sharded_rows) != _normalized(unsharded_rows):
        raise AssertionError("sharded and unsharded aggregates differ")
    local_before = router.stats.local
    sharded._executor.execute(aggregate_plan)
    if router.stats.local == local_before:
        raise AssertionError("aggregate did not run as per-shard partials")
    groups = len(sharded_rows)
    del sharded_rows, unsharded_rows
    sharded_agg_s = _best_time(lambda: sharded._executor.execute(aggregate_plan))
    unsharded_agg_s = _best_time(
        lambda: unsharded._executor.execute(aggregate_plan)
    )
    aggregate = {
        "groups": groups,
        "shards": SHARD_COUNT,
        "unsharded_seconds": unsharded_agg_s,
        "sharded_seconds": sharded_agg_s,
        "relative_overhead": (
            sharded_agg_s / unsharded_agg_s if unsharded_agg_s else None
        ),
    }

    return {
        "sharded_point_lookup": point_lookup,
        "sharded_scan_filter": scan_filter,
        "sharded_aggregate": aggregate,
    }


def bench_parallel(rows: int) -> dict:
    """Parallel scatter-gather: serial scatter vs the worker pool at 8 shards.

    ``parallel_aggregate`` — the per-shard partial aggregate of
    ``sharded_aggregate``, executed serially and on the worker pool; rows
    are asserted identical (parallel preserves the serial merge order
    exactly), and both are compared against the unsharded baseline.
    (Single-table filters run on the aggregate view and never reach the
    pool, so there is no filter entry.)

    ``relative_overhead`` is pool-vs-unsharded — the number the sharding
    tax becomes a speedup on (< 1.0 on a multi-core runner; on a single
    core the thread pool can only break even minus coordination cost).
    ``BENCH_ENGINE_WORKERS`` sizes the thread pool (default: CPU count).
    """
    sharded, unsharded = _build_sharded_pair(rows)
    workers = int(os.environ.get("BENCH_ENGINE_WORKERS", "0")) or (
        os.cpu_count() or 1
    )
    plan = algebra.Aggregate(
        algebra.Scan("orders"),
        group_by=(ColumnRef("o_c_id"),),
        aggregates=(
            algebra.AggregateSpec("count", None, "n"),
            algebra.AggregateSpec("sum", ColumnRef("o_id"), "total"),
            algebra.AggregateSpec("min", ColumnRef("o_id"), "low"),
            algebra.AggregateSpec("max", ColumnRef("o_id"), "high"),
        ),
    )
    serial_rows = sharded._executor.execute(plan)
    unsharded_rows = unsharded._executor.execute(plan)
    if _normalized(serial_rows) != _normalized(unsharded_rows):
        raise AssertionError(
            "parallel_aggregate: sharded and unsharded rows differ"
        )
    serial_s = _best_time(lambda: sharded._executor.execute(plan))
    sharded.set_parallel(workers, "thread")
    parallel_rows = sharded._executor.execute(plan)
    if parallel_rows != serial_rows:
        raise AssertionError(
            "parallel_aggregate: parallel scatter differs from serial"
        )
    parallel_s = _best_time(lambda: sharded._executor.execute(plan))
    unsharded_s = _best_time(lambda: unsharded._executor.execute(plan))
    sharded.close_parallel()
    return {
        "parallel_aggregate": {
            "output_rows": len(serial_rows),
            "shards": SHARD_COUNT,
            "workers": workers,
            "mode": "thread",
            "unsharded_seconds": unsharded_s,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup_vs_serial": (
                serial_s / parallel_s if parallel_s else None
            ),
            "relative_overhead": (
                parallel_s / unsharded_s if unsharded_s else None
            ),
        }
    }


#: Rows inserted (and then updated) per timed run of the WAL benchmark.
WAL_BENCH_UPDATES = 5

#: Operations / fault rate / seed for the fault-retry convergence benchmark.
FAULT_BENCH_OPS = 300
FAULT_BENCH_RATE = 0.1
FAULT_BENCH_SEED = 42


def bench_wal_overhead(rows: int) -> dict:
    """Write path with and without the write-ahead log.

    Each timed run builds a fresh table, bulk-inserts it, and runs a few
    predicate UPDATEs — once on a plain database and once with the WAL
    enabled (every write logged as a typed record plus a commit marker
    before it applies).  The headline is the relative overhead of
    durability on the write path; recovery equivalence (replaying the log
    reproduces the live state row-for-row) is asserted as part of the run.
    """
    count = max(rows // 5, 1_000)
    payload = [
        {"e_id": i, "e_grp": i % 10, "e_val": float((i * 7919) % 1000)}
        for i in range(count)
    ]
    columns = [
        Column("e_id", ColumnType.INT),
        Column("e_grp", ColumnType.INT),
        Column("e_val", ColumnType.FLOAT),
    ]

    def run(wal: bool) -> Database:
        database = Database(wal=wal)
        database.create_table("events", columns, primary_key="e_id")
        database.insert("events", payload)
        for i in range(WAL_BENCH_UPDATES):
            database.update_table(
                "events",
                lambda row, i=i: row["e_grp"] == i,
                {"e_val": float(i)},
            )
        return database

    unlogged_s = _best_time(lambda: run(False), repeats=3)
    logged_s = _best_time(lambda: run(True), repeats=3)

    database = run(True)
    recovered = Database.recover(database.wal)
    live_rows = [dict(r) for r in database.table("events").rows]
    recovered_rows = [dict(r) for r in recovered.table("events").rows]
    if live_rows != recovered_rows:
        raise AssertionError("WAL recovery diverged from the live database")
    stats = database.wal.stats
    return {
        "rows": count,
        "updates": WAL_BENCH_UPDATES,
        "unlogged_seconds": unlogged_s,
        "logged_seconds": logged_s,
        "relative_overhead": (
            logged_s / unlogged_s if unlogged_s else None
        ),
        "wal_records": stats.records,
        "wal_rows_logged": stats.rows_logged,
        "group_commit": _bench_group_commit(rows),
    }


#: Transactions / flush cost for the group-commit delta measurement.
GROUP_COMMITS = 20
GROUP_FLUSH_SECONDS = 0.05
GROUP_WINDOW = 2.0


def _bench_group_commit(rows: int) -> dict:
    """Virtual-time delta of group commit on a commit-heavy workload.

    ``GROUP_COMMITS`` sequential BEGIN/UPDATE/COMMIT transactions over the
    slow-remote network, once with every COMMIT paying the full WAL flush
    (``group_window=0``) and once with commits inside a window piggybacking
    on the last flush (``wal_group_commit`` counter).  The grouped run must
    be cheaper in virtual time, by up to ``(N-1) * flush_seconds``.
    """
    from repro.api.engine import Engine
    from repro.net.network import SLOW_REMOTE

    count = max(rows // 50, 200)

    def run(group_window: float) -> tuple[float, int]:
        engine = (
            Engine.builder()
            .database(build_benchmark_database(count))
            .network(SLOW_REMOTE)
            .wal(flush_seconds=GROUP_FLUSH_SECONDS, group_window=group_window)
            .build()
        )
        connection = engine.connect()
        for i in range(GROUP_COMMITS):
            connection.begin()
            connection.execute_update(
                f"update customers set c_tier = {i % 5} where c_id = 0"
            )
            connection.commit()
        return connection.elapsed, engine.database.wal.stats.group_commits

    ungrouped_virtual, _ = run(0.0)
    grouped_virtual, grouped = run(GROUP_WINDOW)
    if grouped == 0:
        raise AssertionError("group commit never batched a flush")
    if grouped_virtual >= ungrouped_virtual:
        raise AssertionError("group commit did not reduce virtual commit time")
    return {
        "transactions": GROUP_COMMITS,
        "flush_seconds": GROUP_FLUSH_SECONDS,
        "group_window": GROUP_WINDOW,
        "ungrouped_virtual_seconds": ungrouped_virtual,
        "grouped_virtual_seconds": grouped_virtual,
        "flushes_saved": grouped,
        "virtual_seconds_saved": ungrouped_virtual - grouped_virtual,
    }


def bench_fault_retry_convergence(rows: int) -> dict:
    """Seeded fault-injected workload vs the same workload fault-free.

    The faulty engine injects deterministic timeouts/drops/transient errors
    at ``FAULT_BENCH_RATE`` and retries them with capped exponential
    backoff; faults that exhaust the retry budget are re-issued at the
    application level (safe: request-path faults never executed
    server-side).  Row-for-row equality of every query result and of the
    final table state against the fault-free run is asserted — the
    convergence property — and the extra *virtual* time the faults cost is
    the headline number.
    """
    from repro.api.engine import Engine
    from repro.net.faults import FaultError, RetryPolicy
    from repro.net.network import SLOW_REMOTE

    customers = max(rows // 10, 1)
    sql = "select * from customers where c_id = ?"

    def run(engine: Engine, *, reissue: bool) -> tuple:
        connection = engine.connect()
        statement = connection.prepare(sql)
        outputs = []
        for i in range(FAULT_BENCH_OPS):
            key = (i * 7919) % customers
            if i % 5 == 4:
                op = lambda: connection.execute_update(
                    f"update customers set c_tier = {i % 5} "
                    f"where c_id = {key}"
                )
            else:
                op = lambda: connection.execute_prepared(
                    statement, (key,)
                ).rows
            while True:
                try:
                    outputs.append(op())
                    break
                except FaultError:
                    if not reissue:
                        raise
        return outputs, connection.elapsed

    clean_engine = (
        Engine.builder()
        .database(build_benchmark_database(rows))
        .network(SLOW_REMOTE)
        .build()
    )
    faulty_engine = (
        Engine.builder()
        .database(build_benchmark_database(rows))
        .network(SLOW_REMOTE)
        .fault_rate(FAULT_BENCH_RATE, seed=FAULT_BENCH_SEED)
        .retries(RetryPolicy(max_attempts=3, seed=FAULT_BENCH_SEED))
        .build()
    )

    started = time.perf_counter()
    clean_out, clean_virtual = run(clean_engine, reissue=False)
    clean_wall = time.perf_counter() - started
    started = time.perf_counter()
    faulty_out, faulty_virtual = run(faulty_engine, reissue=True)
    faulty_wall = time.perf_counter() - started

    if clean_out != faulty_out:
        raise AssertionError(
            "fault-injected run diverged from the fault-free run"
        )
    clean_rows = [
        dict(r) for r in clean_engine.database.table("customers").rows
    ]
    faulty_rows = [
        dict(r) for r in faulty_engine.database.table("customers").rows
    ]
    if clean_rows != faulty_rows:
        raise AssertionError(
            "final table state diverged between faulty and fault-free runs"
        )
    stats = faulty_engine.faults.stats
    if stats.injected != stats.retries + stats.exhausted + stats.ambiguous:
        raise AssertionError("a fault was neither retried nor surfaced")
    return {
        "operations": FAULT_BENCH_OPS,
        "fault_rate": FAULT_BENCH_RATE,
        "seed": FAULT_BENCH_SEED,
        "network": SLOW_REMOTE.name,
        "faults_injected": stats.injected,
        "retries": stats.retries,
        "reissued_after_exhaustion": stats.exhausted,
        "clean_virtual_seconds": clean_virtual,
        "faulty_virtual_seconds": faulty_virtual,
        "fault_virtual_overhead": (
            faulty_virtual / clean_virtual if clean_virtual else None
        ),
        "clean_wall_seconds": clean_wall,
        "faulty_wall_seconds": faulty_wall,
    }


#: Operations / offered rate / mix for the MVCC reader-writer benchmark.
MVCC_LOADGEN_OPS = 150
MVCC_LOADGEN_RATE = 2.0
MVCC_READ_FRACTION = 0.7

#: Sentinel tier value (outside the generator's 0..4 range) for the
#: snapshot-consistency check.
MVCC_SENTINEL_TIER = 7


def bench_mvcc_reader_writer(rows: int) -> dict:
    """Open-loop readers against an MVCC engine, write-free vs mixed.

    The baseline run is 100% point reads; the mixed run interleaves
    transactional UPDATEs (first-committer-wins conflicts tolerated and
    counted).  Under MVCC, readers outside a transaction execute against
    the latest committed snapshot and never wait on writers, so mixed read
    p50 must stay within 1.2x of the write-free baseline — asserted, along
    with a snapshot opened before a committed write still seeing the old
    rows.
    """
    from repro.api.engine import Engine
    from repro.net.network import SLOW_REMOTE
    from repro.workloads.loadgen import OpenLoopLoadGenerator

    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    engine = (
        Engine.builder()
        .database(database)
        .network(SLOW_REMOTE)
        .mvcc()
        .build()
    )
    read_sql = "select * from customers where c_id = ?"

    def read_params(rng):
        return (rng.randrange(customers),)

    baseline = OpenLoopLoadGenerator(
        engine.connect(),
        rate=MVCC_LOADGEN_RATE,
        operations=MVCC_LOADGEN_OPS,
        read_sql=read_sql,
        read_params=read_params,
        seed=11,
    ).run()

    # Snapshot-consistency probe: open a snapshot, commit a write the
    # mixed run will not overwrite (its writes avoid key 0), and verify
    # at the end that the snapshot still sees the pre-write row.
    original = engine.connect().execute_query(read_sql, (0,)).rows[0]["c_tier"]
    snapshot = database.snapshot()
    writer = engine.connect()
    writer.run_transaction(
        lambda c: c.execute_update(
            f"update customers set c_tier = {MVCC_SENTINEL_TIER} "
            f"where c_id = 0"
        )
    )

    def write_params(rng):
        # Keys 1.. only: key 0 carries the snapshot sentinel.
        return (rng.randrange(5), rng.randrange(1, max(customers, 2)))

    mixed = OpenLoopLoadGenerator(
        engine.connect(),
        rate=MVCC_LOADGEN_RATE,
        operations=MVCC_LOADGEN_OPS,
        read_sql=read_sql,
        read_params=read_params,
        write_sql="update customers set c_tier = ? where c_id = ?",
        write_params=write_params,
        read_fraction=MVCC_READ_FRACTION,
        seed=13,
        write_transaction=True,
    ).run()

    snapshot_value = snapshot.execute(read_sql, (0,)).rows[0]["c_tier"]
    live_value = engine.connect().execute_query(read_sql, (0,)).rows[0][
        "c_tier"
    ]
    snapshot.close()
    if snapshot_value != original or live_value != MVCC_SENTINEL_TIER:
        raise AssertionError(
            "snapshot visibility broke: snapshot saw "
            f"{snapshot_value!r} (expected {original!r}), live saw "
            f"{live_value!r} (expected {MVCC_SENTINEL_TIER!r})"
        )
    ratio = (
        mixed.read_latency.p50 / baseline.read_latency.p50
        if baseline.read_latency.p50
        else None
    )
    if ratio is None or ratio > 1.2:
        raise AssertionError(
            f"snapshot readers serialized behind writers: mixed read p50 is "
            f"{ratio}x the write-free baseline (limit 1.2x)"
        )
    mvcc_stats = database.mvcc_stats()
    return {
        "operations": MVCC_LOADGEN_OPS,
        "offered_rate": MVCC_LOADGEN_RATE,
        "read_fraction": MVCC_READ_FRACTION,
        "network": SLOW_REMOTE.name,
        "baseline_read": baseline.read_latency.as_dict(),
        "mixed_read": mixed.read_latency.as_dict(),
        "mixed_write": mixed.write_latency.as_dict(),
        "read_p50_ratio": ratio,
        "mixed_throughput": mixed.throughput,
        "write_conflicts": mixed.conflicts,
        "snapshot_consistent": True,
        "mvcc": {
            key: mvcc_stats[key]
            for key in (
                "versions_created",
                "versions_reclaimed",
                "snapshots_taken",
                "write_conflicts",
            )
        },
    }


#: Concurrency limit / operations per rate for the admission benchmark.
ADMISSION_LIMIT = 4
ADMISSION_OPS = 150


def bench_admission_open_loop(rows: int) -> dict:
    """Latency percentiles at 0.5x / 1x / 2x an admission-limited capacity.

    The server's capacity is ``limit / service_time`` (service time probed
    without admission).  Below capacity, latency sits at the service time;
    past it, the open-loop queue grows without bound — the knee.  Asserted:
    the 2x run queues and its p95 clearly exceeds the 0.5x run's.
    """
    from repro.api.engine import Engine
    from repro.net.network import SLOW_REMOTE
    from repro.workloads.loadgen import OpenLoopLoadGenerator

    database = build_benchmark_database(rows)
    customers = max(rows // 10, 1)
    read_sql = "select * from customers where c_id = ?"

    def read_params(rng):
        return (rng.randrange(customers),)

    probe_engine = (
        Engine.builder().database(database).network(SLOW_REMOTE).build()
    )
    probe = probe_engine.connect()
    _, service_seconds = probe._with_faults(
        "query",
        lambda: probe._measure_prepared(probe.prepare(read_sql), (0,)),
        idempotent=True,
    )
    capacity = ADMISSION_LIMIT / service_seconds

    runs: dict = {}
    for label, multiplier in (("0.5x", 0.5), ("1x", 1.0), ("2x", 2.0)):
        # A fresh engine per rate: admission slot bookkeeping must not
        # leak between runs.
        engine = (
            Engine.builder()
            .database(database)
            .network(SLOW_REMOTE)
            .admission(ADMISSION_LIMIT)
            .build()
        )
        report = OpenLoopLoadGenerator(
            engine.connect(),
            rate=capacity * multiplier,
            operations=ADMISSION_OPS,
            read_sql=read_sql,
            read_params=read_params,
            seed=29,
        ).run()
        admission = engine.admission.stats
        runs[label] = {
            "offered_rate": capacity * multiplier,
            "throughput": report.throughput,
            "p50": report.latency.p50,
            "p95": report.latency.p95,
            "p99": report.latency.p99,
            "queued": admission.queued,
            "queue_seconds": admission.queue_seconds,
            "peak_in_flight": admission.peak_in_flight,
        }
    if runs["2x"]["queued"] == 0:
        raise AssertionError("overload run never queued at the limit")
    knee = (
        runs["2x"]["p95"] / runs["0.5x"]["p95"]
        if runs["0.5x"]["p95"]
        else None
    )
    if knee is None or knee < 1.5:
        raise AssertionError(
            f"queueing knee not visible: overload p95 is only {knee}x the "
            f"underload p95"
        )
    return {
        "limit": ADMISSION_LIMIT,
        "operations_per_rate": ADMISSION_OPS,
        "network": SLOW_REMOTE.name,
        "service_seconds": service_seconds,
        "capacity_ops_per_second": capacity,
        "knee_p95_ratio": knee,
        "runs": runs,
    }


#: Queries per timed run of the tracing-overhead benchmark.
TRACING_QUERIES = 10

#: Maximum tolerated traced/untraced wall-time ratio (plus timing epsilon).
TRACING_OVERHEAD_LIMIT = 1.05


def bench_tracing_overhead(rows: int) -> dict:
    """Cost of structured tracing on the vectorized scan_filter query.

    The scan_filter predicate (the ``scan_filter`` microbenchmark shape, as
    SQL) runs through the full connection path three ways: with no
    tracer configured, with a tracer configured but disabled, and with
    tracing enabled recording one multi-span trace per statement.  Enabled
    tracing must stay within ``TRACING_OVERHEAD_LIMIT`` (5%) of the
    untraced wall time — the per-query work is a handful of span objects
    against a multi-thousand-row scan — and a disabled tracer must be free
    (one attribute check per request).  Both bounds are asserted.
    """
    from repro.net.connection import SimulatedConnection
    from repro.net.network import FAST_LOCAL
    from repro.obs.trace import Tracer

    database = build_benchmark_database(rows)
    sql = "select * from orders where o_total > 500.0 and o_status = 'OPEN'"

    def make_runner(tracer):
        connection = SimulatedConnection(database, FAST_LOCAL, tracer=tracer)
        statement = connection.prepare(sql)

        def run() -> int:
            fetched = 0
            for _ in range(TRACING_QUERIES):
                fetched += len(connection.execute_prepared(statement).rows)
            return fetched

        return run

    untraced_run = make_runner(None)
    disabled_run = make_runner(Tracer(enabled=False))
    tracer = Tracer(max_traces=64)
    traced_run = make_runner(tracer)

    output_rows = untraced_run() // TRACING_QUERIES
    if traced_run() // TRACING_QUERIES != output_rows:
        raise AssertionError("traced and untraced results differ")
    # The traced runner must actually have recorded vectorized executions
    # with sound span accounting — otherwise the ratio measures nothing.
    if not tracer.traces:
        raise AssertionError("tracing recorded no traces")
    last = tracer.traces[-1]
    last.check_accounting()
    execute_span = last.find("execute")
    if execute_span is None or execute_span.attributes.get("tier") != "vectorized":
        raise AssertionError(
            f"traced query did not run vectorized: {last.as_dict()}"
        )

    # Interleave the three variants round-robin so allocator and cache
    # state drift hits them equally; per-variant minimum over the rounds.
    import gc

    timings = {"untraced": float("inf"), "disabled": float("inf"), "traced": float("inf")}
    runners = (
        ("untraced", untraced_run),
        ("disabled", disabled_run),
        ("traced", traced_run),
    )
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS * 2):
            for label, run in runners:
                started = time.perf_counter()
                run()
                timings[label] = min(
                    timings[label], time.perf_counter() - started
                )
    finally:
        if gc_was_enabled:
            gc.enable()
    untraced_s = timings["untraced"]
    disabled_s = timings["disabled"]
    traced_s = timings["traced"]
    epsilon = 1e-4
    if traced_s > untraced_s * TRACING_OVERHEAD_LIMIT + epsilon:
        raise AssertionError(
            f"tracing overhead {traced_s / untraced_s:.3f}x exceeds "
            f"{TRACING_OVERHEAD_LIMIT}x"
        )
    if disabled_s > untraced_s * TRACING_OVERHEAD_LIMIT + epsilon:
        raise AssertionError(
            f"disabled tracer is not free: {disabled_s / untraced_s:.3f}x"
        )
    return {
        "queries": TRACING_QUERIES,
        "output_rows": output_rows,
        "untraced_seconds": untraced_s,
        "disabled_seconds": disabled_s,
        "traced_seconds": traced_s,
        "disabled_ratio": disabled_s / untraced_s if untraced_s else None,
        "traced_ratio": traced_s / untraced_s if untraced_s else None,
        "limit": TRACING_OVERHEAD_LIMIT,
    }


def bench_optimizer(wilos_scale: int = 2_000) -> dict:
    """End-to-end ``optimize()`` wall-clock on the Fig. 13 / Wilos workloads."""
    parameters = CostParameters.for_network(FAST_LOCAL)
    per_program: dict[str, float] = {}

    orders_db = tpcds.build_orders_database(num_orders=1_000, num_customers=500)
    registry = tpcds.build_registry()

    def run_p0():
        optimizer = CobraOptimizer(orders_db, parameters, registry=registry)
        return optimizer.optimize(P0_SOURCE)

    per_program["p0_process_orders"] = _best_time(run_p0)

    wilos_db = build_wilos_database(scale=wilos_scale)
    for pattern_id, pattern in build_patterns().items():

        def run_pattern(pattern=pattern):
            optimizer = CobraOptimizer(wilos_db, parameters)
            return optimizer.optimize(
                pattern.source, function_name=pattern.function_name
            )

        per_program[f"wilos_{pattern_id}"] = _best_time(run_pattern)

    return {
        "per_program_seconds": per_program,
        "total_seconds": sum(per_program.values()),
    }


def main() -> dict:
    rows = int(os.environ.get("BENCH_ENGINE_ROWS", str(DEFAULT_ROWS)))
    started = time.perf_counter()
    report = {
        "benchmark": "engine",
        "rows": rows,
        "executor": bench_executor(rows),
        "codegen": bench_codegen(rows),
        "prepared_point_lookup": bench_prepared_point_lookup(rows),
        "pipelined_executemany": bench_pipelined_executemany(rows),
        "async_concurrent_clients": bench_async_concurrent_clients(rows),
        "wal_overhead": bench_wal_overhead(rows),
        "fault_retry_convergence": bench_fault_retry_convergence(rows),
        "mvcc_reader_writer": bench_mvcc_reader_writer(rows),
        "admission_open_loop": bench_admission_open_loop(rows),
        "tracing_overhead": bench_tracing_overhead(rows),
        "optimizer": bench_optimizer(),
    }
    report.update(bench_sharded(rows))
    report.update(bench_parallel(rows))
    report["harness_seconds"] = time.perf_counter() - started
    out_path = os.environ.get(
        "BENCH_ENGINE_OUT", os.path.join(_REPO_ROOT, "BENCH_engine.json")
    )
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    main()
