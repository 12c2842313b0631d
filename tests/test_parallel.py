"""Tests for parallel scatter-gather execution on the shard worker pool.

Covers the :class:`~repro.db.parallel.ShardExecutorPool` surface (modes,
deterministic error surfacing, stats, lifecycle), the parallel ≡ serial
scatter ≡ unsharded equivalence property across both execution tiers in
serial and thread pool modes (including theta-join fallback plans, and
unknown-function and one-shard errors raised inside partial aggregates
mid-scatter), single-table reads that run on the aggregate view without
touching the pool, the sorted-run k-way merge of co-partitioned joins at
the gather node, out-of-order partial-aggregate merging, counter
accounting, the engine facade wiring
(``EngineBuilder.parallel``, ``Engine.stats()["sharding"]["parallel"]``,
CLI ``--workers``), and the parallel-scatter trace breakdown.
"""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import BinaryOp, ColumnRef, FunctionCall, Literal
from repro.db.parallel import ParallelConfigError, ShardExecutorPool
from repro.db.schema import Column, ColumnType
from repro.db.sharding import _PartialAggregate
from repro.db.vectorized import VectorizedExecutor, merge_sorted_runs

SHARDS = 4

QUERIES = [
    "select o_id, o_total from orders where o_total > 40",
    # Co-partitioned joins under a root Sort with total keys: shard-local
    # joins whose sorted runs the thread pool k-way merges at the gather.
    "select o_id, o_total, c_tier from orders join customers "
    "on o_c_id = c_id where o_total > 40 order by o_total desc, o_id",
    "select o_id, o_c_id, c_tier from orders join customers "
    "on o_c_id = c_id order by c_tier, o_id desc",
    "select o_c_id, count(*) as n, sum(o_total) as s, avg(o_total) as a "
    "from orders group by o_c_id",
    "select count(*) as n, min(o_total) as lo, max(o_total) as hi "
    "from orders",
    "select o_id, c_tier from orders join customers on o_c_id = c_id "
    "where o_total > 60",
]


def build_database(
    shards: int = 0, mode: str = "vectorized", rows: int = 120
) -> Database:
    database = Database(execution_mode=mode)
    database.create_table(
        "orders",
        [
            Column("o_id", ColumnType.INT),
            Column("o_c_id", ColumnType.INT),
            Column("o_total", ColumnType.INT),
        ],
        primary_key="o_id",
    )
    database.create_table(
        "customers",
        [
            Column("c_id", ColumnType.INT),
            Column("c_tier", ColumnType.INT),
        ],
        primary_key="c_id",
    )
    database.insert(
        "orders",
        (
            {"o_id": i, "o_c_id": i % 10, "o_total": (i * 13) % 97}
            for i in range(rows)
        ),
    )
    database.insert(
        "customers",
        ({"c_id": i, "c_tier": i % 3} for i in range(10)),
    )
    if shards:
        database.shard_table("orders", "o_c_id", shards)
        database.shard_table("customers", "c_id", shards)
    database.analyze()
    return database


def row_key(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def as_multiset(rows: list) -> list:
    return sorted(row_key(row) for row in rows)


# -- pool surface --------------------------------------------------------------


class TestShardExecutorPool:
    def test_rejects_unknown_mode_and_bad_worker_counts(self):
        with pytest.raises(ParallelConfigError):
            ShardExecutorPool(mode="fibers")
        with pytest.raises(ParallelConfigError):
            ShardExecutorPool(mode="process")
        with pytest.raises(ParallelConfigError):
            ShardExecutorPool(workers=0)

    def test_run_tasks_returns_results_in_task_order(self):
        pool = ShardExecutorPool(workers=3)
        results, seconds = pool.run_tasks(
            [lambda value=value: value * 10 for value in range(8)]
        )
        assert results == [value * 10 for value in range(8)]
        assert len(seconds) == 8 and all(s >= 0.0 for s in seconds)
        pool.close()

    def test_lowest_index_error_surfaces_once(self):
        pool = ShardExecutorPool(workers=3)

        def boom(index):
            raise ValueError(f"shard {index} broke")

        tasks = [
            lambda: [1],
            lambda: boom(1),
            lambda: boom(2),
            lambda: [4],
        ]
        with pytest.raises(ValueError, match="shard 1 broke"):
            pool.run_tasks(tasks)
        pool.close()

    def test_note_scatter_accumulates_max_not_sum(self):
        pool = ShardExecutorPool(workers=2)
        pool.note_scatter([0.5, 0.2, 0.3])
        stats = pool.stats()
        assert stats["scatters"] == 1
        assert stats["shard_seconds"] == pytest.approx(1.0)
        assert stats["parallel_seconds"] == pytest.approx(0.5)

    def test_close_is_idempotent_and_pool_recreates_lazily(self):
        pool = ShardExecutorPool(workers=2)
        results, _ = pool.run_tasks([lambda: 1, lambda: 2])
        pool.close()
        pool.close()
        results, _ = pool.run_tasks([lambda: 3, lambda: 4])
        assert results == [3, 4]
        pool.close()


# -- parallel ≡ serial ≡ unsharded --------------------------------------------


@pytest.mark.parametrize("mode", ["vectorized", "kernel", "interpreted"])
@pytest.mark.parametrize("pool_mode", ["serial", "thread"])
class TestParallelEquivalence:
    @pytest.fixture
    def execution_mode(self, mode, monkeypatch):
        """The database execution mode for path ``mode``; ``kernel`` runs
        the vectorized tier with codegen off on every executor."""
        monkeypatch.setattr(
            VectorizedExecutor, "codegen_enabled", mode != "kernel"
        )
        return "interpreted" if mode == "interpreted" else "vectorized"

    def test_queries_match_serial_and_unsharded(
        self, execution_mode, pool_mode
    ):
        unsharded = build_database(mode=execution_mode)
        serial = build_database(shards=SHARDS, mode=execution_mode)
        parallel = build_database(shards=SHARDS, mode=execution_mode)
        parallel.set_parallel(workers=2, mode=pool_mode)
        try:
            for sql in QUERIES:
                reference = unsharded.execute_sql(sql).rows
                serial_rows = serial.execute_sql(sql).rows
                parallel_rows = parallel.execute_sql(sql).rows
                # Serial scatter order is the contract; parallel must
                # reproduce it exactly, not just as a multiset.
                assert parallel_rows == serial_rows, sql
                if "order by" in sql:
                    assert parallel_rows == reference, sql
                else:
                    assert as_multiset(parallel_rows) == as_multiset(
                        reference
                    ), sql
        finally:
            parallel.close_parallel()

    def test_theta_join_fallback_plan_stays_exact(
        self, execution_mode, pool_mode
    ):
        # Orders sharded, customers broadcast: the theta join has no
        # vectorized lowering.  Alone it runs once on the aggregate view,
        # in unsharded order; under a grouped aggregate it runs per shard
        # (row tier per shard, under the pool) and merges partials.
        reference = build_database(mode="interpreted")
        parallel = build_database(mode=execution_mode)
        parallel.shard_table("orders", "o_c_id", SHARDS)
        parallel.set_parallel(workers=2, mode=pool_mode)
        join = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        aggregate = algebra.Aggregate(
            join,
            (ColumnRef("c_id", "c"),),
            (algebra.AggregateSpec("count", None, "n"),),
        )
        try:
            rows = parallel.execute_plan(join).rows
            assert rows == reference.execute_plan(join).rows
            assert parallel.sharding_stats()["fallback"] == 1
            rows = parallel.execute_plan(aggregate).rows
            expected = reference.execute_plan(aggregate).rows
            assert as_multiset(rows) == as_multiset(expected)
            assert parallel.sharding_stats()["local"] == 1
        finally:
            parallel.close_parallel()

    @staticmethod
    def grouped_sum(argument) -> algebra.Aggregate:
        """``sum(argument)`` per ``o_c_id``: a partial aggregate, so every
        shard evaluates ``argument`` in its own task (on the pool in thread
        mode) and an error surfaces from inside the scatter."""
        return algebra.Aggregate(
            algebra.Scan("orders"),
            (ColumnRef("o_c_id"),),
            (algebra.AggregateSpec("sum", argument, "s"),),
        )

    @staticmethod
    def counting_pool(monkeypatch) -> list:
        """Record the task count of every ``run_tasks`` call."""
        calls: list = []
        run_tasks = ShardExecutorPool.run_tasks

        def counting_run_tasks(pool, tasks):
            calls.append(len(tasks))
            return run_tasks(pool, tasks)

        monkeypatch.setattr(ShardExecutorPool, "run_tasks", counting_run_tasks)
        return calls

    def assert_scattered(self, database, pool_mode, calls) -> None:
        """The failing plan took the per-shard route (and, in thread mode,
        the pool) rather than the aggregate view."""
        assert database._router.last_route["kind"] == "local-aggregate"
        assert database.sharding_stats()["fallback"] == 0
        if pool_mode == "thread":
            assert calls == [SHARDS]
        else:
            assert calls == []

    def test_unknown_function_raises_identically_once(
        self, execution_mode, pool_mode, monkeypatch
    ):
        reference = build_database(mode="interpreted")
        parallel = build_database(shards=SHARDS, mode=execution_mode)
        parallel.set_parallel(workers=2, mode=pool_mode)
        calls = self.counting_pool(monkeypatch)
        plan = self.grouped_sum(
            FunctionCall("no_such_function", (ColumnRef("o_id"),))
        )
        try:
            with pytest.raises(Exception) as parallel_error:
                parallel.execute_plan(plan)
            self.assert_scattered(parallel, pool_mode, calls)
            with pytest.raises(Exception) as reference_error:
                reference.execute_plan(plan)
            assert str(parallel_error.value) == str(reference_error.value)
            # The failed scatter leaves the counters consistent: stats
            # surfaces stay readable and non-negative.
            stats = parallel.execution_stats()
            assert all(count >= 0 for count in stats["tiers"].values())
            assert parallel.sharding_stats()["parallel"]["mode"] == pool_mode
        finally:
            parallel.close_parallel()

    def test_error_on_one_shard_surfaces_once(
        self, execution_mode, pool_mode, monkeypatch
    ):
        # 1 / (o_c_id - 3) raises only for rows with o_c_id == 3, which all
        # hash to a single shard; the other shards complete fine.
        unsharded = build_database(mode=execution_mode)
        serial = build_database(shards=SHARDS, mode=execution_mode)
        parallel = build_database(shards=SHARDS, mode=execution_mode)
        parallel.set_parallel(workers=2, mode=pool_mode)
        calls = self.counting_pool(monkeypatch)
        plan = self.grouped_sum(
            BinaryOp(
                "/",
                Literal(1),
                BinaryOp("-", ColumnRef("o_c_id"), Literal(3)),
            )
        )
        try:
            with pytest.raises(Exception) as parallel_error:
                parallel.execute_plan(plan)
            self.assert_scattered(parallel, pool_mode, calls)
            with pytest.raises(Exception) as serial_error:
                serial.execute_plan(plan)
            with pytest.raises(Exception) as unsharded_error:
                unsharded.execute_plan(plan)
            for error in (serial_error, unsharded_error):
                assert type(parallel_error.value) is type(error.value)
                assert str(parallel_error.value) == str(error.value)
        finally:
            parallel.close_parallel()


#: Reads over one sharded table (orders; customers stays unsharded): a
#: filter on a non-shard-key column, a root Sort with many ties, and a
#: join with a broadcast side.
SINGLE_TABLE_READS = [
    "select o_id, o_total from orders where o_total > 40",
    "select o_id, o_c_id, o_total from orders order by o_c_id",
    "select o_id, c_tier from orders join customers on o_c_id = c_id "
    "where o_total > 60",
]


@pytest.mark.parametrize("mode", ["vectorized", "kernel", "interpreted"])
class TestSingleTableReadsSkipThePool:
    """Such reads run once over the aggregate view: no shard tasks reach
    the pool, and rows come out in the unsharded engine's exact order."""

    @pytest.mark.parametrize(
        "sql", SINGLE_TABLE_READS, ids=["filter", "sort", "broadcast-join"]
    )
    def test_rows_match_unsharded_in_order_without_the_pool(
        self, tier, sql, monkeypatch
    ):
        calls = []
        run_tasks = ShardExecutorPool.run_tasks

        def counting_run_tasks(pool, tasks):
            calls.append(len(tasks))
            return run_tasks(pool, tasks)

        monkeypatch.setattr(ShardExecutorPool, "run_tasks", counting_run_tasks)
        unsharded = build_database(mode=tier)
        sharded = build_database(mode=tier)
        sharded.shard_table("orders", "o_c_id", SHARDS)
        sharded.set_parallel(workers=2, mode="thread")
        try:
            rows = sharded.execute_sql(sql).rows
            assert rows == unsharded.execute_sql(sql).rows
            assert calls == []
            stats = sharded.sharding_stats()
            assert stats["fallback"] == 1
            assert stats["scatter"] == 0
            assert stats["parallel"]["scatters"] == 0
        finally:
            sharded.close_parallel()


class TestParallelAccounting:
    def test_thread_scatter_counts_every_shard_execution(self):
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode="thread")
        sql = "select o_c_id, count(*) as n from orders group by o_c_id"
        try:
            serial.execute_sql(sql)
            parallel.execute_sql(sql)
            serial_tiers = serial.execution_stats()["tiers"]
            parallel_tiers = parallel.execution_stats()["tiers"]
            assert sum(parallel_tiers.values()) == sum(serial_tiers.values())
            stats = parallel.sharding_stats()["parallel"]
            assert stats["scatters"] == 1
            assert stats["mode"] == "thread"
            assert stats["parallel_seconds"] <= stats["shard_seconds"]
        finally:
            parallel.close_parallel()

    def test_thread_scatter_folds_shard_codegen_counters(self):
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode="thread")
        try:
            # Sort spines are left out: the thread path sorts on each shard
            # (batch kernels), the serial scatter above the gather.
            for sql in QUERIES:
                if "order by" not in sql:
                    serial.execute_sql(sql)
                    parallel.execute_sql(sql)
            keys = ("executions", "codegen_executions", "fallbacks")
            serial_stats = serial.execution_stats()["vectorized"]
            parallel_stats = parallel.execution_stats()["vectorized"]
            assert serial_stats["codegen_executions"] >= SHARDS
            for key in keys:
                assert parallel_stats[key] == serial_stats[key], key
        finally:
            parallel.close_parallel()

    def test_serial_mode_never_builds_a_pool(self):
        database = build_database(shards=SHARDS)
        database.set_parallel(mode="serial")
        database.execute_sql("select o_id from orders where o_total > 40")
        assert database.sharding_stats()["parallel"] == {
            "mode": "serial",
            "workers": 1,
            "scatters": 0,
        }


# -- sorted-run merge ----------------------------------------------------------


class TestSortedRunMerge:
    def test_merge_sorted_runs_matches_sorted_concat(self):
        runs = [
            [{"k": 1, "run": 0}, {"k": 3, "run": 0}, {"k": 5, "run": 0}],
            [{"k": 1, "run": 1}, {"k": 2, "run": 1}],
            [],
            [{"k": 4, "run": 3}],
        ]
        merged = merge_sorted_runs(runs, key=lambda row: row["k"])
        expected = sorted(
            (row for run in runs for row in run), key=lambda row: row["k"]
        )
        # Stable: ties keep run (= shard) order, like concat-then-sort.
        assert merged == expected

    @staticmethod
    def assert_merged_on_the_pool(database) -> None:
        """The Sort ran as a co-partitioned join's sorted-run merge: one
        shard-local execution, one pool scatter."""
        stats = database.sharding_stats()
        assert stats["local"] == 1
        assert stats["fallback"] == 0
        assert stats["parallel"]["scatters"] == 1

    def test_parallel_sort_is_row_identical_including_ties(self):
        # c_tier takes 3 values over 120 joined rows: lots of ties on the
        # first key, and o_id makes the whole key total.
        unsharded = build_database()
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode="thread")
        sql = (
            "select o_id, o_c_id, o_total, c_tier from orders join customers "
            "on o_c_id = c_id order by c_tier, o_total desc, o_id"
        )
        try:
            expected = unsharded.execute_sql(sql).rows
            assert serial.execute_sql(sql).rows == expected
            assert parallel.execute_sql(sql).rows == expected
            self.assert_merged_on_the_pool(parallel)
        finally:
            parallel.close_parallel()

    def test_descending_tie_order_matches_serial(self):
        # One descending key with ties: tie order is shard order on both
        # the serial concat-then-sort and the parallel k-way merge.
        serial = build_database(shards=SHARDS)
        parallel = build_database(shards=SHARDS)
        parallel.set_parallel(workers=2, mode="thread")
        sql = (
            "select o_id, c_tier from orders join customers "
            "on o_c_id = c_id order by c_tier desc"
        )
        try:
            assert (
                parallel.execute_sql(sql).rows == serial.execute_sql(sql).rows
            )
            self.assert_merged_on_the_pool(parallel)
        finally:
            parallel.close_parallel()


# -- out-of-order partial-aggregate merge --------------------------------------


class TestMergeIndexed:
    def make_partial(self) -> _PartialAggregate:
        aggregate = algebra.Aggregate(
            algebra.Scan("orders"),
            (ColumnRef("o_c_id"),),
            (
                algebra.AggregateSpec("count", None, "n"),
                algebra.AggregateSpec("sum", ColumnRef("o_total"), "s"),
                algebra.AggregateSpec("avg", ColumnRef("o_total"), "a"),
            ),
        )
        return _PartialAggregate(aggregate)

    def shard_partials(self) -> list:
        database = build_database(shards=SHARDS)
        partial = self.make_partial()
        router = database._executor.router
        runs = []
        for index in range(SHARDS):
            executor = router._shard_executor(frozenset({"orders"}), index)
            runs.append(executor.execute(partial.plan))
        return partial, runs

    def test_out_of_order_merge_equals_in_order_merge(self):
        partial, runs = self.shard_partials()
        in_order = partial.merge(
            [row for run in runs for row in run]
        )
        shuffled = [(3, runs[3]), (1, runs[1]), (0, runs[0]), (2, runs[2])]
        assert partial.merge_indexed(shuffled) == in_order

    def test_group_emission_keeps_first_encounter_order(self):
        partial, runs = self.shard_partials()
        in_order = partial.merge([row for run in runs for row in run])
        reversed_pairs = list(enumerate(runs))[::-1]
        merged = partial.merge_indexed(reversed_pairs)
        assert [row["o_c_id"] for row in merged] == [
            row["o_c_id"] for row in in_order
        ]


# -- engine facade and CLI -----------------------------------------------------

#: A scalar aggregate over the orders workload: it runs as per-shard
#: partials, so it reaches the pool (a plain filter would not).
SCATTERED_SQL = "select count(*) from orders where o_quantity > 2"


class TestEngineFacade:
    def make_engine(self, **parallel) -> Engine:
        return (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4)
            .parallel(**parallel)
            .build()
        )

    def test_builder_parallel_surfaces_in_stats(self):
        engine = self.make_engine(workers=2)
        connection = engine.connect()
        connection.execute_query(SCATTERED_SQL)
        stats = engine.stats()["sharding"]["parallel"]
        assert stats["mode"] == "thread"
        assert stats["workers"] == 2
        assert stats["scatters"] >= 1
        engine.close()

    def test_engine_close_shuts_the_pool_down(self):
        engine = self.make_engine(workers=2)
        connection = engine.connect()
        connection.execute_query(SCATTERED_SQL)
        router = engine.database._router
        assert router._pool._threads is not None
        engine.close()
        assert router._pool._threads is None

    def test_builder_serial_mode_keeps_the_baseline(self):
        engine = self.make_engine(mode="serial")
        connection = engine.connect()
        connection.execute_query(SCATTERED_SQL)
        assert engine.stats()["sharding"]["parallel"]["mode"] == "serial"
        engine.close()

    def test_cli_workers_flag_configures_the_pool(self, tmp_path):
        import io

        from repro.cli import main
        from repro.workloads.programs import P0_SOURCE

        program = tmp_path / "program.py"
        program.write_text(P0_SOURCE)
        out = io.StringIO()
        code = main(
            [
                "optimize",
                str(program),
                "--scale",
                "200",
                "--shards",
                "4",
                "--workers",
                "2",
            ],
            out=out,
        )
        assert code == 0


# -- tracing -------------------------------------------------------------------


class TestParallelScatterTracing:
    def make_engine(self) -> Engine:
        return (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4)
            .parallel(workers=2)
            .tracing()
            .build()
        )

    def test_route_span_carries_the_parallel_breakdown(self):
        engine = self.make_engine()
        connection = engine.connect()
        connection.execute_query(SCATTERED_SQL)
        trace = engine.tracer.traces[-1]
        trace.check_accounting()  # informational sub-spans don't disturb it
        route = trace.find("route")
        assert route is not None
        (span,) = [c for c in route.children if c.name == "parallel"]
        assert span.attributes["mode"] == "thread"
        assert span.attributes["workers"] == 2
        shard_spans = [c for c in span.children if c.name.startswith("shard-")]
        assert len(shard_spans) == 4
        # Max-not-sum: the parallel span charges the slowest shard's wall.
        assert span.duration == pytest.approx(
            max(child.duration for child in shard_spans)
        )
        assert span.duration <= sum(child.duration for child in shard_spans)
        engine.close()

    def test_serial_scatter_has_no_parallel_span(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4)
            .tracing()
            .build()
        )
        connection = engine.connect()
        connection.execute_query(SCATTERED_SQL)
        route = engine.tracer.traces[-1].find("route")
        assert route is not None
        assert all(child.name != "parallel" for child in route.children)
        engine.close()
