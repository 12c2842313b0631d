"""Tests for the hash-sharded storage layer and the shard router.

Covers the :class:`~repro.db.sharding.ShardedTable` storage surface (the
inherited aggregate view must behave exactly like an unsharded table, with
rows additionally filed in their hash partitions), the three routing
classes (single-shard routed / shard-local parallel / aggregate view) with
their counters, partial-aggregate merging, statistics aggregation, the
shard-aware prepared point-lookup fast path, and the engine-facade
configuration (``EngineBuilder.shards`` and ``Engine.stats()["sharding"]``).
"""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import BinaryOp, ColumnRef, FunctionCall, Literal
from repro.db.schema import Column, ColumnType, SchemaError
from repro.db.sharding import ShardedTable, ShardingError, shard_index
from repro.db.table import Table


def row_key(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def make_schema():
    from repro.db.schema import TableSchema

    return TableSchema(
        "items",
        [
            Column("id", ColumnType.INT),
            Column("bucket", ColumnType.INT),
            Column("label", ColumnType.STRING, width=12),
        ],
        primary_key="id",
    )


def make_sharded(shards: int = 4, rows: int = 40) -> ShardedTable:
    table = ShardedTable(make_schema(), "id", shards)
    table.insert_many(
        {"id": i, "bucket": i % 5, "label": f"item-{i}"} for i in range(rows)
    )
    return table


def build_database(shards: int = 0, mode: str = "vectorized") -> Database:
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
            for i in range(120)
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


class TestShardedTableStorage:
    def test_rows_keep_global_insertion_order(self):
        table = make_sharded()
        assert [row["id"] for row in table.rows] == list(range(40))
        assert [row["id"] for row in table.scan()] == list(range(40))

    def test_rows_are_partitioned_by_hash_of_the_shard_key(self):
        table = make_sharded()
        for index, shard in enumerate(table.shards):
            for row in shard.rows:
                assert shard_index(row["id"], table.shard_count) == index
        assert sum(table.shard_row_counts()) == len(table)

    def test_partitions_share_the_stored_row_dicts(self):
        table = make_sharded()
        aggregate_ids = {id(row) for row in table.rows}
        shard_ids = {
            id(row) for shard in table.shards for row in shard.rows
        }
        assert shard_ids == aggregate_ids

    def test_update_is_visible_through_shard_partitions(self):
        table = make_sharded()
        updated = table.update_rows(
            lambda row: row["id"] == 7, {"label": "renamed"}
        )
        assert updated == 1
        shard = table.shard_for(7)
        assert any(row["label"] == "renamed" for row in shard.rows)

    def test_update_moving_the_shard_key_rehomes_the_row(self):
        table = make_sharded(shards=3)
        table.update_rows(lambda row: row["id"] == 5, {"id": 1005})
        assert table.lookup_pk(5) is None
        assert table.lookup_pk(1005)["label"] == "item-5"
        home = table.shard_for(1005)
        assert any(row["id"] == 1005 for row in home.rows)
        for index, shard in enumerate(table.shards):
            for row in shard.rows:
                assert table.shard_index(row["id"]) == index

    def test_clear_empties_every_partition(self):
        table = make_sharded()
        table.clear()
        assert len(table) == 0
        assert all(len(shard) == 0 for shard in table.shards)

    def test_lookup_pk_and_index_for_match_unsharded(self):
        table = make_sharded()
        plain = Table(make_schema())
        plain.insert_many(
            {"id": i, "bucket": i % 5, "label": f"item-{i}"} for i in range(40)
        )
        assert table.lookup_pk(11) == plain.lookup_pk(11)
        assert table.index_for("bucket").keys() == plain.index_for("bucket").keys()
        assert table.columns() == plain.columns()
        assert table.distinct_count("bucket") == plain.distinct_count("bucket")

    def test_unknown_shard_key_raises(self):
        with pytest.raises(SchemaError):
            ShardedTable(make_schema(), "nope", 2)

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ShardingError):
            ShardedTable(make_schema(), "id", 0)

    def test_none_and_unhashable_values_route_to_shard_zero(self):
        assert shard_index(None, 8) == 0
        assert shard_index([1, 2], 8) == 0


class TestDatabaseSharding:
    def test_shard_table_preserves_rows_and_order(self):
        unsharded = build_database()
        sharded = build_database(shards=4)
        # The aggregate view keeps global insertion order ...
        assert list(sharded.table("orders").scan()) == list(
            unsharded.table("orders").scan()
        )
        # ... and a sorted query is row-identical end to end.
        sql = "select * from orders order by o_id"
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )

    def test_shard_table_requires_existing_table(self):
        database = build_database()
        with pytest.raises(KeyError):
            database.shard_table("nope", "x", 2)

    def test_shard_table_twice_raises(self):
        database = build_database(shards=2)
        with pytest.raises(ValueError):
            database.shard_table("orders", "o_c_id", 2)

    def test_shard_key_defaults_to_primary_key(self):
        database = build_database()
        sharded = database.shard_table("orders", shards=3)
        assert sharded.shard_key == "o_id"

    def test_point_query_on_shard_key_routes_to_one_shard(self):
        database = build_database(shards=4)
        rows = database.execute_sql(
            "select o_id, o_total from orders where o_c_id = 3 order by o_id"
        ).rows
        assert [row["o_id"] for row in rows] == [i for i in range(120) if i % 10 == 3]
        assert database.sharding_stats()["routed"] == 1

    def test_parameter_slot_routes_per_execution(self):
        database = build_database(shards=4)
        statement = database.prepare(
            "select o_id from orders where o_c_id = ? order by o_id"
        )
        for key in (0, 3, 7, 3):
            rows = statement.execute((key,)).rows
            assert [row["o_id"] for row in rows] == [
                i for i in range(120) if i % 10 == key
            ]
        assert database.sharding_stats()["routed"] == 4

    def test_filter_runs_on_the_aggregate_view(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = "select o_id, o_total from orders where o_total > 50"
        # No ORDER BY: the aggregate view keeps global insertion order.
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        stats = sharded.sharding_stats()
        assert stats["fallback"] == 1
        assert stats["scatter"] == 0

    def test_partial_aggregate_merge(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = (
            "select o_c_id, count(*), sum(o_total), avg(o_total), "
            "min(o_total), max(o_total) from orders group by o_c_id "
            "order by o_c_id"
        )
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        assert sharded.sharding_stats()["local"] == 1

    def test_scalar_aggregate_over_empty_sharded_table(self):
        database = build_database(shards=4)
        database.table("orders").clear()
        row = database.execute_sql(
            "select count(*), sum(o_total), avg(o_total) from orders"
        ).rows[0]
        assert row["count_all"] == 0
        assert row["sum_o_total"] is None
        assert row["avg_o_total"] is None

    def test_partial_aggregate_group_keys_colliding_bare_names(self):
        # GROUP BY o.o_id, c.c_id: both group columns collide on no bare
        # name here, so use a join where both sides expose a column with
        # the same bare name via aliasing of the same logical key space —
        # the merge must group on the qualified names, not the (collided)
        # bare key.
        sharded = build_database()
        sharded.shard_table("orders", "o_c_id", 4)
        unsharded = build_database()
        plan = algebra.Aggregate(
            algebra.Join(
                algebra.Scan("orders", "l"),
                algebra.Scan("orders", "r"),
                BinaryOp(
                    "=", ColumnRef("o_total", "l"), ColumnRef("o_total", "r")
                ),
            ),
            group_by=(ColumnRef("o_c_id", "l"), ColumnRef("o_c_id", "r")),
            aggregates=(algebra.AggregateSpec("count", None, "n"),),
        )
        key = lambda r: sorted((k, repr(v)) for k, v in r.items())  # noqa: E731
        got = sorted(
            sharded.execute_plan(plan, sql="self-agg").rows, key=key
        )
        want = sorted(
            unsharded.execute_plan(plan, sql="self-agg").rows, key=key
        )
        assert got == want

    def test_partial_aggregate_qualified_group_keys_over_join(self):
        # The reviewer's shape: sharded x broadcast join, grouped by one
        # column from each side where the bare names collide ("k"-style).
        database = Database()
        database.create_table(
            "lt", [Column("k", ColumnType.INT), Column("a", ColumnType.INT)]
        )
        database.create_table(
            "u", [Column("k", ColumnType.INT), Column("b", ColumnType.INT)]
        )
        database.insert("lt", [{"k": 1, "a": 10}, {"k": 2, "a": 10}])
        database.insert("u", [{"k": 5, "b": 10}])
        reference = Database()
        reference.create_table(
            "lt", [Column("k", ColumnType.INT), Column("a", ColumnType.INT)]
        )
        reference.create_table(
            "u", [Column("k", ColumnType.INT), Column("b", ColumnType.INT)]
        )
        reference.insert("lt", [{"k": 1, "a": 10}, {"k": 2, "a": 10}])
        reference.insert("u", [{"k": 5, "b": 10}])
        database.shard_table("lt", "k", 2)
        for db in (database, reference):
            db.analyze()
        plan = algebra.Aggregate(
            algebra.Join(
                algebra.Scan("lt", "l"),
                algebra.Scan("u", "u"),
                BinaryOp("=", ColumnRef("a", "l"), ColumnRef("b", "u")),
            ),
            group_by=(ColumnRef("k", "l"), ColumnRef("k", "u")),
            aggregates=(algebra.AggregateSpec("count", None, "n"),),
        )
        key = lambda r: sorted((k, repr(v)) for k, v in r.items())  # noqa: E731
        got = sorted(database.execute_plan(plan, sql="x").rows, key=key)
        want = sorted(reference.execute_plan(plan, sql="x").rows, key=key)
        assert got == want
        assert database.sharding_stats()["local"] == 1

    def test_co_partitioned_join_runs_shard_local(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = (
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id order by o.o_id"
        )
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        assert sharded.sharding_stats()["local"] == 1

    def test_mismatched_shard_counts_fall_back(self):
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)
        database.shard_table("customers", "c_id", 3)
        unsharded = build_database()
        sql = (
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id order by o.o_id"
        )
        assert (
            database.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        stats = database.sharding_stats()
        assert stats["local"] == 0
        assert stats["fallback"] == 1

    def test_limit_falls_back_to_aggregate_view(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = "select * from orders limit 7"
        assert (
            sharded.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        assert sharded.sharding_stats()["fallback"] == 1

    def test_sharded_join_with_unsharded_broadcast_side(self):
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)  # customers unsharded
        unsharded = build_database()
        sql = (
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id"
        )
        assert (
            database.execute_sql(sql).rows == unsharded.execute_sql(sql).rows
        )
        assert database.sharding_stats()["fallback"] == 1

    def test_update_through_sharded_table(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        sql = "update orders set o_total = o_total + 1 where o_c_id = 3"
        assert sharded.execute_update_sql(sql) == unsharded.execute_update_sql(sql)
        query = "select * from orders order by o_id"
        assert (
            sharded.execute_sql(query).rows == unsharded.execute_sql(query).rows
        )

    def test_limit_below_the_shard_key_filter_is_not_routed(self):
        # Select(k = v, Limit(Scan)) must NOT pin to one shard: the Limit
        # picks the first N *global* rows, which a single partition cannot
        # reproduce.  The router falls back to the aggregate view, which is
        # exactly the unsharded execution.
        sharded = build_database(shards=4)
        unsharded = build_database()
        plan = algebra.Select(
            algebra.Limit(algebra.Scan("orders"), 5),
            BinaryOp("=", ColumnRef("o_c_id"), Literal(3)),
        )
        assert (
            sharded.execute_plan(plan).rows == unsharded.execute_plan(plan).rows
        )
        stats = sharded.sharding_stats()
        assert stats["routed"] == 0
        assert stats["fallback"] == 1

    def test_projection_renaming_the_shard_key_is_not_routed(self):
        # Select(k = v, Project(Scan, (a AS k,))) filters the *renamed*
        # column; hashing v against the real shard key would drop rows.
        sharded = build_database(shards=4)
        unsharded = build_database()
        plan = algebra.Select(
            algebra.Project(
                algebra.Scan("orders"),
                (algebra.OutputColumn(ColumnRef("o_total"), "o_c_id"),),
            ),
            BinaryOp("=", ColumnRef("o_c_id"), Literal(26)),
        )
        assert sorted(
            row["o_c_id"] for row in sharded.execute_plan(plan).rows
        ) == sorted(row["o_c_id"] for row in unsharded.execute_plan(plan).rows)
        assert sharded.sharding_stats()["routed"] == 0

    def test_join_side_renaming_the_shard_key_is_not_co_partitioned(self):
        # Project(Scan(customers), (c_tier AS c_id,)) as a join side must
        # not be classified co-partitioned: the condition compares the
        # renamed column, not the shard key.
        sharded = build_database(shards=4)
        unsharded = build_database()
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Project(
                algebra.Scan("customers"),
                (algebra.OutputColumn(ColumnRef("c_tier"), "c_id"),),
            ),
            BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id")),
        )
        key = lambda r: sorted(r.items())  # noqa: E731
        # (explicit sql label: the SQL generator cannot render a Project
        # as a join operand, which is irrelevant to this test)
        assert sorted(
            sharded.execute_plan(plan, sql="renamed-join").rows, key=key
        ) == sorted(
            unsharded.execute_plan(plan, sql="renamed-join").rows, key=key
        )
        assert sharded.sharding_stats()["local"] == 0

    def test_routing_preserves_predicate_error_semantics(self):
        # `10 / o_total > 0 and o_c_id = 3` evaluates the division on EVERY
        # row before the shard-key conjunct, so a zero in another shard
        # must still raise — the plan must not pin to one shard.  With the
        # shard-key conjunct first, unsharded execution short-circuits the
        # other shards' rows identically, so routing is sound.
        for mode in ("vectorized", "interpreted"):
            sharded = build_database(shards=4, mode=mode)
            sharded.table("orders").update_rows(
                lambda row: row["o_id"] == 0, {"o_total": 0}
            )
            unsharded = build_database(mode=mode)
            unsharded.table("orders").update_rows(
                lambda row: row["o_id"] == 0, {"o_total": 0}
            )
            risky = "select * from orders where 10 / o_total > 0 and o_c_id = 3"
            with pytest.raises(ZeroDivisionError):
                unsharded.execute_sql(risky)
            with pytest.raises(ZeroDivisionError):
                sharded.execute_sql(risky)
            assert sharded.sharding_stats()["routed"] == 0
            # Shard-key conjunct first: short-circuit prunes the zero row
            # on both sides, and the plan routes.
            safe = "select * from orders where o_c_id = 3 and 10 / o_total > 0"
            assert (
                sharded.execute_sql(safe).rows == unsharded.execute_sql(safe).rows
            )
            if mode == "vectorized":
                assert sharded.sharding_stats()["routed"] == 1

    def test_pass_through_projection_still_routes(self):
        # A projection above the filter that merely passes the shard key
        # through (select o_c_id, ... where o_c_id = v) keeps routing.
        sharded = build_database(shards=4)
        rows = sharded.execute_sql(
            "select o_c_id, o_total from orders where o_c_id = 3"
        ).rows
        assert rows
        assert all(row["o_c_id"] == 3 for row in rows)
        assert sharded.sharding_stats()["routed"] == 1

    def test_sharding_counters_survive_sharding_another_table(self):
        # shard_table on a second table must reuse (and invalidate) the
        # router, not replace it — stats and folded per-shard executor
        # counters carry over.
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)
        database.execute_sql("select o_id from orders where o_c_id = 3")
        database.execute_sql("select count(*) from orders where o_total > 50")
        before = database.sharding_stats()
        assert before["routed"] == 1 and before["local"] == 1
        tiers_before = database.execution_stats()["tiers"]["vectorized"]
        assert tiers_before == 5  # 1 routed + 4 partial-aggregate shards
        database.shard_table("customers", "c_id", 4)
        after = database.sharding_stats()
        assert after["routed"] == 1 and after["local"] == 1
        assert database.execution_stats()["tiers"]["vectorized"] == 5

    def test_routing_counters_start_at_zero_without_sharding(self):
        database = build_database()
        database.execute_sql("select * from orders where o_c_id = 3")
        assert database.sharding_stats() == {
            "routed": 0,
            "local": 0,
            "scatter": 0,
            "fallback": 0,
            "tables": {},
            "parallel": {"mode": "serial", "workers": 1, "scatters": 0},
        }


class TestShardAwarePointLookup:
    def test_prepared_lookup_on_shard_key_uses_one_shard_index(self):
        database = build_database(shards=4)
        statement = database.prepare("select * from orders where o_c_id = ?")
        assert statement.point_lookup is not None
        before = database.sharding_stats()["routed"]
        rows = statement.execute((3,)).rows
        assert sorted(row["o_id"] for row in rows) == [
            i for i in range(120) if i % 10 == 3
        ]
        assert database.sharding_stats()["routed"] == before + 1
        # Only the value's home shard built its secondary index.
        table = database.table("orders")
        built = [
            bool(shard._indexes.get("o_c_id")) for shard in table.shards
        ]
        assert built.count(True) == 1

    def test_prepared_lookup_on_other_column_uses_aggregate_index(self):
        database = build_database(shards=4)
        statement = database.prepare("select * from orders where o_total = ?")
        rows = statement.execute((26,)).rows
        unsharded = build_database()
        expected = unsharded.prepare(
            "select * from orders where o_total = ?"
        ).execute((26,)).rows
        assert rows == expected
        assert database.sharding_stats()["fallback"] >= 1

    def test_point_lookup_matches_generic_path_across_modes(self):
        for mode in ("vectorized", "interpreted"):
            database = build_database(shards=4, mode=mode)
            rows = database.execute_sql(
                "select * from orders where o_c_id = 7"
            ).rows
            reference = build_database(mode=mode).execute_sql(
                "select * from orders where o_c_id = 7"
            ).rows
            assert sorted(r["o_id"] for r in rows) == sorted(
                r["o_id"] for r in reference
            )


class TestStatisticsAggregation:
    def test_refresh_merges_per_shard_statistics(self):
        database = build_database(shards=4)
        stats = database.statistics.table_stats("orders")
        assert stats.row_count == 120
        assert stats.distinct["o_c_id"] == 10
        per_shard = database.statistics.shard_stats("orders")
        assert per_shard is not None
        assert len(per_shard) == 4
        assert sum(s.row_count for s in per_shard) == 120
        # The shard key's distinct counts are disjoint across shards.
        assert sum(s.distinct["o_c_id"] for s in per_shard) == 10

    def test_unsharded_tables_have_no_shard_stats(self):
        database = build_database()
        assert database.statistics.shard_stats("orders") is None

    def test_estimates_match_unsharded(self):
        sharded = build_database(shards=4)
        unsharded = build_database()
        for sql in (
            "select * from orders where o_c_id = 3",
            "select o_c_id, count(*) from orders group by o_c_id",
        ):
            a = sharded.estimate_sql(sql)
            b = unsharded.estimate_sql(sql)
            assert a.cardinality == pytest.approx(b.cardinality)
            assert a.row_width == b.row_width


class TestFallbackSubtreesUnderSharding:
    """Theta joins and unknown functions over a ShardedTable stay exact."""

    def test_theta_join_of_two_sharded_tables_matches_interpreted(self):
        sharded = build_database(shards=4)
        reference = build_database(mode="interpreted")
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        assert (
            sharded.execute_plan(plan).rows == reference.execute_plan(plan).rows
        )
        assert sharded.sharding_stats()["fallback"] == 1

    def test_theta_join_sharded_with_broadcast_side(self):
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)
        reference = build_database(mode="interpreted")
        plan = algebra.Join(
            algebra.Scan("orders", "o"),
            algebra.Scan("customers", "c"),
            BinaryOp("<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
        )
        rows = database.execute_plan(plan).rows
        # One sharded scan: the aggregate view serves it in unsharded order.
        assert rows == reference.execute_plan(plan).rows
        assert database.sharding_stats()["fallback"] == 1

    def test_unknown_function_over_sharded_table_raises_identically(self):
        sharded = build_database(shards=4)
        reference = build_database(mode="interpreted")
        plan = algebra.Project(
            algebra.Scan("orders"),
            (
                algebra.OutputColumn(
                    FunctionCall("no_such_function", (ColumnRef("o_id"),)),
                    "out",
                ),
            ),
        )
        with pytest.raises(Exception) as sharded_error:
            sharded.execute_plan(plan)
        with pytest.raises(Exception) as reference_error:
            reference.execute_plan(plan)
        assert str(sharded_error.value) == str(reference_error.value)

    def test_known_function_scatter_matches_unsharded(self):
        sharded = build_database(shards=4)
        unsharded = build_database(mode="interpreted")
        plan = algebra.Sort(
            algebra.Project(
                algebra.Scan("orders"),
                (
                    algebra.OutputColumn(ColumnRef("o_id"), "o_id"),
                    algebra.OutputColumn(
                        FunctionCall("abs", (ColumnRef("o_total"),)), "t"
                    ),
                ),
            ),
            (algebra.SortKey(ColumnRef("o_id")),),
        )
        assert (
            sharded.execute_plan(plan).rows == unsharded.execute_plan(plan).rows
        )

    def test_fallback_reasons_fold_into_retired_totals_across_ddl(self):
        # A partial aggregate over a theta join (orders sharded, customers
        # broadcast): the theta join has no vectorized lowering, so each
        # of the 4 shard executors records ``theta_join`` as a subtree
        # fallback.  DDL (sharding another table) retires those
        # executors, so their reasons must fold into the retired totals
        # and post-DDL executions must merge on top.
        database = build_database()
        database.shard_table("orders", "o_c_id", 4)
        plan = algebra.Aggregate(
            algebra.Join(
                algebra.Scan("orders", "o"),
                algebra.Scan("customers", "c"),
                BinaryOp(
                    "<", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")
                ),
            ),
            (ColumnRef("c_id", "c"),),
            (algebra.AggregateSpec("count", None, "n"),),
        )
        database.execute_plan(plan)
        database.execute_plan(plan)
        live = database.execution_stats()["vectorized"]
        assert live["fallback_reasons"] == {"theta_join": 2 * 4}
        assert live["subtree_fallbacks"] == 2 * 4
        assert database.sharding_stats()["local"] == 2
        # DDL: sharding another table reuses (and invalidates) the
        # router, folding live per-shard counters into retired totals.
        database.create_table(
            "regions",
            [
                Column("r_id", ColumnType.INT),
                Column("r_pop", ColumnType.INT),
            ],
            primary_key="r_id",
        )
        database.shard_table("regions", "r_id", 2)
        retired = database.execution_stats()["vectorized"]
        assert retired["fallback_reasons"] == {"theta_join": 2 * 4}
        assert retired["subtree_fallbacks"] == 2 * 4
        # Fresh per-shard executors after the DDL merge on top of the
        # retired totals rather than resetting them.
        database.execute_plan(plan)
        merged = database.execution_stats()["vectorized"]
        assert merged["fallback_reasons"] == {"theta_join": 3 * 4}
        assert merged["subtree_fallbacks"] == 3 * 4


class TestEngineFacade:
    def test_builder_shards_with_explicit_keys(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(
                4,
                key_by={
                    "orders": "o_customer_sk",
                    "customer": "c_customer_sk",
                },
            )
            .build()
        )
        sharding = engine.stats()["sharding"]
        assert sharding["tables"] == {"orders": 4, "customer": 4}

    def test_builder_shards_default_primary_keys(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=100, num_customers=10)
            .shards(3)
            .build()
        )
        tables = engine.stats()["sharding"]["tables"]
        assert tables.get("orders") == 3
        assert tables.get("customer") == 3

    def test_builder_rejects_bad_shard_count(self):
        from repro.api.engine import EngineConfigError

        with pytest.raises(EngineConfigError):
            Engine.builder().shards(0)

    def test_stats_report_routing_counts_through_cursor(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4, key_by={"orders": "o_customer_sk"})
            .build()
        )
        with engine.cursor() as cursor:
            cursor.execute(
                "select * from orders where o_customer_sk = ?", (5,)
            )
            cursor.fetchall()
            cursor.execute("select count(*) from orders")
            cursor.fetchall()
        sharding = engine.stats()["sharding"]
        assert sharding["routed"] >= 1
        assert sharding["local"] >= 1

    def test_orm_session_over_sharded_database(self):
        engine = (
            Engine.builder()
            .orders_workload(num_orders=200, num_customers=20)
            .shards(4)
            .build()
        )
        session = engine.session()
        order = session.get("Order", 5)
        assert order is not None
        # Lazy many-to-one load crosses into the sharded customer table.
        assert order.customer is not None
        assert order.customer.c_customer_sk == order.o_customer_sk
        assert len(session.load_all("Customer")) == 20


class TestShardedExecutionModes:
    """Routing participates identically in all three executor tiers."""

    @pytest.mark.parametrize("mode", ["vectorized", "kernel", "interpreted"])
    def test_tier_rows_identical_under_sharding(self, mode, tier):
        sharded = build_database(shards=4, mode=tier)
        reference = build_database(mode="interpreted")
        # Exact order: routed and single-table plans keep unsharded order,
        # and the shard-local ones sort on a total key.
        for sql in (
            "select * from orders where o_c_id = 3",
            "select o_id, o_total from orders where o_total > 50",
            "select o_id, o_total from orders where o_total > 50 order by o_id, o_total",
            "select o_c_id, count(*), sum(o_total), avg(o_total) from orders "
            "group by o_c_id order by o_c_id",
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id order by o.o_id",
        ):
            got = sharded.execute_sql(sql).rows
            want = reference.execute_sql(sql).rows
            assert got == want, (mode, sql)
        codegen = sharded.execution_stats()["vectorized"]["codegen_executions"]
        assert (codegen > 0) == (mode == "vectorized")

    def test_execution_stats_fold_in_shard_executor_counters(self):
        database = build_database(shards=4, mode="vectorized")
        # Routed through the executor (a projection defeats the prepared
        # point-lookup fast path, which never enters the executor).
        database.execute_sql("select o_id from orders where o_c_id = 3")
        database.execute_sql(
            "select o.o_id, c.c_tier from orders o join customers c "
            "on o.o_c_id = c.c_id"
        )  # co-partitioned join
        database.execute_sql(
            "select o_c_id, count(*) from orders group by o_c_id"
        )  # local partial aggregate
        stats = database.execution_stats()
        # routed = 1 shard execution; local join + partial agg = 4 shards
        # each.
        assert stats["tiers"]["vectorized"] == 9
        assert stats["vectorized"]["executions"] == 9
        # Counters survive DDL-driven shard-executor invalidation.
        database.create_table(
            "extra", [Column("x", ColumnType.INT)], primary_key="x"
        )
        assert database.execution_stats()["tiers"]["vectorized"] == 9

    def test_vectorized_sum_raises_like_row_tiers_on_non_numeric(self):
        # sum() over strings must raise on every tier (the row tiers seed
        # with 0); the vectorized kernel must not silently concatenate.
        for shards in (0, 3):
            database = Database()
            database.create_table(
                "s",
                [
                    Column("g", ColumnType.INT),
                    Column("name", ColumnType.STRING, width=8),
                ],
            )
            if shards:
                database.shard_table("s", "g", shards)
            database.insert(
                "s", [{"g": i % 2, "name": c} for i, c in enumerate("abcd")]
            )
            database.analyze()
            with pytest.raises(TypeError):
                database.execute_sql("select sum(name) from s")
            with pytest.raises(TypeError):
                database.execute_sql("select g, sum(name) from s group by g")

    def test_vectorized_scatter_gathers_column_batches(self):
        database = build_database(shards=4, mode="vectorized")
        reference = build_database(mode="interpreted")
        # A co-partitioned join: codegen has no join pipeline, so every
        # shard ships a ColumnBatch to the gather.
        plan = algebra.Select(
            algebra.Join(
                algebra.Scan("orders", "o"),
                algebra.Scan("customers", "c"),
                BinaryOp("=", ColumnRef("o_c_id", "o"), ColumnRef("c_id", "c")),
            ),
            BinaryOp(">", ColumnRef("o_total", "o"), Literal(50)),
        )
        rows = database._executor.execute(plan)
        assert sorted(map(row_key, rows)) == sorted(
            map(row_key, reference._executor.execute(plan))
        )
        assert database.sharding_stats()["local"] == 1
        assert database._router.last_execution_path == "kernel"
        router = database._router
        # Every shard executor served its batch from the vectorized tier.
        shard_executors = [
            executor
            for (names, _), executor in router._executors.items()
            if "orders" in names
        ]
        assert shard_executors
        assert all(
            executor._vectorized.executions >= 1 for executor in shard_executors
        )
