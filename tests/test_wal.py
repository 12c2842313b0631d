"""Write-ahead logging and crash recovery.

The centerpiece is the crash-at-every-prefix property: one scripted
workload runs with the WAL enabled while every committed state is
snapshotted, then the log is "crashed" (truncated) at *every* prefix point
and recovered — recovery must yield exactly the most recent committed
state, never a partial transaction, on sharded and unsharded storage alike.
"""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.db.schema import Column, ColumnType
from repro.db.sharding import ShardedTable
from repro.db.wal import (
    CommitRecord,
    CreateTableRecord,
    InsertRecord,
    ShardTableRecord,
    UpdateRecord,
    WalError,
    WriteAheadLog,
)

PEOPLE_COLUMNS = [
    Column("person_id", ColumnType.INT),
    Column("name", ColumnType.STRING, width=16),
    Column("city", ColumnType.STRING, width=16),
]

CITIES = ["pune", "mumbai", "delhi", "goa"]


def snapshot(database: Database) -> dict:
    """Deep copy of every table's rows, in storage order."""
    return {
        name: [dict(row) for row in table.rows]
        for name, table in database.tables.items()
    }


def run_workload(database: Database, *, sharded: bool) -> list[tuple[int, dict]]:
    """A scripted mixed workload; returns (log length, snapshot) at every
    committed point, starting with the empty state at length 0."""
    commits = [(0, snapshot(database))]

    def committed() -> None:
        commits.append((len(database.wal), snapshot(database)))

    database.create_table("people", PEOPLE_COLUMNS, primary_key="person_id")
    committed()
    database.insert(
        "people",
        [
            {"person_id": i, "name": f"p{i}", "city": CITIES[i % 4]}
            for i in range(8)
        ],
    )
    committed()
    database.update_table(
        "people",
        lambda row: row["person_id"] % 2 == 0,
        {"name": lambda row: row["name"].upper()},
    )
    committed()
    if sharded:
        database.shard_table("people", "city", 3)
        committed()
    # An explicit multi-write transaction, committed.
    with database.begin():
        database.insert(
            "people",
            [
                {"person_id": 100, "name": "new", "city": "pune"},
                {"person_id": 101, "name": "newer", "city": "goa"},
            ],
        )
        database.update_table(
            "people",
            lambda row: row["person_id"] >= 100,
            {"city": "delhi"},  # shard-key move when sharded
        )
    committed()
    # An aborted transaction: its records hit the log but recovery (and the
    # live database) must never see its effects.
    txn = database.begin()
    database.insert(
        "people", [{"person_id": 200, "name": "ghost", "city": "pune"}]
    )
    database.update_table("people", lambda row: True, {"city": "nowhere"})
    txn.rollback()
    # A final autocommit write after the rollback.
    database.update_table(
        "people", lambda row: row["person_id"] == 0, {"city": "goa"}
    )
    committed()
    return commits


def assert_partitions_consistent(table: ShardedTable) -> None:
    """Every row sits in (exactly) the partition its shard key hashes to."""
    seen = 0
    for index, shard in enumerate(table.shards):
        for row in shard.rows:
            assert table.shard_index(row[table.shard_key]) == index
            seen += 1
    assert seen == len(table.rows)


class TestCrashAtEveryPrefix:
    @pytest.mark.parametrize("mvcc", [False, True], ids=["legacy", "mvcc"])
    @pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
    def test_recovery_yields_exactly_the_committed_prefix(self, sharded, mvcc):
        """The property holds identically under MVCC: deferred-apply write
        sets log contiguously at COMMIT (aborted transactions log only an
        AbortRecord), so every prefix still recovers to exactly the last
        committed state."""
        database = Database(wal=True, mvcc=mvcc)
        commits = run_workload(database, sharded=sharded)
        log = database.wal
        assert commits[-1][0] == len(log) or commits[-1][0] < len(log)
        for crash_point in range(len(log) + 1):
            expected = next(
                state
                for length, state in reversed(commits)
                if length <= crash_point
            )
            recovered = Database.recover(log.prefix(crash_point), mvcc=mvcc)
            assert snapshot(recovered) == expected, (
                f"crash at record {crash_point}: recovery diverged from the "
                f"last committed state"
            )
            table = recovered.tables.get("people")
            if isinstance(table, ShardedTable):
                assert_partitions_consistent(table)

    def test_mvcc_and_legacy_recovery_agree_logically(self):
        """The same workload logged under MVCC (deferred-apply, records
        grouped at COMMIT) and under the legacy single-writer path recovers
        to the same state."""
        legacy = Database(wal=True)
        run_workload(legacy, sharded=False)
        versioned = Database(wal=True, mvcc=True)
        run_workload(versioned, sharded=False)
        recovered_legacy = Database.recover(legacy.wal)
        recovered_versioned = Database.recover(versioned.wal, mvcc=True)
        assert snapshot(recovered_versioned) == snapshot(recovered_legacy)
        assert recovered_versioned.mvcc_enabled

    def test_sharded_and_unsharded_recovery_agree_logically(self):
        plain = Database(wal=True)
        run_workload(plain, sharded=False)
        sharded = Database(wal=True)
        run_workload(sharded, sharded=True)

        recovered_plain = Database.recover(plain.wal)
        recovered_sharded = Database.recover(sharded.wal)
        rows_plain = sorted(
            (dict(r) for r in recovered_plain.table("people").rows),
            key=lambda r: r["person_id"],
        )
        rows_sharded = sorted(
            (dict(r) for r in recovered_sharded.table("people").rows),
            key=lambda r: r["person_id"],
        )
        assert rows_plain == rows_sharded
        assert isinstance(recovered_sharded.table("people"), ShardedTable)
        assert not isinstance(recovered_plain.table("people"), ShardedTable)


class TestRecoveredDatabase:
    def test_recovered_database_matches_live_state_and_keeps_logging(self):
        database = Database(wal=True)
        run_workload(database, sharded=True)
        recovered = Database.recover(database.wal)
        assert snapshot(recovered) == snapshot(database)
        # The primary-key index survives replay.
        assert recovered.table("people").lookup_pk(100)["city"] == "delhi"
        # The recovered database carries a live log seeded with the
        # committed history, so it can itself be crashed and recovered.
        assert recovered.wal is not None
        recovered.insert(
            "people", [{"person_id": 300, "name": "late", "city": "goa"}]
        )
        twice = Database.recover(recovered.wal)
        assert snapshot(twice) == snapshot(recovered)

    def test_recovered_txn_ids_do_not_collide_with_history(self):
        database = Database(wal=True)
        run_workload(database, sharded=False)
        recovered = Database.recover(database.wal)
        assert recovered._next_txn_id > database.wal.max_txn_id()

    @pytest.mark.parametrize("mode", ["interpreted", "vectorized", "kernel"])
    def test_shard_key_update_rehomes_identically_on_every_tier(self, tier):
        """WAL replay of a shard-key UPDATE must rehome rows exactly like
        the live path, on every executor tier."""
        live = Database(wal=True, execution_mode=tier)
        live.create_table("people", PEOPLE_COLUMNS, primary_key="person_id")
        live.insert(
            "people",
            [
                {"person_id": i, "name": f"p{i}", "city": CITIES[i % 4]}
                for i in range(12)
            ],
        )
        live.shard_table("people", "city", 4)
        # The shard-key move: every pune row rehomes to goa's shard.
        live.execute_update_sql("update people set city = 'goa' where city = 'pune'")

        recovered = Database.recover(live.wal, execution_mode=tier)
        live_table = live.table("people")
        recovered_table = recovered.table("people")
        assert isinstance(recovered_table, ShardedTable)
        assert_partitions_consistent(recovered_table)
        # Partition-for-partition identical placement, not just identical
        # aggregate contents.
        for live_shard, recovered_shard in zip(
            live_table.shards, recovered_table.shards
        ):
            assert [dict(r) for r in live_shard.rows] == [
                dict(r) for r in recovered_shard.rows
            ]
        # And the tier answers queries identically over the recovered state.
        sql = "select * from people where city = 'goa'"
        assert (
            live.execute_sql(sql).rows == recovered.execute_sql(sql).rows
        )
        assert recovered.execution_mode == tier


class TestCheckpoint:
    def test_enable_wal_on_populated_database_is_self_contained(self):
        database = Database()
        database.create_table(
            "people", PEOPLE_COLUMNS, primary_key="person_id"
        )
        database.insert(
            "people",
            [
                {"person_id": i, "name": f"p{i}", "city": CITIES[i % 4]}
                for i in range(6)
            ],
        )
        database.shard_table("people", "city", 2)
        log = database.enable_wal()
        # The checkpoint alone reproduces the pre-enable state.
        recovered = Database.recover(log)
        assert snapshot(recovered) == snapshot(database)
        assert isinstance(recovered.table("people"), ShardedTable)
        # Post-enable writes append to the same log.
        database.insert(
            "people", [{"person_id": 50, "name": "x", "city": "pune"}]
        )
        assert snapshot(Database.recover(log)) == snapshot(database)

    def test_enable_wal_on_existing_log_uses_fresh_txn_ids(self):
        """Attaching a non-empty log must allocate checkpoint txn ids past
        the log's history: a reused id already has a commit record, so a
        crash before the *new* commit record would still replay the
        checkpoint, resurrecting uncommitted state."""
        first = Database(wal=True)
        first.create_table(
            "people", PEOPLE_COLUMNS, primary_key="person_id"
        )
        first.insert(
            "people", [{"person_id": 1, "name": "a", "city": "pune"}]
        )
        log = first.wal
        history_max = log.max_txn_id()
        history_length = len(log)

        second = Database()
        second.create_table(
            "extra", [Column("k", ColumnType.INT)], primary_key="k"
        )
        second.insert("extra", [{"k": 7}])
        second.enable_wal(log)
        checkpoint_ids = {
            record.txn_id for record in log.records[history_length:]
        }
        assert min(checkpoint_ids) > history_max
        # The full log recovers both histories...
        assert "extra" in Database.recover(log).tables
        # ...but a crash just before the checkpoint's commit record must
        # discard the whole checkpoint, not resurrect it.
        crashed = log.prefix(len(log) - 1)
        recovered = Database.recover(crashed)
        assert "extra" not in recovered.tables
        assert snapshot(recovered) == snapshot(first)

    def test_empty_log_instance_still_enables_durability(self):
        """An empty WriteAheadLog is falsy (it defines __len__); passing
        one must attach it, not silently leave durability off."""
        log = WriteAheadLog()
        database = Database(wal=log)
        assert database.wal is log
        database.create_table("t", [Column("a", ColumnType.INT)])
        assert len(log) > 0

    def test_empty_log_instance_respected_by_engine_builder(self):
        from repro.api.engine import Engine

        log = WriteAheadLog()
        engine = Engine.builder().wal(log).build()
        assert engine.database.wal is log

    def test_enable_wal_twice_raises(self):
        database = Database(wal=True)
        with pytest.raises(WalError, match="already enabled"):
            database.enable_wal()

    def test_enable_wal_inside_transaction_raises(self):
        from repro.db.database import TransactionError

        database = Database()
        database.create_table("t", [Column("a", ColumnType.INT)])
        with database.begin():
            with pytest.raises(TransactionError):
                database.enable_wal()


class TestLogMechanics:
    def test_records_appended_before_apply(self):
        """The log-before-apply rule: a failed statement leaves its record
        in the log uncommitted, so recovery ignores it."""
        database = Database(wal=True)
        database.create_table(
            "people", PEOPLE_COLUMNS, primary_key="person_id"
        )
        database.insert(
            "people", [{"person_id": 1, "name": "a", "city": "pune"}]
        )
        length_before = len(database.wal)

        def exploding(row):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            database.update_table(
                "people", lambda row: True, {"name": exploding}
            )
        # plan_update failed before logging or applying anything.
        assert len(database.wal) == length_before
        recovered = Database.recover(database.wal)
        assert snapshot(recovered) == snapshot(database)

    def test_prefix_bounds_checked(self):
        log = WriteAheadLog()
        with pytest.raises(WalError, match="out of range"):
            log.prefix(1)
        with pytest.raises(WalError, match="out of range"):
            log.prefix(-1)

    def test_stats_count_record_types(self):
        database = Database(wal=True)
        database.create_table(
            "people", PEOPLE_COLUMNS, primary_key="person_id"
        )
        database.insert(
            "people",
            [{"person_id": i, "name": "n", "city": "pune"} for i in range(3)],
        )
        database.update_table("people", lambda row: True, {"city": "goa"})
        stats = database.wal.stats
        assert stats.ddl == 1
        assert stats.inserts == 1
        assert stats.updates == 1
        assert stats.commits == 3
        assert stats.rows_logged == 6  # 3 inserted + 3 updated
        kinds = [type(record) for record in database.wal]
        assert kinds == [
            CreateTableRecord,
            CommitRecord,
            InsertRecord,
            CommitRecord,
            UpdateRecord,
            CommitRecord,
        ]

    def test_group_commit_window_batches_flushes(self):
        log = WriteAheadLog(flush_seconds=0.05, group_window=2.0)
        # The first commit pays the flush; commits landing within the
        # window of the last *paid* flush ride along for free.
        assert log.commit_flush(0.0) == 0.05
        assert log.commit_flush(1.0) == 0.0
        assert log.commit_flush(1.9) == 0.0
        assert log.commit_flush(4.0) == 0.05
        assert log.stats.group_commits == 2

    def test_flushless_log_never_charges_commits(self):
        log = WriteAheadLog()
        assert log.commit_flush(10.0) == 0.0
        assert log.stats.group_commits == 0

    def test_shard_ddl_logged_and_replayed(self):
        database = Database(wal=True)
        database.create_table(
            "people", PEOPLE_COLUMNS, primary_key="person_id"
        )
        database.shard_table("people", "city", 5)
        assert any(
            isinstance(record, ShardTableRecord) for record in database.wal
        )
        recovered = Database.recover(database.wal)
        table = recovered.table("people")
        assert isinstance(table, ShardedTable)
        assert table.shard_count == 5 and table.shard_key == "city"
