"""Shared fixtures for the test suite.

Fixtures are session-scoped where the underlying object is read-only for the
tests that use it (databases, registries); tests that mutate state build their
own instances.
"""

from __future__ import annotations

import pytest

from repro.appsim.runtime import AppRuntime
from repro.core.catalog import catalog_for_network
from repro.db.database import Database
from repro.db.schema import Column, ColumnType, ForeignKey
from repro.db.vectorized import VectorizedExecutor
from repro.net.network import FAST_LOCAL, SLOW_REMOTE
from repro.workloads import tpcds
from repro.workloads.wilos import build_wilos_database


@pytest.fixture
def tier(mode, monkeypatch) -> str:
    """The database ``execution_mode`` for execution path ``mode``.

    For tests parametrized over ``mode`` in ``vectorized`` (fused codegen
    first), ``kernel`` (the vectorized tier's batch kernels alone: codegen
    switched off on every executor, shard-local ones included) and
    ``interpreted``.
    """
    monkeypatch.setattr(VectorizedExecutor, "codegen_enabled", mode != "kernel")
    return "interpreted" if mode == "interpreted" else "vectorized"


@pytest.fixture(scope="session")
def orders_database() -> Database:
    """A small orders/customer database (300 orders, 60 customers)."""
    return tpcds.build_orders_database(num_orders=300, num_customers=60)


@pytest.fixture(scope="session")
def large_customer_database() -> Database:
    """Few orders, many customers (the regime where the SQL join wins)."""
    return tpcds.build_orders_database(num_orders=100, num_customers=3_000)


@pytest.fixture(scope="session")
def wilos_database() -> Database:
    """A small Wilos-like database (largest relation 800 rows)."""
    return build_wilos_database(scale=800)


@pytest.fixture(scope="session")
def registry():
    """The Order/Customer ORM mapping registry."""
    return tpcds.build_registry()


@pytest.fixture()
def orders_runtime() -> AppRuntime:
    """A fresh runtime over a small orders database, fast local network."""
    return tpcds.build_runtime(
        num_orders=200, num_customers=50, network=FAST_LOCAL
    )


@pytest.fixture()
def slow_orders_runtime() -> AppRuntime:
    """A fresh runtime over a small orders database, slow remote network."""
    return tpcds.build_runtime(
        num_orders=200, num_customers=50, network=SLOW_REMOTE
    )


@pytest.fixture(scope="session")
def slow_params():
    return catalog_for_network("slow-remote")


@pytest.fixture(scope="session")
def fast_params():
    return catalog_for_network("fast-local")


@pytest.fixture()
def simple_database() -> Database:
    """A two-table department/employee database used by many unit tests."""
    database = Database()
    database.create_table(
        "department",
        [
            Column("dept_id", ColumnType.INT),
            Column("dept_name", ColumnType.STRING, width=20),
            Column("budget", ColumnType.FLOAT),
        ],
        primary_key="dept_id",
    )
    database.create_table(
        "employee",
        [
            Column("emp_id", ColumnType.INT),
            Column("name", ColumnType.STRING, width=20),
            Column("dept_id", ColumnType.INT),
            Column("salary", ColumnType.FLOAT),
            Column("age", ColumnType.INT),
        ],
        primary_key="emp_id",
        foreign_keys=[ForeignKey("dept_id", "department", "dept_id")],
    )
    database.insert(
        "department",
        [
            {"dept_id": 1, "dept_name": "eng", "budget": 100.0},
            {"dept_id": 2, "dept_name": "sales", "budget": 50.0},
            {"dept_id": 3, "dept_name": "hr", "budget": 25.0},
        ],
    )
    database.insert(
        "employee",
        [
            {"emp_id": 1, "name": "ann", "dept_id": 1, "salary": 90.0, "age": 31},
            {"emp_id": 2, "name": "bob", "dept_id": 1, "salary": 80.0, "age": 45},
            {"emp_id": 3, "name": "carol", "dept_id": 2, "salary": 70.0, "age": 28},
            {"emp_id": 4, "name": "dave", "dept_id": 2, "salary": 60.0, "age": 52},
            {"emp_id": 5, "name": "erin", "dept_id": 3, "salary": 55.0, "age": 39},
            {"emp_id": 6, "name": "frank", "dept_id": None, "salary": 40.0, "age": 23},
        ],
    )
    database.analyze()
    return database
