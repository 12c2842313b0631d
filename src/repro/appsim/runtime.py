"""The application runtime: what rewritten and original programs run against.

An :class:`AppRuntime` bundles

* a :class:`repro.db.database.Database` (the server),
* a :class:`repro.net.connection.SimulatedConnection` (the network link and
  virtual clock),
* an ORM :class:`repro.orm.session.Session` (Hibernate stand-in),
* a :class:`repro.appsim.cache.ClientCache` (prefetch target), and
* the imperative-statement cost ``CZ`` from the cost model.

Application programs are plain Python callables taking the runtime as their
only argument, e.g.::

    def process_orders(rt):
        result = []
        for o in rt.orm.load_all("Order"):
            cust = o.customer
            rt.work(3)
            result.append(my_func(o.o_id, cust.c_birth_year))
        return result

``AppRuntime.measure`` runs such a callable from a clean clock and returns a
:class:`RunMeasurement` with the virtual execution time and the transfer and
query counters — these are the numbers the Figure 13/15 reproductions report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.appsim.cache import ClientCache
from repro.db.database import Database, QueryResult
from repro.net.connection import SimulatedConnection
from repro.net.network import NetworkConditions
from repro.orm.mapping import MappingRegistry
from repro.orm.session import Session

#: The paper's measured per-statement cost: 30 nanoseconds.
DEFAULT_STATEMENT_COST = 30e-9


@dataclass(frozen=True)
class RunMeasurement:
    """Outcome of one measured program run."""

    elapsed_seconds: float
    queries: int
    rows_transferred: int
    bytes_transferred: int
    statements_executed: int
    result: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunMeasurement(elapsed={self.elapsed_seconds:.3f}s, "
            f"queries={self.queries}, rows={self.rows_transferred})"
        )


class AppRuntime:
    """Execution environment for application programs under simulation."""

    def __init__(
        self,
        database: Database,
        network: NetworkConditions,
        registry: Optional[MappingRegistry] = None,
        statement_cost: float = DEFAULT_STATEMENT_COST,
        connection: Optional[SimulatedConnection] = None,
    ) -> None:
        self.database = database
        self.network = network
        #: the link the program talks through — an engine-issued one (with
        #: the engine's faults, retries, admission and tracer) or a plain
        #: one; its clock is the runtime's clock.
        self.connection = connection or SimulatedConnection(database, network)
        self.clock = self.connection.clock
        self.registry = registry or MappingRegistry()
        self.orm = Session(self.registry, self.connection)
        self.cache = ClientCache()
        self.statement_cost = statement_cost
        self.statements_executed = 0

    # -- program-facing API ----------------------------------------------

    def execute_query(self, sql: str, params: Sequence[Any] = ()) -> list[dict]:
        """Execute a SQL SELECT over the network; returns row dicts."""
        result = self.connection.execute_query(sql, tuple(params))
        return result.rows

    def execute_query_result(
        self, sql: str, params: Sequence[Any] = ()
    ) -> QueryResult:
        """Execute a SELECT and return the full :class:`QueryResult`."""
        return self.connection.execute_query(sql, tuple(params))

    def execute_update(self, sql: str, params: Sequence[Any] = ()) -> int:
        """Execute an UPDATE statement over the network (pattern-A workloads)."""
        return self.connection.execute_update(sql, tuple(params))

    def work(self, statements: int = 1) -> None:
        """Charge the cost of ``statements`` imperative statements (CZ each)."""
        if statements < 0:
            raise ValueError("statement count must be non-negative")
        self.statements_executed += statements
        self.clock.advance(statements * self.statement_cost)

    def prefetch(
        self, table: str, key_column: str, region: Optional[str] = None
    ) -> int:
        """Fetch an entire relation and cache it locally by ``key_column``.

        This is the runtime counterpart of transformation N1's ``prefetch``
        operator; returns the number of rows cached.  Prefetching is
        idempotent: if the cache region is already populated (for example
        because the prefetch statement ended up inside an enclosing loop) the
        query is not re-issued — this is the caching behaviour the cost
        model's amortization factor (AF) accounts for.
        """
        region = region or key_column
        if self.cache.has_region(region):
            self.work(1)
            return 0
        rows = self.execute_query(f"select * from {table}")
        return self.cache.cache_by_column(rows, key_column, region)

    def prefetch_query(
        self, sql: str, key_column: str, region: Optional[str] = None
    ) -> int:
        """Prefetch the result of an arbitrary query and cache it by column."""
        region = region or key_column
        if self.cache.has_region(region):
            self.work(1)
            return 0
        rows = self.execute_query(sql)
        return self.cache.cache_by_column(rows, key_column, region)

    def prefetch_group(
        self, table: str, key_column: str, region: Optional[str] = None
    ) -> int:
        """Prefetch a relation and cache its rows *grouped* by ``key_column``.

        Used when the lookup key is not unique (rule N1 applied to
        parameterised selections): ``lookup_group`` then returns all rows with
        the given key.  Idempotent, like :meth:`prefetch`.
        """
        region = region or f"{table}.{key_column}"
        if self.cache.has_region(region):
            self.work(1)
            return 0
        rows = self.execute_query(f"select * from {table}")
        return self.cache.cache_groups_by_column(rows, key_column, region)

    def lookup(self, key: Any, region: str) -> Optional[Any]:
        """Local cache lookup (rule N1's ``lookup``)."""
        self.work(1)
        return self.cache.lookup(key, region)

    def lookup_group(self, key: Any, region: str) -> list:
        """Local cache lookup returning every row cached under ``key``."""
        self.work(1)
        return self.cache.lookup_group(key, region)

    # -- measurement -----------------------------------------------------

    def reset(self) -> None:
        """Reset clock, counters, ORM cache, and client cache for a fresh run."""
        self.connection.reset()
        self.orm.clear()
        self.cache.clear()
        self.statements_executed = 0

    def measure(
        self, program: Callable[["AppRuntime"], Any], *args: Any, **kwargs: Any
    ) -> RunMeasurement:
        """Run ``program(self, *args, **kwargs)`` from a clean state and
        return its measurement."""
        self.reset()
        result = program(self, *args, **kwargs)
        return RunMeasurement(
            elapsed_seconds=self.clock.now,
            queries=self.connection.stats.queries,
            rows_transferred=self.connection.stats.rows_transferred,
            bytes_transferred=self.connection.stats.bytes_transferred,
            statements_executed=self.statements_executed,
            result=result,
        )

    @property
    def elapsed(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now
