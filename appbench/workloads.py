"""The four benchmark workloads: data, engine, programs, oracle and passes.

Sizes, networks and engine configuration come from ``workloads.json``, which
also records why each workload exists.  Every workload builds its data from
the run's seed and drives the programs through the public API
(``Engine`` -> ``AppRuntime`` -> ORM / connection -> database).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from repro.api import Engine
from repro.db.database import Database
from repro.experiments.figure13 import STRATEGY_TO_PROGRAM
from repro.experiments.harness import compile_program
from repro.workloads import programs, tpcds
from repro.workloads.wilos import build_wilos_database
from repro.workloads.wilos_programs import build_patterns

from spans import SpanRecorder

CONFIG = json.loads(
    Path(__file__).with_name("workloads.json").read_text(encoding="utf-8")
)


@dataclass
class Operation:
    """One program execution (or optimize() call) of a pass."""

    label: str
    #: results within one group must all equal the group's reference.
    group: str
    run: Callable[..., Any]


@dataclass
class State:
    """A set-up workload: the engine(s) and the operations of one pass."""

    engines: list[Engine]
    operations: list[Operation]
    #: group -> label of the variant COBRA chose (executing workloads).
    chosen: dict[str, str] = field(default_factory=dict)
    #: the application runtime the programs run on (executing workloads).
    runtime: Any = None

    @property
    def databases(self) -> list[Database]:
        return [engine.database for engine in self.engines]

    def close(self) -> None:
        for engine in self.engines:
            engine.close()


@dataclass
class PassOutcome:
    """What one pass produced; ``results`` holds values or exceptions."""

    wall_s: float = 0.0
    results: dict[str, Any] = field(default_factory=dict)
    virtual: dict[str, float] = field(default_factory=dict)
    #: per-pass sums of program counters (connection, ORM, cache, DAG).
    counters: dict[str, float] = field(default_factory=dict)
    virtual_s: float = 0.0
    choice_regret: float = 0.0
    #: how much slower than the reference the host ran (set by the runner).
    slowdown: float = 1.0

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


class Workload:
    """Interface of a workload; subclasses fill in data and programs."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = CONFIG["workloads"][self.name]

    def reference(self) -> dict[str, Any]:
        """Expected result per group, from the interpreted oracle."""
        raise NotImplementedError

    def setup(self) -> State:
        raise NotImplementedError

    def run_pass(
        self, state: State, recorder: Optional[SpanRecorder] = None
    ) -> PassOutcome:
        raise NotImplementedError


def canonical(value: Any) -> Any:
    """``value`` with every list sorted, for order-insensitive comparison.

    The programs iterate queries without ORDER BY, whose row order SQL
    leaves open; scatter-gather over shards returns rows in shard order
    (row-set equal to the unsharded result, not order equal).  Pattern B,
    for one, returns its rows' points in scan order.
    """
    if isinstance(value, list):
        items = [canonical(item) for item in value]
        try:
            return sorted(items)
        except TypeError:
            return sorted(items, key=repr)
    if isinstance(value, tuple):
        return tuple(canonical(item) for item in value)
    if isinstance(value, dict):
        return sorted((key, canonical(item)) for key, item in value.items())
    return value


def interpreted_copy(database: Database) -> Database:
    """The same data on the interpreted tier: unsharded, no WAL.

    Built through a WAL checkpoint and ``Database.recover`` so the oracle
    sees exactly the rows the generator produced for this seed.
    """
    database.enable_wal()
    copy = Database.recover(
        database.wal, wal=False, execution_mode="interpreted"
    )
    copy.analyze()
    return copy


# -- executing workloads -------------------------------------------------------


class ExecutingWorkload(Workload):
    """A workload whose pass runs application programs on an AppRuntime."""

    def run_pass(
        self, state: State, recorder: Optional[SpanRecorder] = None
    ) -> PassOutcome:
        outcome = PassOutcome()
        runtime = state.runtime
        traced = recorder is not None
        pass_span = recorder.open("app.pass") if traced else -1
        started = perf_counter()
        for operation in state.operations:
            runtime.reset()
            span = recorder.open("app.program") if traced else -1
            try:
                outcome.results[operation.label] = operation.run(runtime)
            except Exception as exc:  # counted as a failed operation
                outcome.results[operation.label] = exc
            finally:
                if traced:
                    recorder.close(span)
            stats = runtime.connection.stats
            outcome.virtual[operation.label] = runtime.clock.now
            outcome.add("statements", stats.queries)
            outcome.add("round_trips", stats.round_trips)
            outcome.add("bytes_transferred", stats.bytes_transferred)
            outcome.add("network_time", stats.network_time)
            outcome.add("server_time", stats.server_time)
            if traced:
                orm = runtime.orm
                outcome.add("orm_entities", orm.cache_size)
                outcome.add("orm_lazy_loads", orm.lazy_loads)
                outcome.add("orm_cache_hits", orm.cache_hits)
                outcome.add("cache_lookups", runtime.cache.lookups)
        outcome.wall_s = perf_counter() - started
        if traced:
            recorder.close(pass_span)
        if len(outcome.virtual) == len(state.operations):
            self._score(state, outcome)
        return outcome

    @staticmethod
    def _score(state: State, outcome: PassOutcome) -> None:
        """virtual_s and choice_regret of a pass (paper metric, exact)."""
        virtual = outcome.virtual
        outcome.virtual_s = sum(virtual.values())
        groups: dict[str, list[float]] = {}
        for operation in state.operations:
            groups.setdefault(operation.group, []).append(
                virtual[operation.label]
            )
        chosen = sum(virtual[label] for label in state.chosen.values())
        fastest = sum(min(groups[group]) for group in state.chosen)
        outcome.choice_regret = chosen / fastest

    def _reference_runtime(self, database: Database, registry=None):
        builder = Engine.builder().database(interpreted_copy(database))
        if registry is not None:
            builder.registry(registry)
        engine = builder.network(self.config["network"]).build()
        return engine.runtime()


class Fig13Orders(ExecutingWorkload):
    """P0 / P1 / P2 of Fig. 13 on the orders/customer database."""

    name = "fig13_orders"

    def _database(self) -> Database:
        sizes = self.config["sizes"]
        return tpcds.build_orders_database(
            sizes["orders"], sizes["customers"], self.seed
        )

    def reference(self) -> dict[str, Any]:
        runtime = self._reference_runtime(
            self._database(), tpcds.build_registry()
        )
        runtime.reset()
        return {"orders": programs.p1_sql_join(runtime)}

    def setup(self) -> State:
        sizes = self.config["sizes"]
        engine = (
            Engine.builder()
            .orders_workload(sizes["orders"], sizes["customers"], self.seed)
            .network(self.config["network"])
            .build()
        )
        choice = engine.optimize(programs.P0_SOURCE).primary_choice()
        return State(
            engines=[engine],
            operations=[
                Operation(label, "orders", function)
                for label, function in programs.VARIANTS.items()
            ],
            chosen={"orders": STRATEGY_TO_PROGRAM.get(choice, "Hibernate(P0)")},
            runtime=engine.runtime(),
        )


class WilosRewrites(ExecutingWorkload):
    """Wilos patterns A-F, as written and as rewritten by COBRA."""

    name = "wilos_rewrites"

    def _database(self) -> Database:
        return build_wilos_database(self.config["sizes"]["scale"], self.seed)

    def _configure(self, builder):
        return builder

    def reference(self) -> dict[str, Any]:
        runtime = self._reference_runtime(self._database())
        expected = {}
        for pattern_id, pattern in build_patterns().items():
            function = compile_program(pattern.source, pattern.function_name)
            runtime.reset()
            expected[pattern_id] = pattern.driver(runtime, function)
        return expected

    def setup(self) -> State:
        builder = Engine.builder().database(self._database())
        engine = self._configure(
            builder.network(self.config["network"])
        ).build()
        operations = []
        chosen = {}
        for pattern_id, pattern in build_patterns().items():
            rewrite = engine.optimize(
                pattern.source, function_name=pattern.function_name
            ).rewritten_source
            for kind, source in (("original", pattern.source),
                                 ("rewrite", rewrite)):
                function = compile_program(source, pattern.function_name)
                operations.append(
                    Operation(
                        f"{pattern_id}.{kind}",
                        pattern_id,
                        partial(pattern.driver, function=function),
                    )
                )
            chosen[pattern_id] = f"{pattern_id}.rewrite"
        return State(
            engines=[engine],
            operations=operations,
            chosen=chosen,
            runtime=engine.runtime(),
        )


class WilosShardedWal(WilosRewrites):
    """wilos_rewrites on 4 hash shards, a 2-thread pool and the WAL."""

    name = "wilos_sharded_wal"

    def _configure(self, builder):
        engine = self.config["engine"]
        pool = engine["pool"]
        return (
            builder.shards(engine["shards"])
            .parallel(workers=pool["workers"], mode=pool["mode"])
            .wal()
        )


# -- the optimizer workload ----------------------------------------------------


def _optimization_summary(result) -> tuple:
    """What an optimize() call must reproduce exactly."""
    return (
        result.rewritten_source,
        tuple(sorted(result.strategies.items())),
        result.best_cost,
    )


class OptimizePrograms(Workload):
    """COBRA's optimize() on every paper program; nothing executes."""

    name = "optimize_programs"

    #: sources whose Fig. 13 siblings are each other's alternatives.
    ORDERS_SIBLINGS = ("P0", "P1", "P2")

    def _sources(self) -> list[tuple[str, str, Optional[str], str]]:
        """(name, source, function name, database) of the 10 programs."""
        sources = [
            ("P0", programs.P0_SOURCE, None, "orders"),
            ("P1", programs.P1_SOURCE, None, "orders"),
            ("P2", programs.P2_SOURCE, None, "orders"),
            ("M0", programs.M0_SOURCE, None, "orders"),
        ]
        for pattern_id, pattern in build_patterns().items():
            sources.append(
                (pattern_id, pattern.source, pattern.function_name, "wilos")
            )
        return sources

    def _databases(self) -> dict[str, Database]:
        sizes = self.config["sizes"]
        return {
            "orders": tpcds.build_orders_database(
                sizes["orders"], sizes["customers"], self.seed
            ),
            "wilos": build_wilos_database(sizes["wilos_scale"], self.seed),
        }

    def _state(self, databases: dict[str, Database]) -> State:
        engines = []
        operations = []
        registries = {"orders": tpcds.build_registry(), "wilos": None}
        for network in self.config["network"]:
            for factor in self.config["amortization"]:
                by_database = {}
                for key, database in databases.items():
                    builder = Engine.builder().database(database)
                    if registries[key] is not None:
                        builder.registry(registries[key])
                    engine = (
                        builder.network(network).amortization(factor).build()
                    )
                    engines.append(engine)
                    by_database[key] = engine
                for name, source, function_name, key in self._sources():
                    label = f"{name}@{network}/AF{factor}"
                    operations.append(
                        Operation(
                            label,
                            label,
                            partial(
                                by_database[key].optimize,
                                source,
                                function_name=function_name,
                            ),
                        )
                    )
        return State(engines=engines, operations=operations)

    def reference(self) -> dict[str, Any]:
        databases = {
            key: interpreted_copy(database)
            for key, database in self._databases().items()
        }
        state = self._state(databases)
        return {
            operation.label: _optimization_summary(operation.run())
            for operation in state.operations
        }

    def setup(self) -> State:
        return self._state(self._databases())

    def run_pass(
        self, state: State, recorder: Optional[SpanRecorder] = None
    ) -> PassOutcome:
        outcome = PassOutcome()
        traced = recorder is not None
        raw: dict[str, Any] = {}
        pass_span = recorder.open("app.pass") if traced else -1
        started = perf_counter()
        for operation in state.operations:
            span = recorder.open("app.program") if traced else -1
            try:
                raw[operation.label] = operation.run()
            except Exception as exc:  # counted as a failed operation
                raw[operation.label] = exc
            finally:
                if traced:
                    recorder.close(span)
        outcome.wall_s = perf_counter() - started
        if traced:
            recorder.close(pass_span)
        for label, result in raw.items():
            if isinstance(result, Exception):
                outcome.results[label] = result
                continue
            outcome.results[label] = _optimization_summary(result)
            outcome.virtual[label] = result.best_cost
            outcome.add("dag_groups", result.dag.group_count)
            outcome.add("dag_nodes", result.dag.node_count)
            outcome.add("alternatives", result.alternatives_added)
        if len(outcome.virtual) == len(state.operations):
            outcome.virtual_s = sum(outcome.virtual.values())
            outcome.choice_regret = outcome.virtual_s / sum(
                self._fastest_variant(raw, label) for label in raw
            )
        return outcome

    def _fastest_variant(self, raw: dict[str, Any], label: str) -> float:
        """Estimated cost of the cheapest variant of one call's program.

        The variants are COBRA's choice and the hand-written siblings of
        the source as written (P0/P1/P2 for the orders programs).
        """
        name, setting = label.split("@")
        siblings = (
            self.ORDERS_SIBLINGS if name in self.ORDERS_SIBLINGS else (name,)
        )
        return min(
            raw[label].best_cost,
            *(raw[f"{s}@{setting}"].original_cost for s in siblings),
        )


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (Fig13Orders, WilosRewrites, WilosShardedWal,
                     OptimizePrograms)
}
