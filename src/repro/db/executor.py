"""Execution of relational algebra plans against in-memory tables.

The executor runs :mod:`repro.db.algebra` trees over rows flowing as
dictionaries.  Join outputs carry both qualified keys (``alias.column``) and,
when unambiguous, bare column keys, so that downstream expressions written
either way evaluate correctly — the same convention the SQL parser and the
ORM rely on.

Two execution modes are supported (``Executor(tables, mode=...)``):

* **vectorized** (the default) — plans are lowered to batch pipelines over
  columnar storage by :class:`repro.db.vectorized.VectorizedExecutor`:
  fused code-generated pipelines for scan/filter/project/aggregate spines,
  batch kernels for everything else in the vectorizable subset, and output
  row dicts built only at the root of the operator tree (*late
  materialization*).  Plans, operators, or expressions outside that subset
  fall back per-subtree to the interpreted tier below, and a kernel error
  re-runs the whole plan interpreted so error semantics never diverge.

* **interpreted** — the tree-walking reference implementation:
  ``Expression.evaluate`` per row, hash joins built per execution, no
  cross-query caches.  It is the oracle the vectorized tier is
  property-tested against and the only row fallback.

Both modes produce identical output rows in identical order;
:attr:`Executor.tier_counts` records which tier served each ``execute``.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.db import algebra
from repro.db.expressions import BinaryOp, BooleanOp, ColumnRef, Expression
from repro.db.table import Row, Table, scan_row_maker


class ExecutionError(Exception):
    """Raised when a plan cannot be executed."""


class Executor:
    """Executes algebra plans against a mapping of table name -> Table."""

    #: Valid execution modes, fastest first.
    MODES = ("vectorized", "interpreted")

    def __init__(
        self, tables: Mapping[str, Table], *, mode: str = "vectorized"
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"unknown execution mode {mode!r}; modes are {self.MODES}"
            )
        self._tables = tables
        self.mode = mode
        #: execute() calls served per tier (a vectorized attempt that falls
        #: back is counted under the tier that produced the rows).
        self.tier_counts: dict[str, int] = {"vectorized": 0, "interpreted": 0}
        #: optional :class:`repro.db.sharding.ShardRouter` consulted before
        #: normal execution; plans it declines run unrouted against the
        #: (aggregate) table views.  Shard-local executors never carry a
        #: router themselves.
        self.router = None
        #: which tier served the most recent execute() call, and — when the
        #: vectorized tier declined it — why.  Plain attribute stores, cheap
        #: enough to maintain unconditionally; read by prepared statements
        #: for tracing and EXPLAIN.
        self.last_tier: Optional[str] = None
        self.last_fallback_reason: Optional[str] = None
        #: how the most recent execute() call actually produced its rows:
        #: "codegen" / "kernel" inside the vectorized tier, otherwise
        #: "interpreted".  Finer-grained than last_tier, read by EXPLAIN.
        self.last_execution_path: Optional[str] = None
        if mode == "vectorized":
            from repro.db.vectorized import VectorizedExecutor

            self._vectorized: Optional[VectorizedExecutor] = (
                VectorizedExecutor(self)
            )
        else:
            self._vectorized = None

    # -- public API ------------------------------------------------------

    def execute(self, plan: algebra.PlanNode) -> list[Row]:
        """Execute ``plan`` and return the output rows as a list of dicts."""
        if self.router is not None:
            routed = self.router.try_execute(plan)
            if routed is not None:
                self.last_tier = self.router.last_tier
                self.last_fallback_reason = self.router.last_fallback_reason
                self.last_execution_path = self.router.last_execution_path
                return routed
        if self._vectorized is not None:
            rows = self._vectorized.try_execute(plan)
            if rows is not None:
                self.tier_counts["vectorized"] += 1
                self.last_tier = "vectorized"
                self.last_fallback_reason = None
                self.last_execution_path = self._vectorized.last_path
                return rows
        rows = list(self._execute(plan))
        self.tier_counts["interpreted"] += 1
        self.last_tier = "interpreted"
        self.last_execution_path = "interpreted"
        self.last_fallback_reason = (
            self._vectorized.last_fallback_reason
            if self._vectorized is not None
            else None
        )
        return rows

    def predict_tier(self, plan: algebra.PlanNode) -> str:
        """The tier :meth:`execute` is expected to serve ``plan`` on.

        ``vectorized`` when the vectorized tier has a lowering for the plan
        (kernel errors at run time can still send it to the interpreted
        tier), ``interpreted`` otherwise.  Used by EXPLAIN.
        """
        vectorized = self._vectorized
        if vectorized is not None and vectorized._op(plan) is not None:
            return "vectorized"
        return "interpreted"

    @property
    def vectorized_stats(self) -> dict[str, int]:
        """Vectorized-tier counters (zeros outside vectorized mode)."""
        if self._vectorized is None:
            return {
                "executions": 0,
                "codegen_executions": 0,
                "pipelines_compiled": 0,
                "codegen_cache_hits": 0,
                "codegen_errors": 0,
                "fallbacks": 0,
                "subtree_fallbacks": 0,
                "fallback_reasons": {},
            }
        return {
            "executions": self._vectorized.executions,
            "codegen_executions": self._vectorized.codegen_executions,
            "pipelines_compiled": self._vectorized.pipelines_compiled,
            "codegen_cache_hits": self._vectorized.codegen_cache_hits,
            "codegen_errors": self._vectorized.codegen_errors,
            "fallbacks": self._vectorized.fallbacks,
            "subtree_fallbacks": self._vectorized.subtree_fallbacks,
            "fallback_reasons": dict(self._vectorized.fallback_reasons),
        }

    def invalidate_caches(self) -> None:
        """Drop the vectorized tier's lowered-plan caches (call on DDL).

        Lowered pipelines close over table objects and schemas, so DDL that
        replaces a table must not let them serve another query.
        """
        if self._vectorized is not None:
            self._vectorized.invalidate()

    # -- dispatch --------------------------------------------------------

    def _execute(self, plan: algebra.PlanNode) -> Iterable[Row]:
        if isinstance(plan, algebra.Scan):
            return self._scan(plan)
        if isinstance(plan, algebra.Select):
            return self._select(plan)
        if isinstance(plan, algebra.Project):
            return self._project(plan)
        if isinstance(plan, algebra.Join):
            return self._join(plan)
        if isinstance(plan, algebra.Aggregate):
            return self._aggregate(plan)
        if isinstance(plan, algebra.Sort):
            return self._sort(plan)
        if isinstance(plan, algebra.Limit):
            return self._limit(plan)
        raise ExecutionError(f"unsupported plan node {type(plan).__name__}")

    def _key_getter(self, column: ColumnRef) -> Callable[[Row], Any]:
        """A join-key evaluator that maps unresolvable rows to ``None``."""
        evaluate = column.evaluate

        def get(row: Row) -> Any:
            try:
                return evaluate(row)
            except Exception:
                return None

        return get

    # -- operators -------------------------------------------------------

    def _scan(self, plan: algebra.Scan) -> Iterator[Row]:
        try:
            table = self._tables[plan.table]
        except KeyError:
            raise ExecutionError(f"unknown table {plan.table!r}") from None
        yield from map(
            scan_row_maker(table.schema, plan.effective_alias), table.rows
        )

    def _select(self, plan: algebra.Select) -> Iterable[Row]:
        return filter(plan.predicate.evaluate, self._execute(plan.child))

    def _project(self, plan: algebra.Project) -> Iterable[Row]:
        outputs = [(o.name, o.expression.evaluate) for o in plan.outputs]
        return (
            {name: evaluate(row) for name, evaluate in outputs}
            for row in self._execute(plan.child)
        )

    def _join(self, plan: algebra.Join) -> Iterator[Row]:
        left_rows = list(self._execute(plan.left))
        if not left_rows:
            # Empty probe side: skip executing and building the other side.
            # Still validate its table references so a typo'd table name
            # raises regardless of what the probe side happens to contain.
            for scan in algebra.find_scans(plan.right):
                if scan.table not in self._tables:
                    raise ExecutionError(f"unknown table {scan.table!r}")
            return iter(())
        right_rows = list(self._execute(plan.right))
        equi = _equi_join_columns(plan.condition)
        if equi is not None:
            return self._hash_join(left_rows, right_rows, equi)
        return self._nested_loops_join(left_rows, right_rows, plan)

    def _hash_join(
        self,
        left_rows: list[Row],
        right_rows: list[Row],
        equi: tuple[ColumnRef, ColumnRef],
    ) -> Iterator[Row]:
        if not left_rows or not right_rows:
            return
        left_col, right_col = _orient_equi_columns(left_rows, right_rows, equi)
        right_key = self._key_getter(right_col)
        build: dict[Any, list[Row]] = {}
        for row in right_rows:
            key = right_key(row)
            if key is None:
                continue
            bucket = build.get(key)
            if bucket is None:
                build[key] = [row]
            else:
                bucket.append(row)
        left_key = self._key_getter(left_col)
        for left_row in left_rows:
            key = left_key(left_row)
            if key is None:
                continue
            for right_row in build.get(key, ()):
                yield _merge_rows(left_row, right_row)

    def _nested_loops_join(
        self, left_rows: list[Row], right_rows: list[Row], plan: algebra.Join
    ) -> Iterator[Row]:
        condition = (
            plan.condition.evaluate if plan.condition is not None else None
        )
        for left_row in left_rows:
            for right_row in right_rows:
                merged = _merge_rows(left_row, right_row)
                if condition is None or condition(merged):
                    yield merged

    def _aggregate(self, plan: algebra.Aggregate) -> Iterator[Row]:
        rows_iter = self._execute(plan.child)
        # Aggregates often share their argument (sum(x) next to avg(x)):
        # evaluate each distinct argument once per group.
        planned = plan_aggregate_arguments(
            plan.aggregates, lambda expression: expression.evaluate
        )
        assert planned is not None  # evaluate never fails to "compile"
        arg_fns, spec_slots = planned

        def emit_into(out: Row, rows: list[Row]) -> Row:
            cache: list[Optional[list]] = [None] * len(arg_fns)
            for spec, slot in spec_slots:
                if slot is None:
                    out[spec.name] = len(rows)
                    continue
                values = cache[slot]
                if values is None:
                    values = [v for v in map(arg_fns[slot], rows) if v is not None]
                    cache[slot] = values
                out[spec.name] = _compute_aggregate(spec.function, values)
            return out

        if not plan.group_by:
            yield emit_into({}, list(rows_iter))
            return
        # The vectorized tier computes the same grouping with single-pass
        # partial-aggregate kernels (_lower_aggregate); group order must
        # stay first-encounter in both — change the two together.
        keys = [column.evaluate for column in plan.group_by]
        groups: dict[tuple, list[Row]] = {}
        for row in rows_iter:
            key = tuple(evaluate(row) for evaluate in keys)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [row]
            else:
                bucket.append(row)
        for key, group_rows in groups.items():
            out: Row = {}
            for col, value in zip(plan.group_by, key):
                out[col.name] = value
                out[col.qualified_name] = value
            yield emit_into(out, group_rows)

    def _sort(self, plan: algebra.Sort) -> list[Row]:
        rows = list(self._execute(plan.child))
        # Sort by the last key first so earlier keys take precedence.
        for key in reversed(plan.keys):
            evaluate = key.column.evaluate
            rows.sort(
                key=lambda row: _sort_key(evaluate(row)),
                reverse=not key.ascending,
            )
        return rows

    def _limit(self, plan: algebra.Limit) -> Iterable[Row]:
        return islice(self._execute(plan.child), plan.count)


# -- helpers ------------------------------------------------------------


def plan_aggregate_arguments(
    aggregates: Sequence[algebra.AggregateSpec],
    compile_arg: Callable[[Expression], Optional[Any]],
) -> Optional[tuple[list, list[tuple[algebra.AggregateSpec, Optional[int]]]]]:
    """Deduplicate aggregate arguments into evaluation slots.

    Returns ``(compiled_args, spec_slots)`` where each distinct argument
    expression was compiled once via ``compile_arg`` and every spec maps to
    its argument's slot (``None`` for ``count(*)``), so ``sum(x)`` next to
    ``avg(x)`` evaluates ``x`` once per group.  Shared by the row tier and
    the vectorized tier, whose emit loops must stay slot-compatible.
    Returns ``None`` when ``compile_arg`` fails for any argument (only the
    vectorized kernel compiler can fail).
    """
    arg_exprs: list[Expression] = []
    compiled: list = []
    spec_slots: list[tuple[algebra.AggregateSpec, Optional[int]]] = []
    for spec in aggregates:
        if spec.argument is None:  # count(*)
            spec_slots.append((spec, None))
            continue
        for slot, existing in enumerate(arg_exprs):
            if existing == spec.argument:
                break
        else:
            slot = len(arg_exprs)
            evaluate = compile_arg(spec.argument)
            if evaluate is None:
                return None
            arg_exprs.append(spec.argument)
            compiled.append(evaluate)
        spec_slots.append((spec, slot))
    return compiled, spec_slots


def _flatten_and(predicate: Expression) -> list[Expression]:
    """Split nested AND conjunctions into their leaf conjuncts, in order."""
    if isinstance(predicate, BooleanOp) and predicate.op == "and":
        conjuncts: list[Expression] = []
        for operand in predicate.operands:
            conjuncts.extend(_flatten_and(operand))
        return conjuncts
    return [predicate]


def _merge_rows(left: Row, right: Row) -> Row:
    """Merge join-side rows.

    Qualified keys from both sides are kept.  A bare key present on both
    sides keeps the left value for the bare name (qualified names remain
    unambiguous), matching the usual SQL behaviour where ambiguous bare
    references should be qualified by the query author.
    """
    merged = dict(right)
    merged.update(left)
    return merged


def _equi_join_columns(
    condition: Expression | None,
) -> tuple[ColumnRef, ColumnRef] | None:
    """Return the (left, right) column refs if the condition is a simple
    equality between two columns, else ``None``."""
    if isinstance(condition, BinaryOp) and condition.op in {"=", "=="}:
        if isinstance(condition.left, ColumnRef) and isinstance(
            condition.right, ColumnRef
        ):
            return condition.left, condition.right
    return None


def _orient_equi_columns(
    left_rows: list[Row],
    right_rows: list[Row],
    equi: tuple[ColumnRef, ColumnRef],
) -> tuple[ColumnRef, ColumnRef]:
    """Assign the equi-join columns to the sides they actually resolve on.

    Samples one row from *each* side (all rows of a side share one shape), so
    a condition written ``right.col = left.col`` is handled no matter which
    side's sample resolves the first column.  If neither orientation resolves
    cleanly the original orientation is kept (the join then matches nothing,
    as before).
    """
    left_col, right_col = equi
    left_sample = left_rows[0]
    right_sample = right_rows[0]
    if _resolves(left_col, left_sample) and _resolves(right_col, right_sample):
        return left_col, right_col
    if _resolves(right_col, left_sample) and _resolves(left_col, right_sample):
        return right_col, left_col
    return left_col, right_col


def _resolves(column: ColumnRef, row: Row) -> bool:
    """Return True if ``column`` can be evaluated against ``row``."""
    try:
        column.evaluate(row)
        return True
    except Exception:
        return False


def _sort_key(value: Any) -> tuple:
    """Total ordering that tolerates None and mixed types."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def _compute_aggregate(function: str, values: list) -> Any:
    """Compute one aggregate over the (non-null) argument ``values``."""
    if function == "count":
        return len(values)
    if not values:
        return None
    if function == "sum":
        return sum(values)
    if function == "avg":
        return sum(values) / len(values)
    if function == "min":
        return min(values)
    if function == "max":
        return max(values)
    raise ExecutionError(f"unsupported aggregate {function!r}")
