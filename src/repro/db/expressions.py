"""Scalar and boolean expressions evaluated over rows.

These expressions are shared by the relational algebra (predicates, projection
expressions, aggregate arguments) and by the SQL parser.  Expressions are
immutable trees; evaluation takes a row dictionary.

Column references may be qualified (``o.o_id``) or unqualified (``o_id``);
qualified references resolve against rows whose keys carry the qualifier
(``"o.o_id"``) first and fall back to the bare name, so the same expression
works on both base-table rows and join-output rows.

Besides the tree-walking :meth:`Expression.evaluate` interpreter, every node
supports :meth:`Expression.compile`, which lowers the tree once into a plain
Python closure ``row -> value``.  Prepared UPDATEs and the sharding layer's
gather-side transforms compile their expressions once and call the closure
per row, avoiding the per-row dispatch and attribute lookups of the
interpreter while producing byte-identical results (including NULL
semantics, qualified/unqualified fallback, and errors).

For the vectorized executor (:mod:`repro.db.vectorized`), nodes additionally
support :meth:`Expression.compile_batch`, which lowers the tree once into a
*batch kernel* ``batch -> value list``: one call evaluates the expression
over every row of a column batch, looping in comprehension form over whole
column arrays instead of dispatching per row.  ``compile_batch`` returns
``None`` for node types outside the vectorizable subset, which tells the
executor to fall back to the interpreted (row) tier for that subtree.
Kernels preserve the interpreter's value semantics exactly (NULL handling,
scalar folding of literals and parameter slots); evaluation-order-dependent
*error* behaviour (e.g. a division that a short-circuited AND would have
skipped) is preserved by the executor, which re-runs the query on the
interpreted tier whenever a kernel raises.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

Row = Mapping[str, Any]

#: A compiled expression: a closure evaluating one row.
CompiledExpression = Callable[[Row], Any]

#: A batch kernel: evaluates an expression over every row of a column batch
#: (any object with a ``length`` attribute and column-array access supplied
#: by the resolver) and returns one value list aligned with the batch.
BatchKernel = Callable[[Any], list]

#: A batch resolver maps a column reference to the kernel producing that
#: column's value array; returning ``None`` marks the reference (and thus
#: the whole expression) as not vectorizable in the caller's context.
BatchResolver = Callable[["ColumnRef"], Optional[BatchKernel]]


class ExpressionError(Exception):
    """Raised when an expression cannot be evaluated against a row."""


class Expression:
    """Base class for row expressions."""

    def evaluate(self, row: Row) -> Any:
        """Evaluate this expression against ``row``."""
        raise NotImplementedError

    def compile(self) -> CompiledExpression:
        """Lower the expression to a closure ``row -> value``.

        The closure must agree exactly with :meth:`evaluate` on every row,
        including raised errors.  The base implementation falls back to the
        interpreter, so node types without a specialised lowering still work.
        """
        return self.evaluate

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        """Lower the expression to a kernel ``batch -> value list``.

        The kernel's output must agree element-for-element with calling
        :meth:`evaluate` on each row of the batch.  Returns ``None`` when
        this node (or any subexpression) has no vectorized lowering; the
        caller then falls back to row-at-a-time execution for the subtree.
        """
        return None

    def referenced_columns(self) -> set[str]:
        """All column names (possibly qualified) referenced by the expression."""
        return set()

    def to_sql(self) -> str:
        """Render the expression in SQL syntax."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: Row) -> Any:
        return self.value

    def compile(self) -> CompiledExpression:
        value = self.value
        return lambda row: value

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        value = self.value
        return lambda batch: [value] * batch.length

    def to_sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally qualified by a table/alias name."""

    name: str
    qualifier: str | None = None

    @property
    def qualified_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def evaluate(self, row: Row) -> Any:
        if self.qualifier:
            qualified = f"{self.qualifier}.{self.name}"
            if qualified in row:
                return row[qualified]
        if self.name in row:
            return row[self.name]
        # Fall back to any qualified key ending in ".name".
        suffix = f".{self.name}"
        matches = [k for k in row if k.endswith(suffix)]
        if len(matches) == 1:
            return row[matches[0]]
        if len(matches) > 1:
            raise ExpressionError(
                f"ambiguous column {self.name!r}: candidates {sorted(matches)}"
            )
        raise ExpressionError(
            f"column {self.qualified_name!r} not found in row with keys "
            f"{sorted(row)}"
        )

    def compile(self) -> CompiledExpression:
        # Fast path: direct key lookups; the interpreter handles the rare
        # suffix-fallback and error cases so the semantics stay identical.
        name = self.name
        evaluate = self.evaluate
        if self.qualifier:
            qualified = f"{self.qualifier}.{name}"

            def getter(row: Row) -> Any:
                try:
                    return row[qualified]
                except KeyError:
                    pass
                try:
                    return row[name]
                except KeyError:
                    return evaluate(row)

        else:

            def getter(row: Row) -> Any:
                try:
                    return row[name]
                except KeyError:
                    return evaluate(row)

        return getter

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        if resolver is None:
            return None
        return resolver(self)

    def referenced_columns(self) -> set[str]:
        return {self.qualified_name}

    def to_sql(self) -> str:
        return self.qualified_name

    def __repr__(self) -> str:
        return f"ColumnRef({self.qualified_name!r})"


class ParameterSlot(Expression):
    """A positional parameter compiled against a shared slot buffer.

    Where :class:`repro.db.sqlparser.Parameter` must be substituted with a
    :class:`Literal` (rebuilding the expression tree) before every execution,
    a ``ParameterSlot`` reads its value out of a mutable ``slots`` sequence
    *at evaluation time*.  A prepared statement therefore rewrites its plan
    template once — every ``?`` becomes a slot bound to the statement's
    buffer — compiles that template once, and then merely writes fresh values
    into the buffer per execution.

    Slots deliberately use identity hashing/equality (no ``@dataclass``):
    each prepared statement owns distinct slot objects, so its rewritten plan
    stays equal to itself across executions (compile caches keyed on the
    expression hit every time) while never colliding with another statement's
    plan.
    """

    __slots__ = ("index", "slots")

    def __init__(self, index: int, slots: list) -> None:
        self.index = index
        self.slots = slots

    def evaluate(self, row: Row) -> Any:
        return self.slots[self.index]

    def compile(self) -> CompiledExpression:
        slots = self.slots
        index = self.index
        return lambda row: slots[index]

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        # The buffer is read at kernel-call time, so a prepared statement's
        # vectorized plan stays reusable across executions.
        slots = self.slots
        index = self.index
        return lambda batch: [slots[index]] * batch.length

    def to_sql(self) -> str:
        return "?"

    def __repr__(self) -> str:
        return f"ParameterSlot(?{self.index})"


_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Operators with NULL-propagating (rather than NULL-is-false) semantics.
_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})

#: Operator symbol -> Python source operator, for source-level code
#: generation (the vectorized tier's fused-pipeline compiler).  Every
#: operator in :data:`_BINARY_OPS` has an entry.
BINARY_OP_SOURCE: dict[str, str] = {
    op: {"=": "==", "<>": "!="}.get(op, op) for op in _BINARY_OPS
}

#: Public view of the NULL-propagating operator set (see
#: :data:`_ARITHMETIC_OPS`); comparison operators instead collapse NULL
#: operands to ``False``.
ARITHMETIC_OPS = _ARITHMETIC_OPS


def scalar_function(name: str) -> Optional[Callable[..., Any]]:
    """The scalar-function implementation for ``name``, or ``None``.

    Exposes the same table :class:`FunctionCall` dispatches through, so
    source-level code generators bind the identical (NULL-tolerant)
    callables instead of duplicating their semantics.
    """
    return _SCALAR_FUNCTIONS.get(name.lower())


def _batch_scalar(expression: "Expression") -> Optional[Callable[[], Any]]:
    """A per-batch scalar reader for literal/parameter operands, else None.

    Batch kernels fold these operands to one read per batch instead of
    broadcasting them into a full value array.
    """
    if isinstance(expression, Literal):
        value = expression.value
        return lambda: value
    if isinstance(expression, ParameterSlot):
        slots = expression.slots
        index = expression.index
        return lambda: slots[index]
    return None


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary arithmetic or comparison operation."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ExpressionError(f"unsupported binary operator {self.op!r}")

    def evaluate(self, row: Row) -> Any:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            # SQL three-valued logic collapsed to None/False for simplicity.
            return None if self.op in {"+", "-", "*", "/", "%"} else False
        return _BINARY_OPS[self.op](left, right)

    def compile(self) -> CompiledExpression:
        func = _BINARY_OPS[self.op]
        null_result = None if self.op in _ARITHMETIC_OPS else False
        # Fold literal operands into the closure: the common
        # ``column <op> constant`` shape then costs one lookup per row.
        if isinstance(self.right, Literal) and self.right.value is not None:
            left = self.left.compile()
            rhs_const = self.right.value

            def run(row: Row) -> Any:
                lhs = left(row)
                if lhs is None:
                    return null_result
                return func(lhs, rhs_const)

            return run
        if isinstance(self.left, Literal) and self.left.value is not None:
            right = self.right.compile()
            lhs_const = self.left.value

            def run(row: Row) -> Any:
                rhs = right(row)
                if rhs is None:
                    return null_result
                return func(lhs_const, rhs)

            return run
        left = self.left.compile()
        right = self.right.compile()

        def run(row: Row) -> Any:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return null_result
            return func(lhs, rhs)

        return run

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        func = _BINARY_OPS[self.op]
        null_result = None if self.op in _ARITHMETIC_OPS else False
        left_scalar = _batch_scalar(self.left)
        right_scalar = _batch_scalar(self.right)
        if left_scalar is not None and right_scalar is not None:

            def run_const(batch: Any) -> list:
                if batch.length == 0:
                    return []
                lhs = left_scalar()
                rhs = right_scalar()
                value = (
                    null_result
                    if lhs is None or rhs is None
                    else func(lhs, rhs)
                )
                return [value] * batch.length

            return run_const
        if right_scalar is not None:
            left = self.left.compile_batch(resolver)
            if left is None:
                return None

            def run_right_const(batch: Any) -> list:
                values = left(batch)
                rhs = right_scalar()
                if rhs is None:
                    return [null_result] * len(values)
                return [
                    null_result if v is None else func(v, rhs) for v in values
                ]

            return run_right_const
        if left_scalar is not None:
            right = self.right.compile_batch(resolver)
            if right is None:
                return None

            def run_left_const(batch: Any) -> list:
                values = right(batch)
                lhs = left_scalar()
                if lhs is None:
                    return [null_result] * len(values)
                return [
                    null_result if v is None else func(lhs, v) for v in values
                ]

            return run_left_const
        left = self.left.compile_batch(resolver)
        right = self.right.compile_batch(resolver)
        if left is None or right is None:
            return None

        def run(batch: Any) -> list:
            return [
                null_result if lhs is None or rhs is None else func(lhs, rhs)
                for lhs, rhs in zip(left(batch), right(batch))
            ]

        return run

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        op = "=" if self.op == "==" else self.op
        return f"{self.left.to_sql()} {op} {self.right.to_sql()}"

    def __repr__(self) -> str:
        return f"BinaryOp({self.op!r}, {self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class BooleanOp(Expression):
    """AND/OR over a sequence of boolean expressions."""

    op: str  # "and" | "or"
    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.op not in {"and", "or"}:
            raise ExpressionError(f"unsupported boolean operator {self.op!r}")
        if len(self.operands) < 2:
            raise ExpressionError("BooleanOp requires at least two operands")

    def evaluate(self, row: Row) -> Any:
        values = (bool(o.evaluate(row)) for o in self.operands)
        return all(values) if self.op == "and" else any(values)

    def compile(self) -> CompiledExpression:
        operands = tuple(o.compile() for o in self.operands)
        if self.op == "and":

            def run(row: Row) -> bool:
                for operand in operands:
                    if not operand(row):
                        return False
                return True

        else:

            def run(row: Row) -> bool:
                for operand in operands:
                    if operand(row):
                        return True
                return False

        return run

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        operands = []
        for operand in self.operands:
            kernel = operand.compile_batch(resolver)
            if kernel is None:
                return None
            operands.append(kernel)
        first, rest = operands[0], operands[1:]
        if self.op == "and":

            def run(batch: Any) -> list:
                result = [bool(v) for v in first(batch)]
                for kernel in rest:
                    values = kernel(batch)
                    result = [r and bool(v) for r, v in zip(result, values)]
                return result

        else:

            def run(batch: Any) -> list:
                result = [bool(v) for v in first(batch)]
                for kernel in rest:
                    values = kernel(batch)
                    result = [r or bool(v) for r, v in zip(result, values)]
                return result

        return run

    def referenced_columns(self) -> set[str]:
        cols: set[str] = set()
        for operand in self.operands:
            cols |= operand.referenced_columns()
        return cols

    def to_sql(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(o.to_sql() for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Boolean negation."""

    operand: Expression

    def evaluate(self, row: Row) -> Any:
        return not bool(self.operand.evaluate(row))

    def compile(self) -> CompiledExpression:
        operand = self.operand.compile()
        return lambda row: not operand(row)

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        operand = self.operand.compile_batch(resolver)
        if operand is None:
            return None
        return lambda batch: [not v for v in operand(batch)]

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL`` test."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: Row) -> Any:
        is_null = self.operand.evaluate(row) is None
        return not is_null if self.negated else is_null

    def compile(self) -> CompiledExpression:
        operand = self.operand.compile()
        if self.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        operand = self.operand.compile_batch(resolver)
        if operand is None:
            return None
        if self.negated:
            return lambda batch: [v is not None for v in operand(batch)]
        return lambda batch: [v is None for v in operand(batch)]

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.to_sql()} {suffix}"


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)`` membership test over literal values."""

    operand: Expression
    values: tuple[Any, ...]

    def evaluate(self, row: Row) -> Any:
        return self.operand.evaluate(row) in self.values

    def compile(self) -> CompiledExpression:
        operand = self.operand.compile()
        original = self.values
        try:
            values = frozenset(original)
        except TypeError:
            return lambda row: operand(row) in original

        def run(row: Row) -> bool:
            value = operand(row)
            try:
                return value in values
            except TypeError:
                # Unhashable row value: match the interpreter's tuple scan.
                return value in original

        return run

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        operand = self.operand.compile_batch(resolver)
        if operand is None:
            return None
        original = self.values
        try:
            values: Any = frozenset(original)
        except TypeError:
            values = None

        def run(batch: Any) -> list:
            out = []
            append = out.append
            for value in operand(batch):
                if values is None:
                    append(value in original)
                    continue
                try:
                    append(value in values)
                except TypeError:
                    append(value in original)
            return out

        return run

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        rendered = ", ".join(Literal(v).to_sql() for v in self.values)
        return f"{self.operand.to_sql()} IN ({rendered})"


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "upper": lambda v: v.upper() if v is not None else None,
    "lower": lambda v: v.lower() if v is not None else None,
    "abs": lambda v: abs(v) if v is not None else None,
    "length": lambda v: len(v) if v is not None else None,
    "coalesce": lambda *vs: next((v for v in vs if v is not None), None),
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call (e.g. ``upper(name)``, ``abs(x)``)."""

    name: str
    args: tuple[Expression, ...]

    def evaluate(self, row: Row) -> Any:
        func = _SCALAR_FUNCTIONS.get(self.name.lower())
        if func is None:
            raise ExpressionError(f"unknown scalar function {self.name!r}")
        return func(*(a.evaluate(row) for a in self.args))

    def compile(self) -> CompiledExpression:
        func = _SCALAR_FUNCTIONS.get(self.name.lower())
        if func is None:
            # Defer the "unknown function" error to call time, matching the
            # interpreter (which only fails once a row is evaluated).
            return self.evaluate
        args = tuple(a.compile() for a in self.args)
        return lambda row: func(*(a(row) for a in args))

    def compile_batch(
        self, resolver: BatchResolver | None = None
    ) -> Optional[BatchKernel]:
        func = _SCALAR_FUNCTIONS.get(self.name.lower())
        if func is None:
            # No lowering: the caller falls back to the row tier, which
            # surfaces the unknown-function error at evaluation time.
            return None
        kernels = []
        for arg in self.args:
            kernel = arg.compile_batch(resolver)
            if kernel is None:
                return None
            kernels.append(kernel)
        if not kernels:

            def run_no_args(batch: Any) -> list:
                if batch.length == 0:
                    return []
                return [func() for _ in range(batch.length)]

            return run_no_args

        def run(batch: Any) -> list:
            columns = [kernel(batch) for kernel in kernels]
            return [func(*values) for values in zip(*columns)]

        return run

    def referenced_columns(self) -> set[str]:
        cols: set[str] = set()
        for arg in self.args:
            cols |= arg.referenced_columns()
        return cols

    def to_sql(self) -> str:
        return f"{self.name}({', '.join(a.to_sql() for a in self.args)})"


def conjunction(predicates: Sequence[Expression]) -> Expression | None:
    """Combine ``predicates`` into a single AND expression.

    Returns ``None`` for an empty sequence and the lone predicate for a
    singleton, which keeps generated SQL tidy.
    """
    predicates = [p for p in predicates if p is not None]
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return BooleanOp("and", tuple(predicates))


def equals(column: str, value: Any, qualifier: str | None = None) -> BinaryOp:
    """Convenience constructor for ``column = value`` predicates."""
    return BinaryOp("=", ColumnRef(column, qualifier), Literal(value))
