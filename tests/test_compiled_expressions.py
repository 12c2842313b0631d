"""Equivalence of compiled expression evaluation and the interpreter.

The compiled fast path (``Expression.compile``) must agree with the
tree-walking interpreter (``Expression.evaluate``) on every node type —
including NULL semantics, qualified/unqualified column fallback, ambiguity
errors, and unknown-function errors — and the vectorized executor must
return exactly the rows of the interpreted executor on every query shape
the benchmarks use.
"""

from __future__ import annotations

import random

import pytest

from repro.db import algebra
from repro.db.executor import Executor
from repro.db.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Expression,
    ExpressionError,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Not,
)
from repro.db.sqlparser import parse_sql

ROWS = [
    {"a": 3, "b": 10, "name": "ann", "maybe": None, "t.a": 3, "t.flag": True},
    {"a": None, "b": -2, "name": "BOB", "maybe": 7, "t.a": None, "t.flag": False},
    {"a": 0, "b": 0, "name": "", "maybe": 0, "t.a": 0, "t.flag": False},
]


def assert_equivalent(expression: Expression, row: dict) -> None:
    """Compiled and interpreted evaluation agree on value or error type."""
    try:
        expected = expression.evaluate(row)
        failed = None
    except Exception as exc:  # noqa: BLE001 - comparing failure modes
        expected, failed = None, type(exc)
    compiled = expression.compile()
    if failed is None:
        assert compiled(row) == expected
        assert type(compiled(row)) is type(expected)
    else:
        with pytest.raises(failed):
            compiled(row)


class TestNodeEquivalence:
    @pytest.mark.parametrize("value", [1, 1.5, "x", None, True, [1, 2]])
    def test_literal(self, value):
        for row in ROWS:
            assert_equivalent(Literal(value), row)

    def test_column_ref_bare(self):
        for row in ROWS:
            assert_equivalent(ColumnRef("a"), row)
            assert_equivalent(ColumnRef("name"), row)

    def test_column_ref_qualified_present(self):
        for row in ROWS:
            assert_equivalent(ColumnRef("a", "t"), row)

    def test_column_ref_qualified_falls_back_to_bare(self):
        # Qualifier "z" never matches; the bare key resolves.
        for row in ROWS:
            assert_equivalent(ColumnRef("b", "z"), row)

    def test_column_ref_suffix_fallback(self):
        # "flag" only exists as the qualified key "t.flag".
        for row in ROWS:
            assert_equivalent(ColumnRef("flag"), row)

    def test_column_ref_missing_raises_both_ways(self):
        for row in ROWS:
            assert_equivalent(ColumnRef("nope"), row)
            assert_equivalent(ColumnRef("nope", "t"), row)

    def test_column_ref_ambiguous_raises_both_ways(self):
        row = {"x.c": 1, "y.c": 2}
        assert_equivalent(ColumnRef("c"), row)

    @pytest.mark.parametrize(
        "op", ["+", "-", "*", "/", "%", "=", "==", "!=", "<>", "<", "<=", ">", ">="]
    )
    def test_binary_ops_including_nulls(self, op):
        operands = [
            (ColumnRef("a"), ColumnRef("b")),
            (ColumnRef("a"), Literal(2)),
            (Literal(7), ColumnRef("maybe")),
            (Literal(None), ColumnRef("b")),
            (ColumnRef("maybe"), Literal(None)),
        ]
        for left, right in operands:
            for row in ROWS:
                assert_equivalent(BinaryOp(op, left, right), row)

    def test_boolean_ops(self):
        a = BinaryOp(">", ColumnRef("b"), Literal(0))
        b = IsNull(ColumnRef("maybe"))
        c = BinaryOp("=", ColumnRef("name"), Literal("ann"))
        for row in ROWS:
            assert_equivalent(BooleanOp("and", (a, b)), row)
            assert_equivalent(BooleanOp("or", (a, b, c)), row)
            assert_equivalent(Not(a), row)

    def test_is_null_and_negation(self):
        for row in ROWS:
            assert_equivalent(IsNull(ColumnRef("maybe")), row)
            assert_equivalent(IsNull(ColumnRef("maybe"), negated=True), row)

    def test_in_list(self):
        for row in ROWS:
            assert_equivalent(InList(ColumnRef("a"), (0, 3, 9)), row)
            assert_equivalent(InList(ColumnRef("name"), ("ann", "BOB")), row)
            assert_equivalent(InList(ColumnRef("maybe"), ()), row)

    def test_in_list_unhashable_values(self):
        # frozenset conversion must fall back for unhashable members.
        expr = InList(Literal([1]), ([1], [2]))
        for row in ROWS:
            assert_equivalent(expr, row)

    def test_function_calls(self):
        for row in ROWS:
            assert_equivalent(FunctionCall("upper", (ColumnRef("name"),)), row)
            assert_equivalent(FunctionCall("lower", (ColumnRef("name"),)), row)
            assert_equivalent(FunctionCall("abs", (ColumnRef("b"),)), row)
            assert_equivalent(FunctionCall("length", (ColumnRef("name"),)), row)
            assert_equivalent(
                FunctionCall("coalesce", (ColumnRef("maybe"), Literal(9))), row
            )

    def test_unknown_function_raises_at_call_time(self):
        expr = FunctionCall("median", (ColumnRef("a"),))
        compiled = expr.compile()  # must not raise eagerly
        with pytest.raises(ExpressionError):
            compiled(ROWS[0])


class TestPropertyStyleEquivalence:
    """Randomly generated expression trees agree on randomly generated rows."""

    COLUMNS = ["a", "b", "maybe", "name"]

    def _random_expression(self, rng: random.Random, depth: int) -> Expression:
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return ColumnRef(rng.choice(self.COLUMNS))
            return Literal(rng.choice([None, 0, 1, 7, -3, "ann", 2.5]))
        choice = rng.randrange(6)
        if choice == 0:
            op = rng.choice(["+", "-", "*", "=", "!=", "<", ">="])
            return BinaryOp(
                op,
                self._random_expression(rng, depth - 1),
                self._random_expression(rng, depth - 1),
            )
        if choice == 1:
            return BooleanOp(
                rng.choice(["and", "or"]),
                (
                    self._random_expression(rng, depth - 1),
                    self._random_expression(rng, depth - 1),
                ),
            )
        if choice == 2:
            return Not(self._random_expression(rng, depth - 1))
        if choice == 3:
            return IsNull(
                self._random_expression(rng, depth - 1),
                negated=rng.random() < 0.5,
            )
        if choice == 4:
            return InList(
                self._random_expression(rng, depth - 1), (0, 1, "ann", None)
            )
        return FunctionCall(
            "coalesce",
            (
                self._random_expression(rng, depth - 1),
                self._random_expression(rng, depth - 1),
            ),
        )

    def _random_row(self, rng: random.Random) -> dict:
        return {
            "a": rng.choice([None, 0, 1, 5, -2]),
            "b": rng.choice([None, 0, 3, 9]),
            "maybe": rng.choice([None, 2]),
            "name": rng.choice(["ann", "BOB", ""]),
        }

    def test_random_trees_match_interpreter(self):
        rng = random.Random(20260728)
        for _ in range(300):
            expression = self._random_expression(rng, depth=4)
            for _ in range(5):
                assert_equivalent(expression, self._random_row(rng))


#: Query shapes covering every operator the benchmark workloads execute.
BENCHMARK_QUERIES = [
    "select * from employee",
    "select * from employee e",
    "select * from employee where salary > 60",
    "select name, salary * 2 from employee where dept_id = 1",
    "select * from employee e join department d on e.dept_id = d.dept_id",
    "select e.name, d.dept_name from employee e "
    "join department d on e.dept_id = d.dept_id",
    "select e.name, d.dept_name from employee e "
    "join department d on d.dept_id = e.dept_id where e.salary > 60",
    "select dept_id, count(*), sum(salary), avg(salary) from employee "
    "group by dept_id",
    "select count(*) from employee where salary >= 65",
    "select name, salary from employee order by salary desc limit 3",
    "select * from employee where dept_id in (1, 2)",
    "select upper(name) from employee where salary is not null",
]


class TestExecutorModeEquivalence:
    """Vectorized and interpreted executors return identical rows in order."""

    @pytest.mark.parametrize("sql", BENCHMARK_QUERIES)
    def test_query_equivalence(self, simple_database, sql):
        plan = parse_sql(sql)
        interpreted = Executor(simple_database.tables, mode="interpreted")
        vectorized = Executor(simple_database.tables, mode="vectorized")
        assert vectorized.execute(plan) == interpreted.execute(plan)

    def test_join_of_filtered_scans(self, simple_database):
        plan = algebra.Join(
            algebra.Select(
                algebra.Scan("employee", "e"),
                BinaryOp(">", ColumnRef("salary", "e"), Literal(60)),
            ),
            algebra.Select(
                algebra.Scan("department", "d"),
                BinaryOp("=", ColumnRef("dept_name", "d"), Literal("eng")),
            ),
            BinaryOp("=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")),
        )
        interpreted = Executor(simple_database.tables, mode="interpreted")
        vectorized = Executor(simple_database.tables, mode="vectorized")
        assert vectorized.execute(plan) == interpreted.execute(plan)

    def test_reversed_equi_condition(self, simple_database):
        # Condition written right-side-first must join identically.
        plan = algebra.Join(
            algebra.Scan("employee", "e"),
            algebra.Scan("department", "d"),
            BinaryOp("=", ColumnRef("dept_id", "d"), ColumnRef("dept_id", "e")),
        )
        interpreted = Executor(simple_database.tables, mode="interpreted")
        vectorized = Executor(simple_database.tables, mode="vectorized")
        assert vectorized.execute(plan) == interpreted.execute(plan)

    def test_projected_join_pipelines_identically(self, simple_database):
        plan = algebra.Project(
            algebra.Join(
                algebra.Scan("employee", "e"),
                algebra.Scan("department", "d"),
                BinaryOp(
                    "=", ColumnRef("dept_id", "e"), ColumnRef("dept_id", "d")
                ),
            ),
            (
                algebra.OutputColumn(ColumnRef("name", "e"), "name"),
                algebra.OutputColumn(ColumnRef("dept_name", "d"), "dept"),
                algebra.OutputColumn(
                    BinaryOp("*", ColumnRef("salary", "e"), Literal(2)),
                    "double_salary",
                ),
            ),
        )
        interpreted = Executor(simple_database.tables, mode="interpreted")
        vectorized = Executor(simple_database.tables, mode="vectorized")
        assert vectorized.execute(plan) == interpreted.execute(plan)


class TestInListUnhashableRowValue:
    def test_unhashable_row_value_matches_interpreter(self):
        expr = InList(ColumnRef("x"), (1, 2, 3))
        row = {"x": [1]}
        assert expr.evaluate(row) is False
        assert expr.compile()(row) is False

    def test_unhashable_row_value_can_still_match(self):
        expr = InList(ColumnRef("x"), ([1], [2]))
        assert expr.evaluate({"x": [1]}) == expr.compile()({"x": [1]}) == True  # noqa: E712
        assert expr.evaluate({"x": [3]}) == expr.compile()({"x": [3]}) == False  # noqa: E712
