"""Property suites for the language layers.

* SQL statement / predicate text round-trips through the parser;
* the symbolic endpoint transforms agree with direct three-valued
  evaluation on arbitrary predicates and rows (the two classification
  routes are interchangeable);
* classification is invariant under refresh *direction*: collapsing any
  tuple keeps it out of T? (refresh always decides membership).
"""

from hypothesis import given, settings, strategies as st

from repro.core.bound import Bound
from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
)
from repro.predicates.parser import parse_predicate
from repro.sql.parser import parse_statement
from repro.storage.row import Row
from repro.storage.schema import Schema

from tests.oracle.row_eval import Trilean, evaluate_trilean
from tests.oracle.transforms import certain, evaluate_endpoint, possible
from tests.property.strategies import bounds
from tests.protocol import classified, table_of, tids_at

columns = st.sampled_from(["a", "b", "c"])
operators = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])
numbers = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def comparisons(draw):
    left = ColumnRef(draw(columns))
    if draw(st.booleans()):
        right = Literal(draw(numbers))
    else:
        right = ColumnRef(draw(columns))
    return Comparison(left, draw(operators), right)


predicates = st.recursive(
    comparisons(),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
    ),
    max_leaves=6,
)


@st.composite
def rows(draw):
    return Row(
        1,
        {
            "a": draw(bounds()),
            "b": draw(bounds()),
            "c": draw(bounds()),
        },
    )


@settings(max_examples=150)
@given(predicates, rows())
def test_endpoint_transforms_agree_with_trilean(predicate, row):
    verdict = evaluate_trilean(predicate, row)
    is_certain = evaluate_endpoint(certain(predicate), row)
    is_possible = evaluate_endpoint(possible(predicate), row)
    # Soundness directions (the transforms may conservatively demote a
    # decided tuple to MAYBE, never the reverse).
    if is_certain:
        assert verdict is Trilean.TRUE
    if not is_possible:
        assert verdict is Trilean.FALSE
    if verdict is Trilean.TRUE:
        assert is_possible
    if verdict is Trilean.FALSE:
        assert not is_certain


@settings(max_examples=100)
@given(predicates)
def test_predicate_text_roundtrip(predicate):
    text = str(predicate)
    reparsed = parse_predicate(text)
    # Textual round-trip must preserve semantics; compare by evaluation on
    # a probe row (structure may differ through parenthesization).
    probe = Row(1, {"a": Bound(0, 1), "b": Bound(-2, 3), "c": Bound(5, 5)})
    assert evaluate_trilean(predicate, probe) is evaluate_trilean(reparsed, probe)


@settings(max_examples=100)
@given(
    st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN"]),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    predicates,
)
def test_sql_statement_roundtrip(aggregate, within, predicate):
    column = "*" if aggregate == "COUNT" else "a"
    text = f"SELECT {aggregate}({column}) WITHIN {within:g} FROM t WHERE {predicate}"
    stmt = parse_statement(text)
    again = parse_statement(str(stmt))
    assert stmt.aggregate == again.aggregate
    assert stmt.column == again.column
    assert stmt.tables == again.tables
    assert stmt.within == again.within
    probe = Row(1, {"a": Bound(0, 1), "b": Bound(-2, 3), "c": Bound(5, 5)})
    assert evaluate_trilean(stmt.predicate, probe) is evaluate_trilean(
        again.predicate, probe
    )


@settings(max_examples=80)
@given(predicates, st.lists(bounds(), min_size=1, max_size=6), st.data())
def test_refresh_always_decides_membership(predicate, value_bounds, data):
    table = table_of(
        (Row(i + 1, {"a": b, "b": b, "c": b}) for i, b in enumerate(value_bounds)),
        Schema.of(a="bounded", b="bounded", c="bounded"),
    )
    _, maybe = classified(table, predicate)
    for tid in tids_at(table, maybe):
        b = table.row(tid).bound("a")
        value = data.draw(st.floats(min_value=b.lo, max_value=b.hi))
        for column in "abc":
            table.update_value(tid, column, Bound.exact(value))
        _, still_maybe = classified(table, predicate)
        assert tid not in tids_at(table, still_maybe)
