"""Unit tests for the predicate tokenizer and parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.predicates.ast import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    TruePredicate,
)
from repro.predicates.parser import parse_predicate, tokenize


class TestTokenizer:
    def test_basic(self):
        tokens = list(tokenize("a >= 1.5 AND b < 2"))
        kinds = [t.kind for t in tokens]
        assert kinds == ["ident", "op", "number", "ident", "ident", "op", "number", "eof"]

    def test_diamond_operator_normalized(self):
        tokens = list(tokenize("a <> b"))
        assert tokens[1].text == "!="

    def test_strings(self):
        tokens = list(tokenize("ticker = 'IBM'"))
        assert tokens[2].kind == "string"
        assert tokens[2].text == "'IBM'"

    def test_unknown_character_raises(self):
        with pytest.raises(SqlSyntaxError):
            list(tokenize("a @ b"))

    def test_positions_recorded(self):
        tokens = list(tokenize("ab  <"))
        assert tokens[0].pos == 0
        assert tokens[1].pos == 4


class TestParser:
    def test_simple_comparison(self):
        p = parse_predicate("latency < 10")
        assert p == Comparison(ColumnRef("latency"), "<", Literal(10.0))

    def test_reversed_comparison(self):
        p = parse_predicate("10 < latency")
        assert p == Comparison(Literal(10.0), "<", ColumnRef("latency"))

    def test_qualified_column(self):
        p = parse_predicate("links.latency < 10")
        assert p == Comparison(
            ColumnRef("latency", table="links"), "<", Literal(10.0)
        )

    def test_and_or_precedence(self):
        p = parse_predicate("a < 1 OR b < 2 AND c < 3")
        # AND binds tighter than OR.
        assert isinstance(p, Or)
        assert isinstance(p.right, And)

    def test_parentheses_override(self):
        p = parse_predicate("(a < 1 OR b < 2) AND c < 3")
        assert isinstance(p, And)
        assert isinstance(p.left, Or)

    def test_not(self):
        p = parse_predicate("NOT a < 1")
        assert isinstance(p, Not)

    def test_true_literal(self):
        assert parse_predicate("TRUE") == TruePredicate()

    def test_linear_transform_scale(self):
        p = parse_predicate("2 * latency < 10")
        assert p == Comparison(
            ColumnRef("latency", scale=2.0), "<", Literal(10.0)
        )

    def test_linear_transform_offset(self):
        p = parse_predicate("latency + 1 < 10")
        assert p == Comparison(
            ColumnRef("latency", offset=1.0), "<", Literal(10.0)
        )

    def test_linear_transform_both(self):
        p = parse_predicate("2 * latency - 3 >= 7")
        assert p == Comparison(
            ColumnRef("latency", scale=2.0, offset=-3.0), ">=", Literal(7.0)
        )

    def test_negative_literal(self):
        p = parse_predicate("x < -5")
        assert p == Comparison(ColumnRef("x"), "<", Literal(-5.0))

    def test_column_to_column(self):
        p = parse_predicate("bandwidth > latency")
        assert p == Comparison(ColumnRef("bandwidth"), ">", ColumnRef("latency"))

    def test_string_comparison(self):
        p = parse_predicate("ticker = 'IBM'")
        assert p == Comparison(ColumnRef("ticker"), "=", Literal("IBM"))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_predicate("a < 1 banana")

    def test_missing_operator_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_predicate("a 1")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_predicate("(a < 1")

    def test_roundtrip_str_reparse(self):
        cases = [
            "latency < 10",
            "bandwidth > 50 AND latency < 10",
            "NOT (a < 1)",
            "a < 1 OR b >= 2 AND NOT c != 3",
        ]
        for text in cases:
            first = parse_predicate(text)
            again = parse_predicate(str(first))
            assert first == again
