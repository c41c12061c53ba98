"""Unit tests for Row."""

import pytest

from repro.core.bound import Bound
from repro.errors import UnknownColumnError
from repro.storage.row import Row


class TestRow:
    def test_access(self):
        r = Row(1, {"a": 2.0, "t": "x"})
        assert r["a"] == 2.0
        assert r.get("missing") is None
        assert "a" in r
        assert set(r.keys()) == {"a", "t"}
        assert r.as_dict() == {"a": 2.0, "t": "x"}

    def test_unknown_column(self):
        r = Row(1, {"a": 2.0})
        with pytest.raises(UnknownColumnError):
            r["zzz"]

    def test_bound_lifts_numbers(self):
        r = Row(1, {"a": 2.0, "b": Bound(1, 3)})
        assert r.bound("a") == Bound.exact(2)
        assert r.bound("b") == Bound(1, 3)

    def test_number_collapses_exact_bounds(self):
        r = Row(1, {"a": Bound.exact(4), "b": Bound(1, 3), "c": 7})
        assert r.number("a") == 4.0
        assert r.number("c") == 7.0
        with pytest.raises(TypeError):
            r.number("b")

    def test_is_exact(self):
        r = Row(1, {"a": Bound.exact(4), "b": Bound(1, 3), "c": 7})
        assert r.is_exact("a")
        assert not r.is_exact("b")
        assert r.is_exact("c")

    def test_equality(self):
        assert Row(1, {"a": 2.0}) == Row(1, {"a": 2.0})
        assert Row(1, {"a": 2.0}) != Row(2, {"a": 2.0})
