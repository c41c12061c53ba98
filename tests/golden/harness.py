"""Golden values: every number the docs quote, recomputed on each run.

One committed file (``tests/golden/values.json``), one class, one
switch.  A test receives a :class:`GoldenValues` through the ``golden``
fixture and calls ``golden.check(key, value, tolerance=)`` for each
number it measures; the claims table (``tests/golden/claims.py``) says
which key prefixes belong to which test.  ``UPDATE_GOLDEN=1`` in the
environment re-records instead of comparing — the harness's only option.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

VALUES_PATH = Path(__file__).resolve().parent / "values.json"

#: The one re-record switch: ``UPDATE_GOLDEN=1 python -m pytest tests/golden``
#: rewrites ``values.json`` and ``docs/REPRODUCTION.md`` from what ran.
UPDATE_MODE = os.environ.get("UPDATE_GOLDEN", "") == "1"


def load_values() -> dict:
    return json.loads(VALUES_PATH.read_text())


def store_values(values: dict) -> None:
    """Byte-stable: sorted keys, shortest round-trip float repr."""
    VALUES_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")


def _plain(value):
    """``value`` as JSON holds it: bool, int, float, or a list of those."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.item() if hasattr(value, "item") else value


def _within(value, golden, tolerance: float) -> bool:
    if isinstance(golden, list):
        return (
            isinstance(value, list)
            and len(value) == len(golden)
            and all(_within(v, g, tolerance) for v, g in zip(value, golden))
        )
    if tolerance == 0.0 or isinstance(golden, bool):
        return value == golden and type(value) is type(golden)
    return abs(value - golden) <= tolerance * abs(golden)


class GoldenValues:
    """Track and validate key statistics against a committed golden file.

    Normal mode compares every ``check(key, value, tolerance)`` call
    against the stored entry and fails at once on a drift, a missing key
    or a changed tolerance; update mode re-records the observed values
    for :meth:`save` to write back.  ``prefixes`` are the key
    prefixes the running test owns (from the claims table): a key
    outside them is refused, and update mode drops the owned keys before
    the test runs, so a key the test stopped checking leaves the file.
    """

    def __init__(self, prefixes: tuple[str, ...] = ()) -> None:
        self.update_mode = UPDATE_MODE
        self.prefixes = prefixes
        self._golden = load_values()
        if self.update_mode:
            for key in [k for k in self._golden if k.startswith(prefixes)]:
                del self._golden[key]

    def check(self, key: str, value, tolerance: float = 0.0) -> None:
        """Validate ``value`` against the golden entry for ``key``.

        ``tolerance`` is relative — ``|value − golden| ≤ tolerance ·
        |golden|`` — and 0 means ``==`` (same type, too: ``3`` is not
        ``3.0``).  A list is compared element by element.
        """
        assert key.startswith(self.prefixes), (
            f"{key}: no claims-table row of this test declares the prefix "
            f"(owned: {self.prefixes})"
        )
        value = _plain(value)
        if self.update_mode:
            self._golden[key] = {"tolerance": tolerance, "value": value}
            return
        entry = self._golden.get(key)
        assert entry is not None, (
            f"{key}: no golden value recorded (re-record with UPDATE_GOLDEN=1)"
        )
        assert entry["tolerance"] == tolerance, (
            f"{key}: tolerance {tolerance} differs from the recorded "
            f"{entry['tolerance']} (re-record with UPDATE_GOLDEN=1)"
        )
        assert _within(value, entry["value"], tolerance), (
            f"{key}: {value!r} drifted from golden {entry['value']!r} "
            f"(relative tolerance {tolerance})"
        )

    def save(self) -> None:
        store_values(self._golden)
