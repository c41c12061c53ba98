"""``scripts/call_profile.py``: its def / statement count and its hook."""

from __future__ import annotations

import importlib.util
import os
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "call_profile", ROOT / "scripts" / "call_profile.py"
)
call_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_profile)

SAMPLE = textwrap.dedent(
    '''
    import functools

    def plain(x):
        """A docstring is not a statement."""
        y = x + 1
        return y

    class Box:
        def method(self):
            if self:
                for _ in range(2):
                    pass
            else:
                return None

            def inner():
                return 1

            return inner

        @functools.cache
        @staticmethod
        def cached():
            try:
                return 1
            except ValueError:
                raise

    async def coroutine():
        async with None:
            await None
    '''
)


def test_each_def_counts_its_statements_and_nested_defs_apart():
    assert call_profile.defs(SAMPLE) == {
        4: ("plain", 2),
        10: ("Box.method", 6),
        17: ("Box.method.inner", 1),
        22: ("Box.cached", 3),
        30: ("coroutine", 2),
    }


def test_the_report_lists_what_was_never_entered(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(SAMPLE)
    real = os.path.realpath(package / "mod.py")
    text = call_profile.report({(real, 4), (real, 10)}, package)
    assert text.splitlines() == [
        "pkg/mod.py",
        "     3  Box.cached  (line 22)",
        "     2  coroutine  (line 30)",
        "     1  Box.method.inner  (line 17)",
        "never entered: 6 of 14 statements in defs",
    ]


def test_the_hook_records_what_a_child_process_enters():
    entered = call_profile.profile(
        [[sys.executable, "-c", "from repro.core.bound import exact; exact(2.0)"]],
        ROOT,
    )
    bound = os.path.realpath(ROOT / "src" / "repro" / "core" / "bound.py")
    lines = {
        name: line
        for line, (name, _) in call_profile.defs(Path(bound).read_text()).items()
    }
    assert (bound, lines["exact"]) in entered
    assert (bound, lines["Bound.exact"]) in entered
    assert (bound, lines["Bound.hull"]) not in entered
