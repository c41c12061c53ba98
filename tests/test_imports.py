"""Every import in ``src/`` and ``tests/`` is used.

No linter is installed, so this is the check: a module's imported names
must each be read somewhere in that module — as a name, the root of an
attribute chain, inside a string annotation, or in the module's
``__all__`` (a package re-exporting its API).  A test function's
argument counts as a read, because pytest hands a fixture to the test by
the name the module imported it under.  An import statement whose first
line carries ``# noqa: F401`` is kept for its side effect (registering
MEDIAN) or as a name another module patches, and is not checked.
"""

from __future__ import annotations

import ast
import contextlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOTS = ("src", "tests")
NOQA_F401 = re.compile(r"#\s*noqa:[\w,\s]*\bF401\b")


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name each import binds → its line, ``__future__`` and
    ``# noqa: F401`` imports excluded."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.Import, ast.ImportFrom))
            and NOQA_F401.search(lines[node.lineno - 1])
        ):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def read_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, string annotations parsed."""
    used: set[str] = set()
    annotations: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and "__all__" in {
            getattr(target, "id", None) for target in node.targets
        }:
            used |= {
                leaf.value for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant)
            }
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                with contextlib.suppress(SyntaxError):
                    used |= read_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = read_names(tree)
    return sorted(
        (line, name)
        for name, line in imported_names(tree, source.splitlines()).items()
        if name not in used
    )


def test_unused_import_is_caught():
    planted = "import os\nfrom typing import Callable\n\n\ndef f() -> None:\n    pass\n"
    assert unused_imports(planted) == [(1, "os"), (2, "Callable")]
    used = (
        "import os.path\nfrom typing import Callable\n"
        "import m.registry  # noqa: F401 - registers\n"
        "__all__ = ['x']\nfrom m import x\n\n\n"
        "def f(cb: 'Callable[[], None]') -> None:\n    os.path.join()\n"
    )
    assert unused_imports(used) == []


def test_src_and_tests_import_nothing_unused():
    unused = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for root in ROOTS
        for path in sorted((REPO / root).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
