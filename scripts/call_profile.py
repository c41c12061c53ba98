#!/usr/bin/env python
"""List the functions of ``src/repro`` that a deployment never enters.

A temporary ``sitecustomize`` first on ``PYTHONPATH`` puts a
``sys.setprofile`` hook in every Python process (the benchmark's load
generator and its server alike), which writes the code objects entered
at exit.  Runs ``python -m repro demo``, the four workloads of
``benchmarks/e2e/run.py --profile mini`` (from a temporary copy, so
results land there) and, with ``--full SECONDS``, full runs too.  Prints
each never-entered ``def`` per module, largest first by statement count
(nested defs apart, docstrings not counted): ``python scripts/call_profile.py``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("hot_overlap", "cold_scan", "write_storm", "mixed_classes")
HOOK = """import atexit, json, os, sys, threading
_codes = set()
def _profile(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)
def _dump():
    sys.setprofile(None)
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in _codes}
    with open(os.path.join(os.environ["CALL_PROFILE_OUT"], f"{os.getpid()}.json"), "w") as f:
        json.dump(sorted(entered), f)
atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
"""
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _statements(node: ast.AST) -> int:
    """Statements under ``node``, a nested def or class counting as one."""
    return sum(
        isinstance(child, ast.stmt)
        + (0 if isinstance(child, (*DEFS, ast.ClassDef)) else _statements(child))
        for child in ast.iter_child_nodes(node)
    )


def defs(source: str) -> dict[int, tuple[str, int]]:
    """``co_firstlineno`` (a decorated def's first decorator line) ->
    ``(qualified name, statements)`` for every def in ``source``."""
    found: dict[int, tuple[str, int]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (*DEFS, ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, DEFS):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                docstring = ast.get_docstring(child, clean=False) is not None
                found[first] = (name[:-1], _statements(child) - docstring)
            visit(child, name)

    visit(ast.parse(source), "")
    return found


def profile(commands: list[list[str]], cwd: Path) -> set[tuple[str, int]]:
    """Every ``(real path, first line)`` entered while running ``commands``."""
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        Path(hook, "sitecustomize.py").write_text(HOOK)
        path = os.pathsep.join(filter(None, (hook, str(SRC), os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, "CALL_PROFILE_OUT": out}
        for command in commands:
            print("$", " ".join(command), file=sys.stderr, flush=True)
            subprocess.run(command, cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL)
        return {tuple(e) for f in Path(out).iterdir() for e in json.loads(f.read_text())}


def report(entered: set[tuple[str, int]], package: Path = SRC / "repro") -> str:
    lines, missed, total = [], 0, 0
    for module in sorted(package.rglob("*.py")):
        real, found = os.path.realpath(module), defs(module.read_text())
        never = sorted((-n, line, name) for line, (name, n) in found.items()
                       if (real, line) not in entered)
        total += sum(n for _, n in found.values())
        missed -= sum(n for n, _, _ in never)
        if never:
            lines.append(str(module.relative_to(package.parent)))
            lines += [f"  {-n:4d}  {name}  (line {line})" for n, line, name in never]
    return "\n".join(lines + [f"never entered: {missed} of {total} statements in defs"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=4.0, help="each mini run")
    parser.add_argument("--full", type=float, metavar="SECONDS", help="add full runs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as copy:
        bench = Path(copy, "benchmarks", "e2e")
        shutil.copytree(ROOT / "benchmarks" / "e2e", bench, ignore=shutil.ignore_patterns("out"))
        Path(copy, "src").symlink_to(SRC)  # run.py imports ROOT / "src"
        run = [sys.executable, str(bench / "run.py"), "--trace", "0"]
        commands = [[sys.executable, "-m", "repro", "demo"]]
        for profile_name, seconds in (("mini", args.seconds), ("full", args.full)):
            commands += [run + ["--workload", w, "--profile", profile_name, "--seconds",
                                str(seconds)] for w in WORKLOADS if seconds]
        print(report(profile(commands, ROOT)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
