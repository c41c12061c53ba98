"""Every examples/ script must run to completion (ISSUE 2 satellite).

The examples double as living documentation; running each as a
subprocess (exactly how a reader would) keeps them from silently rotting
when APIs move.  The CLI demo rides along: it exercises the full
server/scheduler/client stack end to end.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def run_script(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        args,
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_examples_exist():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_clean(script: Path):
    result = run_script([sys.executable, str(script)])
    assert result.returncode == 0, (
        f"{script.name} exited {result.returncode}\n"
        f"stdout:\n{result.stdout[-2000:]}\nstderr:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"
    if script.name == "stock_ticker.py":
        # One plan per chooser built at its own epsilon.
        assert result.stdout.count(": plan cost") == 3


def test_cli_demo_smoke():
    result = run_script(
        [sys.executable, "-m", "repro", "demo", "--clients", "3",
         "--queries", "3", "--links", "30"]
    )
    assert result.returncode == 0, (
        f"demo exited {result.returncode}\nstdout:\n{result.stdout[-2000:]}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
    assert "0 errors" in result.stdout
