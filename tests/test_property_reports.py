"""A failing property test reports its falsifying example.

The suite runs with ``filterwarnings = ["error"]``.  A planted failing
``@given`` test, run in a subprocess under the repository's
``pyproject.toml`` and ``tests/conftest.py``, must fail as a test (exit
code 1) and print the example that broke it, not stop the session with
an INTERNALERROR (exit code 3).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

PLANTED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_planted(x):
    assert x < 5
'''


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-p", "no:cacheprovider",
            "-c", str(REPO / "pyproject.toml"),
            "--rootdir", str(tmp_path),
            "-p", "tests.conftest",
            "test_planted.py",
        ],
        cwd=tmp_path,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(REPO), str(REPO / "src")]),
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
