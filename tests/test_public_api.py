"""Release hygiene: every advertised name is importable and documented."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.aggregates",
    "repro.core.refresh",
    "repro.predicates",
    "repro.storage",
    "repro.bounds",
    "repro.replication",
    "repro.sql",
    "repro.simulation",
    "repro.faults",
    "repro.workloads",
    "repro.joins",
    "repro.extensions",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} is advertised but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_have_docstrings(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        obj = getattr(module, name)
        if not (isinstance(obj, type) or callable(obj)):
            continue
        if type(obj).__module__ == "typing":
            continue  # type aliases carry no docstrings
        assert getattr(obj, "__doc__", None), f"{package}.{name} has no docstring"


def test_version_string():
    import repro

    assert repro.__version__ == "1.0.0"


def test_quickstart_snippet_from_readme():
    """The README's quickstart code must keep working verbatim."""
    from repro import TrappSystem
    from repro.workloads import paper_master_table

    system = TrappSystem()
    source = system.add_source("node")
    source.add_table(paper_master_table())
    cache = system.add_cache("monitor")
    cache.subscribe_table(source, "links")
    system.clock.advance(60)
    answer = system.query(
        "monitor",
        "SELECT AVG(traffic) WITHIN 10 FROM links WHERE bandwidth > 50",
    )
    assert answer.width <= 10 + 1e-9


def test_executor_snippet_from_readme():
    """The README's executor quickstart runs verbatim: the statement's
    generator, ``table_steps``, driven by ``drive_steps``."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    (snippet,) = [block for block in blocks if "drive_steps(" in block]
    namespace: dict = {}
    exec(snippet, namespace)
    answer = namespace["answer"]
    assert answer.width <= 2.0 and answer.refreshed == {1}
