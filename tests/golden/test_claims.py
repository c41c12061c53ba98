"""The claims table, the golden file and ``docs/REPRODUCTION.md`` agree."""

from __future__ import annotations

import ast

from tests.golden.claims import (
    CLAIMS,
    REPO,
    REPRODUCTION_PATH,
    render_reproduction,
    write_reproduction,
)
from tests.golden.harness import UPDATE_MODE, load_values, store_values


def test_every_golden_key_belongs_to_one_claim():
    prefixes = [claim.prefix for claim in CLAIMS if claim.prefix]
    golden = load_values()
    if UPDATE_MODE:
        # A deleted claim row takes its keys with it.
        golden = {k: v for k, v in golden.items() if k.startswith(tuple(prefixes))}
        store_values(golden)
    for key in golden:
        owners = [prefix for prefix in prefixes if key.startswith(prefix)]
        assert len(owners) == 1, f"{key}: declared by {owners or 'no claim'}"
    for prefix in prefixes:
        assert any(key.startswith(prefix) for key in golden), (
            f"claim {prefix!r} has no golden value"
        )


def test_every_claim_names_an_existing_test():
    for claim in CLAIMS:
        path, *names = claim.test.split("::")
        assert (REPO / path).is_file(), claim.test
        body = ast.parse((REPO / path).read_text()).body
        for name in names:
            node = next(
                (
                    n
                    for n in body
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                    and n.name == name
                ),
                None,
            )
            assert node is not None, f"{claim.test}: no {name}"
            body = getattr(node, "body", [])


def test_reproduction_doc_is_the_rendering():
    if UPDATE_MODE:
        write_reproduction()
    assert REPRODUCTION_PATH.read_text() == render_reproduction(), (
        "docs/REPRODUCTION.md is stale: re-record with UPDATE_GOLDEN=1"
    )
