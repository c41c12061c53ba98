"""The metric catalog in ``docs/OBSERVABILITY.md`` is the registry's.

A deployment with every instrumented part — a replica group, the query
service and a wire server — registers its ``trapp_*`` families; the catalog's tables must name exactly those.  A family added
without a row, or a row left behind by a family that went, fails here.
"""

from __future__ import annotations

import asyncio
import re
from pathlib import Path

from repro.service import QueryService
from repro.service.server import serve
from tests.deployments import mixed_service_system

CATALOG = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
#: A table row naming a family: ``| `trapp_…` | type | labels | meaning |``.
ROW = re.compile(r"^\| `(trapp_\w+)` \|", re.MULTILINE)


def registered_families() -> set[str]:
    async def deploy() -> QueryService:
        system, cost_model = mixed_service_system()
        service = QueryService(system, cost_model=cost_model)
        server = await serve(service)
        await server.close()
        return service

    snapshot = asyncio.run(deploy()).telemetry.registry.snapshot()
    return {family["name"] for family in snapshot["families"]}


def test_catalog_names_every_registered_family_and_no_other():
    documented = set(ROW.findall(CATALOG.read_text()))
    registered = registered_families()
    assert registered, "the deployment registered no family"
    assert not registered - documented, "registered, not in the catalog"
    assert not documented - registered, "in the catalog, never registered"
