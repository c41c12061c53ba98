"""Sticky query routing across a replication fan-out group.

With one cache per deployment, "which cache answers this query" was not a
question.  A :class:`~repro.replication.fanout.CacheGroup` makes it one:
a sticky mapping keeps one client's repeat queries on bounds its own
earlier refreshes tightened.

The service routes only *group* queries (``service.query(group_id, …)``);
naming a concrete cache id still pins that cache, so deployments can mix
routed and pinned traffic.

Membership is *elastic* (detach / snapshot admit), and the router's
contract with it is the candidate list itself: the service passes only
the replicas currently serving the table — draining replicas excluded —
so a detached replica's clients land on survivors on their next query
with no router-side state to reconcile, and an admitted joiner becomes
routable the moment it enters the group registry.  Placement is derived
from the candidate list presented *per call*, never from remembered
membership.
"""

from __future__ import annotations

import zlib
from typing import Sequence

from repro.replication.cache import DataCache

__all__ = ["StickyRouter"]


class StickyRouter:
    """One client, one cache: hash the client id over the replicas.

    CRC-32 rather than :func:`hash` — Python string hashing is salted per
    process and routing must be reproducible across runs and servers.

    Stickiness is modulo the *current* candidate list, so a membership
    change (detach, admit) re-sticks every client deterministically over
    the survivors — clients of a departed replica redistribute instead of
    erroring, at the price of some clients landing on a replica whose
    bounds their own refreshes never tightened (fan-out lockstep makes
    that costless within a group).
    """

    def route(self, candidates: Sequence[DataCache], client_id: str) -> DataCache:
        """The replica for one client; ``candidates`` is never empty."""
        return candidates[zlib.crc32(client_id.encode()) % len(candidates)]
