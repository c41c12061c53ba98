"""The concurrent TRAPP query service (paper §8.2/§8.3 at serving scale).

The paper's Figure 3 architecture assumes many users issuing bounded
aggregate queries against shared caches; §8.2/§8.3 observe that refresh
cost should be amortized by batching requests to the same source.  This
package is the serving layer that realizes both observations:

* :class:`RefreshScheduler` — collects the refresh plans of every
  in-flight query per tick, deduplicates tuple ids, rebatches plans
  toward already-contacted sources, and dispatches one amortized batch
  per source — merging across queries *and* across the replicas of a
  :class:`~repro.replication.fanout.CacheGroup`, each source's batch
  travelling through the cheapest subscribed replica — so N concurrent
  queries wanting the same hot tuples trigger one refresh instead of N;
* :class:`QueryService` — admission control,
  sticky routing of group queries (:mod:`repro.service.routing`),
  and a short-TTL bounded-answer result cache (cache-scoped with a
  group-level shared tier, invalidated by dispatched refreshes) in
  front of the executor;
* :func:`serve` / :class:`TrappClient` — a newline-delimited-JSON wire
  protocol so multiple processes can issue TRAPP SQL concurrently.

Every layer reports into one :class:`~repro.telemetry.Telemetry`
(metrics registry + query tracer, PR 7), served over the wire by the
``metrics`` and ``trace`` ops — see ``docs/OBSERVABILITY.md``.
"""

from repro.service.client import ClientAnswer, TrappClient
from repro.service.results import ResultCache
from repro.service.routing import StickyRouter
from repro.service.scheduler import RefreshScheduler
from repro.service.server import TrappServer, serve
from repro.service.service import QueryService, ServiceResult

__all__ = [
    "RefreshScheduler",
    "ResultCache",
    "StickyRouter",
    "QueryService",
    "ServiceResult",
    "TrappServer",
    "serve",
    "TrappClient",
    "ClientAnswer",
]
