"""Load-driven elasticity for cache groups: grow and shrink from traffic.

The membership protocol (detach / snapshot admit /
:meth:`~repro.replication.sharding.ShardedSource.migrate_master`) makes a
:class:`~repro.replication.fanout.CacheGroup`'s topology a runtime
decision; :class:`GroupAutoscaler` closes the loop by *driving* it from
observed load.  The pressure signal is per-replica **admission pressure**:
queries the service routed to the group since the last control step,
divided by the member count — read straight off the service's
``trapp_routed_queries_total`` counters, so the autoscaler sees exactly
what the serving tier admitted (routed and pinned alike), not what
clients merely offered.

Control policy (deliberately classic — watermarks plus cooldown):

* pressure above ``high_watermark`` admits one snapshot-initialized
  joiner (``<group>/autoN``), up to ``max_replicas``;
* pressure below ``low_watermark`` drains and detaches the member that
  served the fewest queries in the window (cache-id tie-break), down to
  ``min_replicas``;
* actions are separated by at least ``cooldown`` simulated seconds, so
  one traffic spike cannot thrash membership faster than snapshots and
  drains settle.

Every action is recorded as a :class:`ScaleEvent` (time, direction,
cache, pressure, transfer cost) — the trajectory
``tests/golden/test_service_claims.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TrappError

__all__ = ["GroupAutoscaler", "ScaleEvent"]


@dataclass(frozen=True, slots=True)
class ScaleEvent:
    """One autoscaler action, for trajectories and tests."""

    at: float
    action: str  # "admit" | "detach"
    cache_id: str
    #: Per-replica admission pressure that triggered the action.
    pressure: float
    #: Members after the action took effect.
    members: int
    #: Snapshot transfer cost for admits (receipt total), 0.0 for detaches.
    transfer_cost: float = 0.0


class GroupAutoscaler:
    """Grow/shrink one cache group from observed admission pressure.

    Wraps a :class:`~repro.service.service.QueryService` and the group id
    it serves; call :meth:`step` at control-loop boundaries (between
    workload rounds, or on a timer in a live deployment).  The autoscaler
    owns only the replicas it admits (``<group>/auto0``, ``auto1``, …)
    plus detach rights over existing members; it never touches other
    groups or standalone caches.
    """

    def __init__(
        self,
        service,
        group_id: str,
        min_replicas: int = 1,
        max_replicas: int = 8,
        high_watermark: float = 8.0,
        low_watermark: float = 2.0,
        cooldown: float = 0.0,
        cost_model_factory=None,
    ) -> None:
        if min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if low_watermark > high_watermark:
            raise ValueError("low_watermark must be <= high_watermark")
        self.service = service
        self.group_id = group_id
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.cooldown = cooldown
        #: ``cache_id -> BatchedCostModel`` for replicas this autoscaler
        #: admits; ``None`` leaves them on the scheduler's default model.
        self.cost_model_factory = cost_model_factory
        self.events: list[ScaleEvent] = []
        self._joiner_serial = 0
        self._last_action_at: float | None = None
        #: Routed-counter totals at the previous step, per member.
        self._last_totals: dict[str, float] = {}

    # ------------------------------------------------------------------
    def _served_total(self, cache_id: str) -> float:
        """Queries the service has ever routed/pinned to one replica."""
        counter = self.service._c_routed
        return (
            counter.labels(cache=cache_id, mode="routed").value
            + counter.labels(cache=cache_id, mode="pinned").value
        )

    def _window_deltas(self) -> dict[str, float]:
        """Per-member served-query deltas since the previous step."""
        group = self.service.system.group(self.group_id)
        deltas: dict[str, float] = {}
        for cache_id in group.cache_ids():
            total = self._served_total(cache_id)
            deltas[cache_id] = total - self._last_totals.get(cache_id, 0.0)
        return deltas

    # ------------------------------------------------------------------
    async def step(self) -> "ScaleEvent | None":
        """One control-loop decision; returns the action taken, if any.

        Reads the window's admission pressure, applies the watermark
        policy, and — whether or not an action fired — rolls the window
        forward so the next step measures fresh traffic only.
        """
        system = self.service.system
        group = system.group(self.group_id)
        deltas = self._window_deltas()
        members = len(deltas)
        pressure = sum(deltas.values()) / members if members else 0.0
        now = system.clock.now()

        event: ScaleEvent | None = None
        in_cooldown = (
            self._last_action_at is not None
            and now - self._last_action_at < self.cooldown
        )
        if not in_cooldown:
            if pressure > self.high_watermark and members < self.max_replicas:
                event = self._admit(now, pressure, members)
            elif pressure < self.low_watermark and members > self.min_replicas:
                event = await self._detach(now, pressure, members, deltas)
        if event is not None:
            self.events.append(event)
            self._last_action_at = now

        self._last_totals = {
            cache_id: self._served_total(cache_id)
            for cache_id in system.group(self.group_id).cache_ids()
        }
        return event

    def _admit(self, now: float, pressure: float, members: int) -> ScaleEvent:
        system = self.service.system
        while True:
            cache_id = f"{self.group_id}/auto{self._joiner_serial}"
            self._joiner_serial += 1
            try:
                system.cache(cache_id)
            except TrappError:
                break  # id is free
        receipt = self.service.admit_replica(
            self.group_id,
            cache_id,
            cost_model=(
                self.cost_model_factory(cache_id)
                if self.cost_model_factory is not None
                else None
            ),
        )
        return ScaleEvent(
            at=now,
            action="admit",
            cache_id=cache_id,
            pressure=pressure,
            members=members + 1,
            transfer_cost=receipt.total_cost,
        )

    async def _detach(
        self,
        now: float,
        pressure: float,
        members: int,
        deltas: dict[str, float],
    ) -> ScaleEvent:
        # Shed the member that served the least this window: its sticky
        # clients are the fewest to re-stick, and under fan-out lockstep
        # its bound state is not special — any member's snapshot lives on
        # in the survivors.
        victim = min(deltas, key=lambda cid: (deltas[cid], cid))
        await self.service.detach_replica(self.group_id, victim)
        self._last_totals.pop(victim, None)
        return ScaleEvent(
            at=now,
            action="detach",
            cache_id=victim,
            pressure=pressure,
            members=members - 1,
        )
