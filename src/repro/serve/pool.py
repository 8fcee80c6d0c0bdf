"""The warm session pool: fingerprint-keyed, replicated, rebuildable.

One :class:`PoolEntry` per registered query set, keyed by the query
batch's content hash (the multi-tenant "register once, match forever"
registry the ROADMAP asks for).  Each entry holds ``replicas`` session
*lanes* — independent :class:`~repro.pipeline.session.MatcherSession`
instances over the same compiled query CSR-GO — so one slow or broken
session never serializes a tenant's whole traffic:

* the router picks the least-loaded lane whose breaker admits traffic
  and which has no batch in flight;
* a lane whose breaker trips gets its session *rebuilt* (a fresh
  ``MatcherSession`` over the entry's query CSR-GO — cheap, because the
  lane reuses that batch object and the query signatures cached on it)
  while the breaker's cooldown routes traffic around it;
* per-lane straggler estimates (EWMA of observed-vs-predicted service
  time) feed back into deadline budgeting, so a slow lane gets smaller
  join budgets for the same wall-clock deadline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.graph.batch import GraphBatch
from repro.pipeline.session import MatcherSession
from repro.serve.breaker import CircuitBreaker
from repro.serve.deadline import Clock, Ewma


@dataclass
class LaneStats:
    """Dispatch counters of one session lane."""

    dispatches: int = 0
    failures: int = 0
    rebuilds: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view."""
        return {
            "dispatches": self.dispatches,
            "failures": self.failures,
            "rebuilds": self.rebuilds,
        }


class SessionLane:
    """One warm session plus its breaker, load state, and estimates."""

    def __init__(
        self,
        key: str,
        index: int,
        session: MatcherSession,
        breaker: CircuitBreaker,
    ) -> None:
        self.key = key
        self.index = index
        self.lane_id = f"{key[:12]}/{index}"
        self.session = session
        self.breaker = breaker
        self.busy = False
        #: Observed service-time factor vs. the cost model's prediction
        #: (1.0 = nominal; a straggler lane drifts above 1).
        self.slowdown = Ewma(1.0, alpha=0.4)
        self.stats = LaneStats()

    def available(self) -> bool:
        """Whether the router may dispatch to this lane now."""
        return not self.busy and self.breaker.allows()


class PoolEntry:
    """One registered query set: the compiled CSR-GO plus its lanes."""

    def __init__(
        self,
        key: str,
        query: CSRGO,
        config: SigmoConfig,
        lanes: list[SessionLane],
    ) -> None:
        self.key = key
        self.query = query
        self.config = config
        self.lanes = lanes
        self._next = 0

    def pick(self) -> SessionLane | None:
        """Least-recently-started available lane (round-robin tiebreak)."""
        n = len(self.lanes)
        for offset in range(n):
            lane = self.lanes[(self._next + offset) % n]
            if lane.available():
                self._next = (self._next + offset + 1) % n
                return lane
        return None

    def any_healthy_possible(self) -> bool:
        """Whether some lane is merely busy (vs. every breaker open)."""
        return any(lane.busy or lane.breaker.allows() for lane in self.lanes)


class SessionPool:
    """Registry of warm sessions keyed by query-set fingerprint.

    Parameters
    ----------
    clock:
        Service clock (drives the breakers).
    config:
        Default engine configuration for new sessions.
    replicas:
        Session lanes per registered query set.
    max_query_sets:
        LRU bound on retained registrations; the least-recently *used*
        entry is evicted past it (re-registering is cheap and
        deterministic, so eviction only costs warmth).
    breaker_threshold / breaker_cooldown_s:
        Per-lane breaker tuning.
    """

    def __init__(
        self,
        clock: Clock,
        config: SigmoConfig | None = None,
        replicas: int = 2,
        max_query_sets: int = 32,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 1.0,
        on_breaker_transition: "Callable[[float, str, str, str], None] | None" = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if max_query_sets < 1:
            raise ValueError("max_query_sets must be >= 1")
        self._clock = clock
        self.config = config or SigmoConfig()
        self.replicas = replicas
        self.max_query_sets = max_query_sets
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        #: Observability hook threaded into every lane breaker, called
        #: as ``(at_s, lane_id, old_state, new_state)`` on transitions.
        self.on_breaker_transition = on_breaker_transition
        self._entries: OrderedDict[str, PoolEntry] = OrderedDict()
        self.evictions = 0
        self.rebuilds = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- registration ------------------------------------------------------------

    def register(
        self, queries: Iterable | GraphBatch | CSRGO, config: SigmoConfig | None = None
    ) -> str:
        """Compile (or recall) a query set; returns its fingerprint key.

        Registering the same query contents twice returns the same key
        and reuses the existing warm lanes — the key is the CSR-GO
        content hash suffixed with the config's array backend, so it is
        stable across processes and restarts while sessions warmed on
        different backends never share an entry.
        """
        if isinstance(queries, CSRGO):
            query = queries
        else:
            batch = queries if isinstance(queries, GraphBatch) else GraphBatch(queries)
            if batch.n_graphs == 0:
                raise ValueError("at least one query graph is required")
            query = CSRGO.from_batch(batch)
        config = config or self.config
        key = f"{query.content_hash()}:{config.array_backend}"
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return key
        lanes = [
            self._build_lane(key, i, query, config) for i in range(self.replicas)
        ]
        self._entries[key] = PoolEntry(key, query, config, lanes)
        while len(self._entries) > self.max_query_sets:
            self._entries.popitem(last=False)
            self.evictions += 1
        return key

    def _build_lane(
        self, key: str, index: int, query: CSRGO, config: SigmoConfig
    ) -> SessionLane:
        session = MatcherSession(query, config=config)
        breaker = CircuitBreaker(
            self._clock,
            failure_threshold=self.breaker_threshold,
            cooldown_s=self.breaker_cooldown_s,
            name=f"{key[:12]}/{index}",
            on_transition=self.on_breaker_transition,
        )
        return SessionLane(key, index, session, breaker)

    # -- routing -----------------------------------------------------------------

    def entry(self, key: str) -> PoolEntry | None:
        """The pool entry for ``key`` (refreshing LRU recency)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def acquire(self, key: str) -> SessionLane | None:
        """An available lane for ``key``, marked busy — or ``None``.

        ``None`` means *no lane can take the batch right now*; use
        :meth:`PoolEntry.any_healthy_possible` to distinguish transient
        all-busy (wait) from every-breaker-open (reject ``unavailable``).
        """
        entry = self.entry(key)
        if entry is None:
            return None
        lane = entry.pick()
        if lane is not None:
            lane.busy = True
            lane.stats.dispatches += 1
        return lane

    def release(self, lane: SessionLane, ok: bool) -> None:
        """Return a lane after a dispatch; rebuild it on a breaker trip."""
        lane.busy = False
        if ok:
            lane.breaker.record_success()
            return
        lane.stats.failures += 1
        trips_before = lane.breaker.trips
        lane.breaker.record_failure()
        if lane.breaker.trips > trips_before:
            self.rebuild_lane(lane)

    def rebuild_lane(self, lane: SessionLane) -> None:
        """Replace a broken lane's session with a fresh warm one.

        The breaker state is deliberately *kept*: the fresh session still
        has to pass the half-open trial before full traffic returns (the
        failure may have been the workload's fault, not the session's).
        """
        entry = self._entries.get(lane.key)
        if entry is None:
            return
        lane.session = MatcherSession(entry.query, config=entry.config)
        lane.stats.rebuilds += 1
        self.rebuilds += 1

    # -- telemetry ---------------------------------------------------------------

    def occupancy(self) -> float:
        """Fraction of lanes with a batch in flight (0.0 when empty)."""
        lanes = [
            lane for entry in self._entries.values() for lane in entry.lanes
        ]
        if not lanes:
            return 0.0
        return sum(1 for lane in lanes if lane.busy) / len(lanes)

    def lane_snapshots(self) -> list[dict]:
        """Flat per-lane telemetry rows (the dashboard's lane table)."""
        return [
            {
                "lane": lane.lane_id,
                "busy": lane.busy,
                "slowdown": lane.slowdown.value,
                "breaker": lane.breaker.as_dict(),
                **lane.stats.as_dict(),
            }
            for entry in self._entries.values()
            for lane in entry.lanes
        ]

    def snapshot(self) -> dict:
        """Pool-wide telemetry (CLI, tests)."""
        return {
            "query_sets": len(self._entries),
            "evictions": self.evictions,
            "rebuilds": self.rebuilds,
            "occupancy": self.occupancy(),
            "lanes": {
                entry.key: [
                    {
                        "lane": lane.lane_id,
                        "busy": lane.busy,
                        "slowdown": lane.slowdown.value,
                        "breaker": lane.breaker.as_dict(),
                        **lane.stats.as_dict(),
                    }
                    for lane in entry.lanes
                ]
                for entry in self._entries.values()
            },
        }
