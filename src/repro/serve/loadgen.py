"""Closed-loop Zipf traffic generation for the matching service.

Molecular-search traffic is heavily skewed: a few reference compound
sets are matched over and over while a long tail is touched once.  The
generator models that with a Zipf draw over a *pool of data batches* —
and, crucially for the serving layer's warm path, repeated draws return
the *same list object*, so the session's identity-keyed conversion cache
hits, and with it the refine/map artifacts stored on the converted
batch, exactly as they would for a real repeated client.

The loop is *closed*: each simulated client submits, awaits the typed
response (optionally following resume chains of partial responses), then
issues its next request.  Offered load therefore adapts to service
capacity — the right model for benchmarking GoodPut under overload,
because an open loop would conflate queueing collapse with generator
pacing.  Everything is seeded; two runs with the same arguments submit
the identical request sequence per client.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.request import (
    STATUS_COMPLETE,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    MatchRequest,
    MatchResponse,
)
from repro.serve.service import MatchService


class ZipfSampler:
    """Seeded Zipf(``exponent``) draw over ``n`` items (rank 0 hottest).

    Probability of rank ``r`` is proportional to ``1 / (r + 1) **
    exponent``; ``exponent=0`` degenerates to uniform.
    """

    def __init__(
        self, n: int, exponent: float = 1.1, seed: int | list[int] = 0
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
        self._probs = weights / weights.sum()
        self._rng = np.random.default_rng(seed)
        self.n = n

    def sample(self) -> int:
        """Next item index."""
        return int(self._rng.choice(self.n, p=self._probs))


@dataclass
class LoadResult:
    """Aggregate outcome of one closed-loop load run."""

    responses: list[MatchResponse] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def n_requests(self) -> int:
        """Responses collected (resume-chain hops included)."""
        return len(self.responses)

    def count(self, status: str) -> int:
        """Responses with the given status."""
        return sum(1 for r in self.responses if r.status == status)

    @property
    def goodput(self) -> float:
        """Completed-or-partial responses per wall second."""
        served = self.count(STATUS_COMPLETE) + self.count(STATUS_PARTIAL)
        return served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_percentile(self, pct: float) -> float:
        """Latency percentile over non-rejected responses (0 when empty)."""
        lat = [r.latency_s for r in self.responses if r.status != STATUS_REJECTED]
        if not lat:
            return 0.0
        return float(np.percentile(np.asarray(lat), pct))

    def as_dict(self) -> dict:
        """JSON-ready summary (benchmarks, CLI)."""
        return {
            "n_requests": self.n_requests,
            "complete": self.count(STATUS_COMPLETE),
            "partial": self.count(STATUS_PARTIAL),
            "rejected": self.count(STATUS_REJECTED),
            "wall_seconds": self.wall_seconds,
            "goodput_rps": self.goodput,
            "latency_p50_s": self.latency_percentile(50),
            "latency_p99_s": self.latency_percentile(99),
        }


async def run_load(
    service: MatchService,
    query_key: str,
    batches: list[list],
    n_clients: int = 4,
    requests_per_client: int = 8,
    zipf_exponent: float = 1.1,
    deadline_s: float | None = None,
    max_retries: int = 2,
    follow_resume: bool = True,
    max_resume_hops: int = 32,
    seed: int = 0,
) -> LoadResult:
    """Drive ``n_clients`` closed-loop clients against a started service.

    Each client draws its batch from ``batches`` with a per-client-seeded
    Zipf sampler (``[seed, client]``), so the schedule is deterministic
    per client regardless of interleaving.  Partial responses are
    followed up to ``max_resume_hops`` resume submissions when
    ``follow_resume`` (each hop is its own response in the result).

    Wall time is measured on the *service clock*, so a
    :class:`~repro.serve.deadline.ManualClock` run reports virtual
    throughput.
    """
    import asyncio

    result = LoadResult()
    clock = service._clock

    async def client(idx: int) -> list[MatchResponse]:
        sampler = ZipfSampler(
            len(batches), exponent=zipf_exponent, seed=[seed, idx]
        )
        out: list[MatchResponse] = []
        for _ in range(requests_per_client):
            data = batches[sampler.sample()]
            response = await service.submit(
                MatchRequest(
                    query_key=query_key,
                    data=data,
                    deadline_s=deadline_s,
                    max_retries=max_retries,
                )
            )
            out.append(response)
            hops = 0
            while (
                follow_resume
                and response.status == STATUS_PARTIAL
                and hops < max_resume_hops
            ):
                response = await service.submit(
                    MatchRequest(
                        query_key=query_key,
                        data=data,
                        deadline_s=deadline_s,
                        max_retries=max_retries,
                        resume=response.resume,
                    )
                )
                out.append(response)
                hops += 1
        return out

    started = clock.now()
    per_client = await asyncio.gather(
        *[client(i) for i in range(n_clients)]
    )
    result.wall_seconds = clock.now() - started
    for responses in per_client:
        result.responses.extend(responses)
    return result
