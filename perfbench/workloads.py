"""Seeded workload inputs for the end-to-end screening benchmark.

Every workload is a fixed query batch plus an unbounded stream of
content-distinct data chunks.  Chunk ``i`` is a pure function of
``(seed, workload, i)``, so a run can stream as many chunks as its time
allows and a second pass (or a second run) sees exactly the same inputs.
``match_chain`` is the workload's join policy: one ``match()``, or a
budgeted one resumed until the chunk is complete; ``size_budget`` sizes
the budget.
The warm-up chunk comes from the query-mining pool and is never one of
the streamed chunks.

Importing this module imports ``repro``; the setup probe times that
import before it imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.datasets import build_benchmark, zinc_like_molecules
from repro.core.config import SigmoConfig
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget
from repro.graph.generators import random_connected_graph, random_subgraph_pattern
from repro.pipeline.session import MatcherSession

#: Fewest timed chunks in a run: p75 then has ten samples beyond it.
MIN_CHUNKS = 40

#: Molecules the ZINC-like query miner draws from (its first chunk is the
#: warm-up chunk; all of it sizes zinc-budgeted's visit budget).
ZINC_QUERY_POOL = 200

#: Label-sparse graphs the hot-path query miner draws from.
HOT_QUERY_POOL = 12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input shape, join policy and why it exists."""

    name: str
    family: str  # "zinc" (molecules) or "hot" (label-sparse graphs)
    mode: str
    iterations: int
    n_queries: int
    chunk_size: int
    truncations: int  # budgeted cuts of a typical chunk; 0 runs unbudgeted
    reason: str

    def properties(self) -> dict:
        """Input properties that do not depend on the seed."""
        return {
            "family": self.family,
            "queries": self.n_queries,
            "chunk_size": self.chunk_size,
            "iterations": self.iterations,
            "mode": self.mode,
            "truncations": self.truncations,
            "reason": self.reason,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zinc-findall", "zinc", FIND_ALL, 6, 100, 50, 0,
            "the paper's main workload; refine, mapping, planning, fused "
            "extension and fold all carry time",
        ),
        Workload(
            "zinc-findfirst-wide", "zinc", FIND_FIRST, 6, 300, 10, 0,
            "graph-to-graph Find First over a wide query set: per-query "
            "mapping/planning work and the fused early exit",
        ),
        Workload(
            "hot-findall", "hot", FIND_ALL, 1, 80, 5, 0,
            "label-sparse 150-250-node graphs: the join is almost all the "
            "time and pairs go per-pair tabular; bypasses refine and mapping",
        ),
        Workload(
            "zinc-budgeted", "zinc", FIND_ALL, 6, 100, 25, 4,
            "zinc-findall's queries and molecules under a visit budget: each "
            "chunk truncates a few times and is resumed, as the serving layer does",
        ),
    )
}


def match_chain(session, workload: Workload, chunk, budget=None, call=None) -> list:
    """Match one chunk; under a budget, resume until the chain completes.

    Returns the ``MatchResult`` of every round.  ``call(fn, *args,
    **kwargs)`` invokes ``session.match`` (the traced pass passes its
    timer's root frame).
    """
    match = session.match if call is None else lambda *a, **k: call(session.match, *a, **k)
    results = [match(chunk, mode=workload.mode, join_budget=budget)]
    while results[-1].join_result.truncated:
        results.append(
            match(
                chunk,
                mode=workload.mode,
                join_budget=budget,
                join_start_pair=results[-1].join_result.resume_pair,
            )
        )
    return results


def size_budget(workload: Workload, inputs: "Inputs") -> JoinBudget | None:
    """The visit budget of a budgeted workload, or None.

    A throwaway session matches the query-mining pool unbudgeted, in
    chunk-sized pieces; the budget is their mean candidate visits over
    ``truncations + 1``, so a chunk is cut about ``truncations`` times
    however costly the seed's query set is.
    """
    if not workload.truncations:
        return None
    session = MatcherSession(
        inputs.queries, SigmoConfig(refinement_iterations=workload.iterations)
    )
    size = workload.chunk_size
    visits = [
        session.match(inputs.pool[i : i + size], mode=workload.mode)
        .join_result.stats.candidate_visits
        for i in range(0, len(inputs.pool), size)
    ]
    mean = sum(visits) / len(visits)
    return JoinBudget(max_visits=max(1, int(mean) // (workload.truncations + 1)))


def _stream_seed(seed: int, name: str, index: int) -> int:
    """Independent generator seed for chunk ``index`` of a workload."""
    tag = sum(ord(c) * 31**k for k, c in enumerate(name)) % (1 << 31)
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def _hot_graph(rng: np.random.Generator):
    return random_connected_graph(
        int(rng.integers(150, 250)),
        extra_edges=int(rng.integers(40, 80)),
        n_labels=3,
        rng=rng,
        n_edge_labels=2,
    )


class Inputs:
    """The generated inputs of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        # zinc-budgeted shares zinc-findall's queries and molecule stream.
        self._stream = "zinc" if workload.family == "zinc" else workload.name
        query_seed = _stream_seed(seed, self._stream + "/queries", 0)
        if workload.family == "zinc":
            ds = build_benchmark(
                n_queries=workload.n_queries,
                n_data_graphs=ZINC_QUERY_POOL,
                seed=query_seed,
            )
            self.queries = ds.queries
            self.pool = ds.data
        else:
            rng = np.random.default_rng(query_seed)
            pool = [_hot_graph(rng) for _ in range(HOT_QUERY_POOL)]
            self.queries = []
            for _ in range(workload.n_queries):
                host = pool[int(rng.integers(len(pool)))]
                pattern, _ = random_subgraph_pattern(host, int(rng.integers(4, 7)), rng)
                self.queries.append(pattern)
            self.pool = pool
        self.warmup = self.pool[: workload.chunk_size]

    def chunk(self, index: int) -> list:
        """Data chunk ``index``, generated afresh on every call.

        Chunks are not kept, so the process holds one chunk at a time and
        its peak memory does not grow with the number of chunks a run gets
        through.
        """
        s = _stream_seed(self.seed, self._stream, index)
        if self.workload.family == "zinc":
            return zinc_like_molecules(self.workload.chunk_size, seed=s)
        rng = np.random.default_rng(s)
        return [_hot_graph(rng) for _ in range(self.workload.chunk_size)]
