"""End-to-end molecular-screening benchmark.

Streams one workload's content-distinct data chunks through a single
``repro.pipeline.session.MatcherSession`` as a one-client closed loop:
the next chunk is sent only after the previous ``match()`` returned.

    python3 perfbench/run.py --workload zinc-findall --seed 0 --seconds 12 --trace 0

``--trace 0`` times the loop with nothing wrapped and prints the
end-to-end metrics, with times scaled to a reference host speed
(``reference.py``) next to the raw ones.  ``--trace 1`` runs the same loop, then repeats its
chunks on a fresh session with every layer boundary wrapped
(``layers.py``) and prints the per-layer metrics.  Both check the outputs
against the networkx oracle, content-distinctness and cache state; the
traced run also checks cross-layer invariants and that every count equals
the untraced pass.  The last line of standard output is one JSON object;
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Cold set-ups per run (each in a fresh interpreter); setup_s is their median.
SETUP_PROBES = 3
#: Stop a loop that is this many times over ``--seconds`` even below MIN_CHUNKS.
MAX_LOOP_FACTOR = 5
#: Timed chunks the oracle samples, and pairs per stratum in each.
ORACLE_CHUNKS = 3
ORACLE_PAIRS_PER_STRATUM = 3
#: File with the default seed's match totals per workload.
EXPECTED = HERE / "expected.json"

#: Layer times that are exactly zero on some workload or seed at the current
#: code (no BFS or refine step at one iteration, no DFS pair anywhere, few
#: or no fused pairs on hot-findall and tabular pairs on the zinc
#: workloads).  They are printed with the other figures but left out of the
#: JSON metrics, whose times must be measured values that vary by run.
REPORT_ONLY = frozenset(
    [f"filtering.refine.it{k}_s" for k in range(2, 7)]
    + ["signatures.bfs_s", "join.dfs_s", "fused.build_plan_s", "fused.join_s", "tabular.join_s"]
)

#: Deterministic per-chunk counts; traced and untraced passes must agree.
COUNT_KEYS = (
    "matches", "pairs", "candidates_init", "candidates_final", "pairs_joined",
    "matched_pairs", "candidate_visits", "edge_checks", "stack_pushes",
    "pairs_dfs", "pairs_tabular", "pairs_fused", "fused_tables", "resume_rounds",
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def chunk_counts(results) -> dict:
    """The deterministic counts of one chunk's resume chain."""
    first = results[0]
    fr = first.filter_result
    joins = [r.join_result for r in results]
    counts = {
        "matches": sum(r.total_matches for r in results),
        "pairs": first.gmcr.n_pairs,
        "candidates_init": fr.iterations[0].total_candidates,
        "candidates_final": fr.total_candidates,
        "pairs_joined": sum(j.stats.pairs_joined for j in joins),
        "matched_pairs": sum(int((j.pair_matches > 0).sum()) for j in joins),
        "candidate_visits": sum(j.stats.candidate_visits for j in joins),
        "edge_checks": sum(j.stats.edge_checks for j in joins),
        "stack_pushes": sum(j.stats.stack_pushes for j in joins),
        "fused_tables": sum(j.fused_tables for j in joins),
        "resume_rounds": len(results) - 1,
    }
    for backend in ("dfs", "tabular", "fused"):
        counts[f"pairs_{backend}"] = sum(j.backend_pairs[backend] for j in joins)
    return counts


def pair_matches(results):
    """(GMCR offsets, query index per pair, matches per pair) over a chain."""
    gmcr = results[0].gmcr
    total = sum(r.join_result.pair_matches for r in results)
    return gmcr.data_graph_offsets.copy(), gmcr.query_graph_indices.copy(), total


def cache_counts(session) -> dict:
    """Hit/miss counters of the session's artifact cache and the accel memos."""
    from repro.accel.memo import plan_memo, signature_memo

    sources = {
        "artifact": session.artifact_stats,
        "signature": signature_memo().stats,
        "plan": plan_memo().stats,
    }
    return {
        f"{name}_{kind}": getattr(stats, kind)
        for name, stats in sources.items()
        for kind in ("hits", "misses")
    }


def cold_violation(before: dict, after: dict, workload, rounds: int) -> str | None:
    """Why a chunk was served from a cache meant to be cold, or None.

    A chunk's first round must miss the artifact cache; of its
    signature-memo lookups only the query side (one per refine iteration)
    may hit, because the session compiles its queries once.  Every resume
    recalls the refine and map artifacts (two hits).  Both caches key on
    the data batch's content, which ``distinct_check`` shows is new.  The
    plan memo is keyed by per-query-node candidate counts instead, which
    two different chunks can share (on hot-findall, one iteration and
    three labels make them the chunk's label histogram), so its hits are
    reported as ``memo.plan_hit_ratio``, not failed.
    """
    d = {k: after[k] - before[k] for k in after}
    resumes = rounds - 1
    if d["artifact_hits"] != 2 * resumes or d["artifact_misses"] != 2:
        return f"artifact cache hits {d['artifact_hits']}, misses {d['artifact_misses']}"
    if d["signature_hits"] > workload.iterations - 1:
        return f"signature memo hits {d['signature_hits']}"
    return None


def run_loop(session, workload, inputs, budget, seconds: float, n_chunks: int | None, call=None):
    """Closed loop over chunks 0, 1, ...; returns one record per chunk.

    Runs exactly ``n_chunks`` chunks when given, else until ``seconds`` of
    ``match()`` time and at least MIN_CHUNKS chunks.  The traced pass
    (``call`` given) keeps every chunk and its results for the device
    model; the untraced pass keeps each chunk's content hash.  Each
    chunk's ``norm_seconds`` is its time scaled to the reference host
    speed (``reference.py``), from the kernel runs around it.
    """
    from reference import reference_seconds, speed_factor
    from repro.core.csrgo import CSRGO
    from workloads import MIN_CHUNKS, match_chain

    records = []
    refs = [reference_seconds()]
    measured = 0.0
    wall_start = time.perf_counter()
    i = 0
    while True:
        if n_chunks is not None:
            if i >= n_chunks:
                break
        elif (i >= MIN_CHUNKS and measured >= seconds) or (
            time.perf_counter() - wall_start > MAX_LOOP_FACTOR * seconds
        ):
            break
        chunk = inputs.chunk(i)
        before = cache_counts(session)
        error = None
        results = None
        t0 = time.perf_counter()
        try:
            results = match_chain(session, workload, chunk, budget, call)
        except Exception:  # a failing chunk is counted, and the loop goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        refs.append(reference_seconds())
        measured += elapsed
        record = {
            "seconds": elapsed,
            "molecules": len(chunk),
            "nodes": sum(g.n_nodes for g in chunk),
            "labels": set().union(*(g.labels.tolist() for g in chunk)),
            "error": error,
        }
        if call is None:
            record["hash"] = CSRGO.from_graphs(chunk).content_hash()
        elif results is not None:
            # Converted later, once the layer wrappers are removed.
            record["results"] = results
            record["chunk"] = chunk
        if results is not None:
            record["counts"] = chunk_counts(results)
            record["pairs"] = pair_matches(results)
            record["cold"] = cold_violation(before, cache_counts(session), workload, len(results))
        else:
            print(f"chunk {i} raised:\n{error}", file=sys.stderr)
        records.append(record)
        i += 1
    for i, record in enumerate(records):
        # Kernel times just before and after chunk i are refs[i] and refs[i + 1].
        record["norm_seconds"] = record["seconds"] * speed_factor(refs[max(0, i - 2) : i + 4])
    return records


def sample_chunks(records, rng) -> list[int]:
    """ORACLE_CHUNKS seeded picks among the chunks that completed."""
    done = [i for i, r in enumerate(records) if "pairs" in r]
    return sorted(int(i) for i in rng.choice(done, size=min(ORACLE_CHUNKS, len(done)), replace=False))


def oracle_check(workload, inputs, records, picked, rng) -> tuple[dict[int, str], int]:
    """Compare sampled per-pair counts with networkx.

    Returns the failures by chunk and the number of pairs compared.
    Samples matched, joined-but-empty and GMCR-pruned pairs from the
    picked chunks.  Find All compares exact embedding counts, Find First
    whether any embedding exists.
    """
    import numpy as np

    from repro.baselines.networkx_ref import networkx_count_matches, networkx_has_match
    from workloads import FIND_FIRST

    failures: dict[int, str] = {}
    checked = 0
    n_queries = len(inputs.queries)
    for i in picked:
        offsets, qidx, matches = records[i]["pairs"]
        chunk = inputs.chunk(i)
        engine = np.zeros((n_queries, len(chunk)), dtype=np.int64)
        in_gmcr = np.zeros_like(engine, dtype=bool)
        data_of_pair = np.repeat(np.arange(len(chunk)), np.diff(offsets))
        engine[qidx, data_of_pair] = matches
        in_gmcr[qidx, data_of_pair] = True
        strata = (engine > 0, in_gmcr & (engine == 0), ~in_gmcr)
        for stratum in strata:
            cells = np.argwhere(stratum)
            take = rng.permutation(len(cells))[:ORACLE_PAIRS_PER_STRATUM]
            for q, d in cells[take]:
                query, data = inputs.queries[q], chunk[d]
                if workload.mode == FIND_FIRST:
                    want = int(networkx_has_match(query, data))
                else:
                    want = networkx_count_matches(query, data)
                checked += 1
                if want != engine[q, d]:
                    failures[i] = f"pair (query {q}, graph {d}): engine {engine[q, d]}, networkx {want}"
    return failures, checked


def budget_check(session, workload, inputs, budget, records, picked) -> dict[int, str]:
    """Budgeted chains must add up to the unbudgeted run, pair by pair."""
    import numpy as np

    if budget is None:
        return {}
    failures = {}
    for i in picked:
        full = session.match(inputs.chunk(i), mode=workload.mode)
        _, _, chained = records[i]["pairs"]
        if not np.array_equal(full.join_result.pair_matches, chained):
            failures[i] = (
                f"budgeted chain found {int(chained.sum())} matches, "
                f"unbudgeted {full.total_matches}"
            )
    return failures


def distinct_check(inputs, records) -> str | None:
    """Timed chunks and the warm-up chunk must all differ in content."""
    from repro.core.csrgo import CSRGO

    hashes = [CSRGO.from_graphs(inputs.warmup).content_hash()]
    hashes += [r["hash"] for r in records]
    if len(set(hashes)) != len(hashes):
        return "two chunks (or a chunk and the warm-up chunk) have equal content"
    return None


def expected_check(workload, seed: int, records) -> str | None:
    """At the recorded seed, the first chunks' match total is fixed."""
    expected = json.loads(EXPECTED.read_text())
    prefix = expected["chunks"]
    if seed != expected["seed"] or len(records) < prefix:
        return None
    total = sum(r["counts"]["matches"] for r in records[:prefix] if "counts" in r)
    want = expected["matches"][workload.name]
    if total != want:
        return f"first {prefix} chunks found {total} matches, recorded {want}"
    return None


def measure_setup(workload: str, seed: int, budget) -> dict:
    """Median cold set-up over SETUP_PROBES fresh interpreters.

    The ``setup.*`` parts are raw seconds; ``setup_s`` scales each probe's
    total to the reference host speed measured in that probe.
    """
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--max-visits", str(budget.max_visits if budget else 0)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    parts = ("import_s", "session_s", "first_chunk_s")
    out = {k: statistics.median(r[k] for r in runs) for k in parts}
    out["raw_setup_s"] = statistics.median(sum(r[k] for k in parts) for r in runs)
    out["setup_s"] = statistics.median(sum(r[k] for k in parts) * r["speed"] for r in runs)
    return out


def new_session(workload, inputs, budget):
    """A session over the workload's queries, warmed with the warm-up chunk."""
    from repro.core.config import SigmoConfig
    from repro.pipeline.session import MatcherSession
    from workloads import match_chain

    session = MatcherSession(
        inputs.queries, SigmoConfig(refinement_iterations=workload.iterations)
    )
    match_chain(session, workload, inputs.warmup, budget)
    return session


def end_to_end(records, setup_s: float, key: str) -> dict:
    """The end-to-end metrics of the untraced timed loop.

    ``key`` is ``"norm_seconds"`` for times at the reference host speed
    (the metrics) or ``"seconds"`` for the raw wall clock (printed beside).
    """
    seconds = [r[key] for r in records]
    molecules = sum(r["molecules"] for r in records if r["error"] is None)
    return {
        "throughput_mol_s": (molecules / sum(seconds), "mol/s"),
        "chunk_p50_s": (statistics.median(seconds), "s"),
        "chunk_p75_s": (statistics.quantiles(seconds, n=4)[2], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_pass(workload, inputs, budget, n_chunks: int):
    """Repeat the timed chunks on a fresh, warmed session with layers wrapped."""
    from repro.accel.memo import clear_accel_caches
    from layers import LayerTimer

    clear_accel_caches()
    session = new_session(workload, inputs, budget)
    before = cache_counts(session)
    timer = LayerTimer()
    with timer.installed():
        records = run_loop(session, workload, inputs, budget, 0.0, n_chunks, call=timer.match)
    return session, timer, records, {k: v - before[k] for k, v in cache_counts(session).items()}


def model_seconds(session, records) -> dict:
    """Analytic device-model seconds per stage, via ``obs.profile``."""
    from repro.core.csrgo import CSRGO
    from repro.obs.profile import build_profile

    totals = {"filter": 0.0, "mapping": 0.0, "join": 0.0}
    for record in records:
        results = record.get("results")
        if not results:
            continue
        data = CSRGO.from_graphs(record["chunk"])
        for n, result in enumerate(results):
            gauges = build_profile(result, session.query, data).metrics.gauges
            for name, value in gauges.items():
                if not name.startswith("model.kernel_seconds."):
                    continue
                kernel = name.rsplit(".", 1)[1]
                stage = "filter" if kernel.startswith("filter") else kernel
                # Resumed rounds recall the filter and map artifacts.
                if stage == "join" or n == 0:
                    totals[stage] += value
    return totals


def per_layer(workload, inputs, timer, records, cache_delta, setup, untraced_s, model) -> dict:
    """Every per-layer figure of the traced pass (totals over its chunks)."""
    calls = timer.calls
    self_s = timer.self_s
    c = {k: sum(r["counts"][k] for r in records if "counts" in r) for k in COUNT_KEYS}
    n_data = sum(r["molecules"] for r in records)
    traced_s = sum(r["norm_seconds"] for r in records)

    def ratio(a, b):
        return a / b if b else 0.0

    s = "s"
    m = {
        "csrgo.convert_s": (self_s["csrgo.convert"], s),
        "filtering.init_s": (self_s["filtering.init"], s),
        "filtering.refine_s": (timer.refine_s(), s),
    }
    for k in range(2, 7):
        m[f"filtering.refine.it{k}_s"] = (self_s[f"filtering.refine.it{k}"], s)
    filter_s = self_s["filtering.init"] + timer.refine_s() + self_s["signatures.bfs"]
    m.update({
        "filtering.candidates_init": (c["candidates_init"], "count"),
        "filtering.candidates_final": (c["candidates_final"], "count"),
        "filtering.keep_ratio": (ratio(c["candidates_final"], c["candidates_init"]), "ratio"),
        "signatures.bfs_s": (self_s["signatures.bfs"], s),
        "mapping.gmcr_s": (self_s["mapping.gmcr"], s),
        "mapping.pairs": (c["pairs"], "count"),
        "mapping.viable_frac": (ratio(c["pairs"], len(inputs.queries) * n_data), "ratio"),
        "join.total_s": (timer.join_total_s, s),
        "join.plan_s": (timer.join_plan_s, s),
        "join.fold_s": (timer.join_fold_s, s),
        "join.compile_plans_s": (self_s["join.compile_plans"], s),
        "join.dfs_s": (self_s["join.dfs"], s),
        "join.dfs_calls": (calls["join_pair"], "count"),
        "join.pairs_joined": (c["pairs_joined"], "count"),
        "join.candidate_visits": (c["candidate_visits"], "count"),
        "join.edge_checks": (c["edge_checks"], "count"),
        "join.stack_pushes": (c["stack_pushes"], "count"),
        "join.matches": (c["matches"], "count"),
        "join.hit_ratio": (ratio(c["matched_pairs"], c["pairs_joined"]), "ratio"),
        "dispatch.choose_s": (self_s["dispatch.choose"], s),
        "dispatch.pairs.dfs": (c["pairs_dfs"], "count"),
        "dispatch.pairs.tabular": (c["pairs_tabular"], "count"),
        "dispatch.pairs.fused": (c["pairs_fused"], "count"),
        "fused.build_plan_s": (self_s["fused.build_plan"], s),
        "fused.join_s": (self_s["fused.join"], s),
        "fused.blocks": (calls["extend_fused_block"], "count"),
        "fused.tables": (c["fused_tables"], "count"),
        "tabular.join_s": (self_s["tabular.join"], s),
        "tabular.calls": (calls["tabular_join_pair"], "count"),
        "local_view.build_s": (self_s["local_view.build"], s),
        "memo.signature_hit_ratio": (
            ratio(cache_delta["signature_hits"],
                  cache_delta["signature_hits"] + cache_delta["signature_misses"]), "ratio"),
        "memo.plan_hit_ratio": (
            ratio(cache_delta["plan_hits"],
                  cache_delta["plan_hits"] + cache_delta["plan_misses"]), "ratio"),
        "pipeline.self_s": (self_s["pipeline"], s),
        "pipeline.artifact_hits": (cache_delta["artifact_hits"], "count"),
        "pipeline.artifact_misses": (cache_delta["artifact_misses"], "count"),
        "pipeline.resume_rounds": (c["resume_rounds"], "count"),
        "perf.measured_over_model.filter": (ratio(filter_s, model["filter"]), "ratio"),
        "perf.measured_over_model.mapping": (ratio(self_s["mapping.gmcr"], model["mapping"]), "ratio"),
        "perf.measured_over_model.join": (ratio(timer.join_total_s, model["join"]), "ratio"),
        "setup.import_s": (setup["import_s"], s),
        "setup.session_s": (setup["session_s"], s),
        "setup.first_chunk_s": (setup["first_chunk_s"], s),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    })
    return m


def invariants(workload, timer, records, metrics) -> list[str]:
    """Cross-counter invariants of the traced pass; returns violations."""
    v = lambda name: metrics[name][0]  # noqa: E731
    out = []
    dispatched = v("dispatch.pairs.dfs") + v("dispatch.pairs.tabular") + v("dispatch.pairs.fused")
    if not dispatched == v("join.pairs_joined") <= v("mapping.pairs"):
        out.append(
            f"dispatched pairs {dispatched}, joined {v('join.pairs_joined')}, "
            f"mapped {v('mapping.pairs')}"
        )
    for calls, pairs in (("tabular.calls", "dispatch.pairs.tabular"),
                         ("join.dfs_calls", "dispatch.pairs.dfs")):
        if v(calls) != v(pairs):
            out.append(f"{calls} {v(calls)} != {pairs} {v(pairs)}")
    if timer.calls["fused_join"] != v("fused.tables"):
        out.append(f"fused_join calls {timer.calls['fused_join']} != fused.tables {v('fused.tables')}")
    n_ok = sum(1 for r in records if "counts" in r)
    want = workload.iterations - 1
    if len(timer.refine_iterations) != n_ok or any(n != want for n in timer.refine_iterations):
        out.append(f"refine calls per chunk {sorted(set(timer.refine_iterations))}, want {want}")
    total_self = sum(timer.self_s.values())
    if abs(total_self - timer.match_s) > 1e-6 + 1e-9 * timer.match_s:
        out.append(f"layer self times sum to {total_self}, match() took {timer.match_s}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_CHECK", "").strip():
        return _fail("REPRO_CHECK is set; contract checks measure a different program")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy

    import repro
    from workloads import MIN_CHUNKS, WORKLOADS, Inputs, size_budget

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return _fail(f"imported repro from {repro.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    inputs = Inputs(workload, args.seed)
    budget = size_budget(workload, inputs)
    setup = measure_setup(workload.name, args.seed, budget)
    session = new_session(workload, inputs, budget)
    records = run_loop(session, workload, inputs, budget, args.seconds, None)
    n = len(records)

    # -- output checks (outside the timed loop) --------------------------------
    problems: list[str] = []
    chunk_failures = {i: f"raised: {r['error'].splitlines()[-1]}"
                      for i, r in enumerate(records) if r["error"]}
    for i, r in enumerate(records):
        if r.get("cold"):
            chunk_failures[i] = f"served warm: {r['cold']}"
    rng = numpy.random.default_rng([args.seed, 0x0AC1E])
    picked = sample_chunks(records, rng)
    oracle_failures, oracle_pairs = oracle_check(workload, inputs, records, picked, rng)
    chunk_failures.update(oracle_failures)
    chunk_failures.update(budget_check(session, workload, inputs, budget, records, picked))
    for problem in (distinct_check(inputs, records), expected_check(workload, args.seed, records)):
        if problem:
            problems.append(problem)
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads are running")

    if args.trace:
        t_session, timer, traced, cache_delta = traced_pass(workload, inputs, budget, n)
        for i, r in enumerate(traced):
            if r["error"]:
                chunk_failures[i] = "raised in the traced pass"
            elif "counts" in records[i] and r["counts"] != records[i]["counts"]:
                problems.append(f"chunk {i}: traced counts differ from the untraced pass")
            if r.get("cold"):
                chunk_failures[i] = f"served warm in the traced pass: {r['cold']}"
        untraced_s = sum(r["norm_seconds"] for r in records)
        model = model_seconds(t_session, traced)
        figures = per_layer(workload, inputs, timer, traced, cache_delta, setup, untraced_s, model)
        problems += invariants(workload, timer, traced, figures)
        metrics = {k: v for k, v in figures.items() if k not in REPORT_ONLY}
    else:
        metrics = end_to_end(records, setup["setup_s"], "norm_seconds")
        raw = end_to_end(records, setup["raw_setup_s"], "seconds")

    # -- report ------------------------------------------------------------------
    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload.name,
        "inputs": dict(
            workload.properties(),
            seed=args.seed,
            budget_max_visits=budget.max_visits if budget else None,
            query_nodes=sum(q.n_nodes for q in inputs.queries),
            chunks=n,
            data_graphs=sum(r["molecules"] for r in records),
            data_nodes=sum(r["nodes"] for r in records),
            labels=len(set().union(*(r["labels"] for r in records))),
        ),
        "timed_chunks": n,
        "prefix_matches": sum(r["counts"]["matches"] for r in records[:MIN_CHUNKS] if "counts" in r),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for i, why in sorted(chunk_failures.items()):
        print(f"FAILED chunk {i}: {why}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"oracle: {oracle_pairs} sampled pairs compared with networkx")
    print(f"chunks: {n} timed, {len(chunk_failures)} failed "
          f"(failed_frac {len(chunk_failures) / n:.4f})")
    if args.trace:
        for name, (value, unit) in figures.items():
            print(f"  {name:34s} {value:>16.6g} {unit}")
    else:
        print(f"  {'metric':34s} {'reference speed':>16s} {'raw':>12s}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:>16.6g} {raw[name][0]:>12.6g} {unit}")
    correct = not problems and not chunk_failures
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(chunk_failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
