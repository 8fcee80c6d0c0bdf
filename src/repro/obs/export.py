"""Trace and metrics exporters with byte-stable JSON encoding.

Two machine-readable formats leave the observability layer:

* **Chrome trace-event JSON** (:func:`chrome_trace`) — loadable in
  Perfetto / ``chrome://tracing``.  Spans become ``ph: "X"`` complete
  events; each tracer lane becomes one track (``tid``), named via
  ``ph: "M"`` ``thread_name`` metadata.  Timestamps default to the
  tracer's deterministic tick clock so two identical seeded runs export
  byte-identical traces; pass ``clock="wall"`` for wall-time traces.
* **``repro.metrics/1``** (:func:`metrics_payload`) — the flat metrics
  schema produced by :meth:`MetricsRegistry.as_dict`, wrapped with a
  context block (label, seed, workload) so benchmark baselines are
  self-describing.

All writers serialise via :func:`stable_json` — sorted keys, fixed
separators, trailing newline — making exports diff- and byte-comparable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry
from repro.obs.trace import Span, Tracer

#: Process id used for all lanes (the simulation is one process).
TRACE_PID = 0


def stable_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, newline-terminated."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# -- Chrome trace-event ---------------------------------------------------------


def chrome_trace(tracer: Tracer, clock: str = "tick") -> dict[str, Any]:
    """Render a tracer as a Chrome trace-event JSON object.

    ``clock="tick"`` (default) uses the deterministic tick counter as
    microseconds — byte-identical across seeded reruns.  ``clock="wall"``
    scales each span's wall-clock duration to microseconds (start times
    still come from tick ordering so nesting is preserved).
    """
    if clock not in ("tick", "wall"):
        raise ValueError(f"unknown trace clock {clock!r}")
    events: list[dict[str, Any]] = []
    tids = {lane: i for i, lane in enumerate(tracer.lanes)}
    for lane, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": lane},
            }
        )
    for span in tracer.spans:
        events.append(_span_event(span, tids[span.lane], clock))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock, "exporter": "repro.obs"},
    }


def _span_event(span: Span, tid: int, clock: str) -> dict[str, Any]:
    if clock == "wall":
        ts = float(span.start_tick)
        dur = max(span.wall_seconds * 1e6, 0.0)
    else:
        ts = float(span.start_tick)
        dur = float(max(span.duration_ticks, 1))
    args = {k: _json_safe(v) for k, v in span.attrs.items()}
    return {
        "ph": "X",
        "pid": TRACE_PID,
        "tid": tid,
        "ts": ts,
        "dur": dur,
        "name": span.name,
        "cat": span.category,
        "args": args,
    }


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars and other oddballs to plain JSON types."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def write_chrome_trace(tracer: Tracer, path: str | Path, clock: str = "tick") -> Path:
    """Write a Perfetto-loadable trace file; returns the path."""
    path = Path(path)
    path.write_text(stable_json(chrome_trace(tracer, clock=clock)))
    return path


def validate_chrome_trace(payload: dict[str, Any]) -> list[str]:
    """Schema-check a Chrome trace object; returns a list of problems.

    Checks the invariants Perfetto's JSON importer relies on: a
    ``traceEvents`` list, known phase codes, numeric ``ts``/``dur`` on
    complete events, and ``name``/``pid``/``tid`` presence.
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "B", "E", "i", "C"):
            problems.append(f"event {i}: unknown phase {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        if ph == "X":
            for key in ("ts", "dur"):
                if not isinstance(ev.get(key), (int, float)):
                    problems.append(f"event {i}: {key!r} not numeric")
            if ev.get("dur", 0) < 0:
                problems.append(f"event {i}: negative dur")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"event {i}: args not an object")
    return problems


# -- metrics payload ------------------------------------------------------------


def metrics_payload(
    registry: MetricsRegistry, context: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Wrap a registry's ``repro.metrics/1`` dict with a context block."""
    payload = registry.as_dict()
    payload["context"] = dict(context or {})
    return payload


def write_metrics(
    registry: MetricsRegistry,
    path: str | Path,
    context: dict[str, Any] | None = None,
) -> Path:
    """Write the metrics payload as stable JSON; returns the path."""
    path = Path(path)
    path.write_text(stable_json(metrics_payload(registry, context)))
    return path


def validate_metrics(payload: dict[str, Any]) -> list[str]:
    """Schema-check a ``repro.metrics/1`` payload; returns problems."""
    problems: list[str] = []
    if payload.get("schema") != METRICS_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, want {METRICS_SCHEMA!r}")
    for section in ("counters", "gauges"):
        block = payload.get(section)
        if not isinstance(block, dict):
            problems.append(f"{section} missing or not an object")
            continue
        for name, value in block.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{section}[{name!r}]: not numeric")
    hists = payload.get("histograms")
    if not isinstance(hists, dict):
        problems.append("histograms missing or not an object")
    else:
        for name, h in hists.items():
            if not isinstance(h, dict):
                problems.append(f"histograms[{name!r}]: not an object")
                continue
            for key in ("count", "sum", "min", "max", "buckets"):
                if key not in h:
                    problems.append(f"histograms[{name!r}]: missing {key!r}")
            problems.extend(_validate_histogram(name, h))
    if "context" in payload and not isinstance(payload["context"], dict):
        problems.append("context not an object")
    if not problems:
        problems.extend(_validate_cross_counters(payload["counters"], hists))
    return problems


def _validate_cross_counters(
    counters: dict[str, Any], hists: dict[str, Any]
) -> list[str]:
    """Invariants between counters of one run; each needs all its keys.

    * the join dispatched no more pairs than the GMCR holds:
      Σ ``join.backend_pairs.*`` ≤ ``gmcr.pairs``;
    * every fused pair rode exactly one fused table: the
      ``join.fused.pairs_per_table`` histogram's ``count`` equals
      ``join.fused.tables`` and its ``sum`` equals
      ``join.backend_pairs.fused`` — or, when ``join.truncated`` is set,
      is at least that (a table can carry pairs past the truncation
      point, which the join then leaves unfolded);
    * the filter stage ran once per refinement iteration:
      ``engine.stage_count.filter`` equals ``engine.filter_iterations``,
      or exceeds it by the one edge-aware pass of
      ``SigmoConfig.edge_signatures``.
    """
    problems: list[str] = []
    backend_pairs = {
        k: v for k, v in counters.items() if k.startswith("join.backend_pairs.")
    }
    if backend_pairs and "gmcr.pairs" in counters:
        dispatched = sum(backend_pairs.values())
        if dispatched > counters["gmcr.pairs"]:
            problems.append(
                f"join.backend_pairs.* sum to {dispatched} > "
                f"gmcr.pairs {counters['gmcr.pairs']}"
            )
    per_table = hists.get("join.fused.pairs_per_table")
    if isinstance(per_table, dict):
        fused = counters.get("join.backend_pairs.fused")
        carried = per_table.get("sum")
        if fused is not None and not (
            carried >= fused if "join.truncated" in counters else carried == fused
        ):
            problems.append(
                f"join.fused.pairs_per_table sum {carried} does not match "
                f"join.backend_pairs.fused {fused}"
            )
        tables = counters.get("join.fused.tables")
        if tables is not None and per_table.get("count") != tables:
            problems.append(
                f"join.fused.pairs_per_table count {per_table.get('count')} != "
                f"join.fused.tables {tables}"
            )
    filter_runs = counters.get("engine.stage_count.filter")
    iterations = counters.get("engine.filter_iterations")
    if filter_runs is not None and iterations is not None:
        if filter_runs - iterations not in (0, 1):
            problems.append(
                f"engine.stage_count.filter {filter_runs} != "
                f"engine.filter_iterations {iterations}"
            )
    return problems


def _validate_histogram(name: str, h: dict[str, Any]) -> list[str]:
    """Round-trip invariants of one serialised histogram.

    Beyond key presence: sparse buckets must be well-formed ``[index,
    count]`` pairs with strictly increasing indices and positive counts
    (bucket *monotonicity* — an out-of-order or duplicated index means
    the sparse encoding was corrupted); the bucket counts must sum to
    ``count``; explicit bound lists must be strictly ascending; and
    ``min``/``max``/``sum`` must be mutually consistent.
    """
    problems: list[str] = []
    buckets = h.get("buckets", [])
    if not isinstance(buckets, list):
        return [f"histograms[{name!r}]: buckets not a list"]
    bounds = h.get("bounds", "geometric")
    n_bounds: int | None = None
    if bounds == "geometric":
        n_bounds = None  # default layout, any index up to its width is fine
    elif isinstance(bounds, list):
        n_bounds = len(bounds)
        for i in range(1, len(bounds)):
            if not bounds[i - 1] < bounds[i]:
                problems.append(
                    f"histograms[{name!r}]: bounds not strictly ascending "
                    f"at position {i}"
                )
                break
    else:
        problems.append(f"histograms[{name!r}]: bounds neither 'geometric' nor a list")
    last_index = -1
    total = 0
    for i, pair in enumerate(buckets):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or isinstance(pair[0], bool)
            or isinstance(pair[1], bool)
            or not isinstance(pair[0], int)
            or not isinstance(pair[1], int)
        ):
            problems.append(
                f"histograms[{name!r}]: bucket {i} not an [index, count] "
                "integer pair"
            )
            continue
        index, count = pair
        if index <= last_index:
            problems.append(
                f"histograms[{name!r}]: bucket indices not strictly "
                f"increasing at {index}"
            )
        last_index = max(last_index, index)
        if n_bounds is not None and index > n_bounds:
            problems.append(
                f"histograms[{name!r}]: bucket index {index} beyond the "
                f"{n_bounds}-bound layout's overflow bucket"
            )
        if count <= 0:
            problems.append(
                f"histograms[{name!r}]: bucket {index} has non-positive "
                f"count {count} (empty buckets must be elided)"
            )
        else:
            total += count
    count = h.get("count")
    if isinstance(count, int) and not isinstance(count, bool):
        if total != count:
            problems.append(
                f"histograms[{name!r}]: bucket counts sum to {total} but "
                f"count is {count}"
            )
        lo, hi = h.get("min"), h.get("max")
        if (
            count > 0
            and isinstance(lo, (int, float))
            and isinstance(hi, (int, float))
            and lo > hi
        ):
            problems.append(f"histograms[{name!r}]: min {lo} > max {hi}")
        s = h.get("sum")
        if (
            count > 0
            and isinstance(s, (int, float))
            and isinstance(lo, (int, float))
            and isinstance(hi, (int, float))
            # float tolerance: sums accumulate rounding error
            and not (lo * count - 1e-9 <= s <= hi * count + 1e-9)
        ):
            problems.append(
                f"histograms[{name!r}]: sum {s} outside [min*count, "
                f"max*count]"
            )
    elif count is not None:
        problems.append(f"histograms[{name!r}]: count not an integer")
    return problems


def load_metrics(path: str | Path) -> dict[str, Any]:
    """Load and validate a metrics JSON file; raises ``ValueError`` on bad schema."""
    payload = json.loads(Path(path).read_text())
    problems = validate_metrics(payload)
    if problems:
        raise ValueError(
            f"{path}: not a valid {METRICS_SCHEMA} payload: " + "; ".join(problems[:5])
        )
    return payload
