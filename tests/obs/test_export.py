"""Exporters: Chrome trace-event JSON and the ``repro.metrics/1`` payload."""

import dataclasses
import json

import numpy as np
import pytest

from repro.obs.export import (
    chrome_trace,
    load_metrics,
    metrics_payload,
    stable_json,
    validate_chrome_trace,
    validate_metrics,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import METRICS_SCHEMA, Histogram, MetricsRegistry
from repro.obs.trace import Tracer

pytestmark = pytest.mark.obs


def demo_tracer() -> Tracer:
    """A small deterministic tracer: two lanes, nested spans, odd attrs."""
    t = Tracer()
    with t.span("run", category="engine", mode="find-all"):
        with t.span("stage:filter", category="stage", iters=np.int64(3)):
            with t.span("kernel:refine", category="kernel", work=np.float32(1.5)):
                pass
        with t.lane("rank-0"):
            with t.span("rank:0", category="cluster", rank=0):
                pass
    return t


class TestChromeTrace:
    def test_schema_valid(self):
        payload = chrome_trace(demo_tracer())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["clock"] == "tick"

    def test_one_thread_name_metadata_event_per_lane(self):
        payload = chrome_trace(demo_tracer())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert [e["args"]["name"] for e in meta] == ["main", "rank-0"]
        assert len({e["tid"] for e in meta}) == 2
        # Every span event lands on a declared lane track.
        tids = {e["tid"] for e in meta}
        assert all(
            e["tid"] in tids for e in payload["traceEvents"] if e["ph"] == "X"
        )

    def test_span_events_carry_json_safe_attrs(self):
        payload = chrome_trace(demo_tracer())
        by_name = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
        assert by_name["stage:filter"]["args"]["iters"] == 3
        assert by_name["kernel:refine"]["args"]["work"] == pytest.approx(1.5)
        assert by_name["stage:filter"]["cat"] == "stage"
        # Must serialise without a custom encoder.
        json.dumps(payload)

    def test_tick_clock_is_byte_identical_across_runs(self):
        a = stable_json(chrome_trace(demo_tracer()))
        b = stable_json(chrome_trace(demo_tracer()))
        assert a == b

    def test_tick_events_nest_in_time(self):
        payload = chrome_trace(demo_tracer())
        spans = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
        run, stage = spans["run"], spans["stage:filter"]
        assert run["ts"] < stage["ts"]
        assert stage["ts"] + stage["dur"] < run["ts"] + run["dur"]
        assert all(e["dur"] >= 1 for e in spans.values())

    def test_wall_clock_mode(self):
        payload = chrome_trace(demo_tracer(), clock="wall")
        assert payload["otherData"]["clock"] == "wall"
        assert validate_chrome_trace(payload) == []
        for e in payload["traceEvents"]:
            if e["ph"] == "X":
                assert e["dur"] >= 0.0

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError):
            chrome_trace(demo_tracer(), clock="cpu")

    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(demo_tracer(), tmp_path / "trace.json")
        text = path.read_text()
        assert text.endswith("\n")
        assert validate_chrome_trace(json.loads(text)) == []

    def test_validator_catches_malformed_payloads(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 0, "tid": 0},
                {"ph": "X", "pid": 0, "tid": 0, "ts": "soon", "dur": -1},
                {"ph": "X", "name": "y", "pid": 0, "tid": 0, "ts": 0, "dur": 1,
                 "args": []},
                "not-an-object",
            ]
        }
        problems = validate_chrome_trace(bad)
        assert any("unknown phase" in p for p in problems)
        assert any("missing 'name'" in p for p in problems)
        assert any("'ts' not numeric" in p for p in problems)
        assert any("negative dur" in p for p in problems)
        assert any("args not an object" in p for p in problems)
        assert any("not an object" in p for p in problems)


class TestMetricsPayload:
    def registry(self) -> MetricsRegistry:
        m = MetricsRegistry()
        m.count("engine.matches", 7)
        m.gauge("engine.total_seconds", 0.25)
        m.observe("join.pair_matches", 2.0)
        return m

    def test_payload_wraps_registry_with_context(self):
        payload = metrics_payload(self.registry(), {"seed": 0})
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["context"] == {"seed": 0}
        assert validate_metrics(payload) == []

    def test_write_and_load_roundtrip(self, tmp_path):
        path = write_metrics(self.registry(), tmp_path / "m.json", {"seed": 1})
        loaded = load_metrics(path)
        assert loaded == metrics_payload(self.registry(), {"seed": 1})
        assert path.read_text().endswith("\n")

    def test_load_rejects_invalid_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "counters": {}}))
        with pytest.raises(ValueError, match="not a valid"):
            load_metrics(path)

    def test_validator_catches_bad_sections(self):
        problems = validate_metrics(
            {
                "schema": METRICS_SCHEMA,
                "counters": {"ok": 1, "bad": "x", "worse": True},
                "gauges": [],
                "histograms": {"h": {"count": 1}},
                "context": "nope",
            }
        )
        assert any("counters['bad']" in p for p in problems)
        assert any("counters['worse']" in p for p in problems)
        assert any("gauges missing or not an object" in p for p in problems)
        assert any("missing 'sum'" in p for p in problems)
        assert any("context not an object" in p for p in problems)


class TestHistogramValidation:
    """Bucket-monotonicity and sum/min/max consistency of serialised histograms.

    Property-style: any honestly serialised histogram — random values,
    random bucket layouts — must validate clean, and every single-field
    corruption of it must be flagged.
    """

    def payload(self, hist_dict):
        return {
            "schema": METRICS_SCHEMA,
            "counters": {},
            "gauges": {},
            "histograms": {"h": hist_dict},
        }

    def test_any_honest_histogram_validates_clean(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            if trial % 2:
                buckets = sorted(
                    set(rng.uniform(0.001, 10.0, size=rng.integers(1, 8)))
                )
                h = Histogram("h", buckets=buckets)
            else:
                h = Histogram("h")  # default geometric layout
            for v in rng.uniform(0.0, 20.0, size=int(rng.integers(0, 50))):
                h.observe(float(v))
            assert validate_metrics(self.payload(h.as_dict())) == [], (
                f"trial {trial} produced spurious problems"
            )

    def corrupted(self, mutate):
        h = Histogram("h", buckets=[0.01, 0.1, 1.0])
        for v in (0.005, 0.05, 0.5, 5.0, 0.05):
            h.observe(v)
        d = h.as_dict()
        mutate(d)
        return validate_metrics(self.payload(d))

    def test_non_monotonic_bucket_indices_flagged(self):
        problems = self.corrupted(
            lambda d: d["buckets"].__setitem__(0, [3, 1])
        )
        assert any("not strictly increasing" in p for p in problems)

    def test_bucket_index_beyond_layout_flagged(self):
        problems = self.corrupted(
            lambda d: d["buckets"].append([9, 1])
        )
        assert any("beyond" in p for p in problems)

    def test_count_mismatch_flagged(self):
        problems = self.corrupted(lambda d: d.update(count=99))
        assert any("sum to" in p for p in problems)

    def test_non_positive_bucket_count_flagged(self):
        problems = self.corrupted(
            lambda d: d["buckets"].__setitem__(0, [0, 0])
        )
        assert any("non-positive" in p for p in problems)

    def test_boolean_pair_members_flagged(self):
        problems = self.corrupted(
            lambda d: d["buckets"].__setitem__(0, [True, 1])
        )
        assert any("integer pair" in p for p in problems)

    def test_min_max_sum_inconsistency_flagged(self):
        assert any(
            "min" in p and "max" in p
            for p in self.corrupted(lambda d: d.update(min=5.0, max=0.1))
        )
        assert any(
            "outside" in p
            for p in self.corrupted(lambda d: d.update(sum=1e6))
        )

    def test_unsorted_bounds_flagged(self):
        problems = self.corrupted(lambda d: d["bounds"].reverse())
        assert any("ascending" in p for p in problems)

    def test_unknown_top_level_keys_tolerated(self):
        # BENCH_obs.json rides an `obs_overhead` block alongside the
        # metrics sections; the validator must not reject it.
        h = Histogram("h")
        h.observe(1.0)
        payload = self.payload(h.as_dict())
        payload["obs_overhead"] = {"overhead_frac": 0.01}
        assert validate_metrics(payload) == []


class TestCrossCounterInvariants:
    """Counters of one real run agree with each other; slips are flagged."""

    @pytest.fixture(scope="class")
    def runs(self, small_dataset):
        from repro.core.config import SigmoConfig
        from repro.core.engine import SigmoEngine
        from repro.core.join import JoinBudget

        engine = SigmoEngine(
            small_dataset.queries,
            small_dataset.data,
            SigmoConfig(refinement_iterations=3),
        )
        cold = engine.run()
        budget = JoinBudget(max_visits=cold.join_result.stats.candidate_visits // 3)
        truncated = engine.run(join_budget=budget)
        assert truncated.join_result.truncated
        edge = SigmoEngine(
            small_dataset.queries,
            small_dataset.data,
            SigmoConfig(refinement_iterations=3, edge_signatures=True),
        )
        results = {
            "cold": cold,
            "warm": engine.session().match(engine.data),
            "truncated": truncated,
            "resumed": engine.run(
                join_budget=budget,
                join_start_pair=truncated.join_result.resume_pair,
            ),
            "find-first": engine.run(mode="find-first"),
            "edge-aware": edge.run(),
        }
        return engine, results

    @staticmethod
    def payload(engine, result):
        from repro.obs.profile import build_profile

        return build_profile(result, engine.query, engine.data).payload()

    def slipped(self, runs, name, **join_changes):
        """Problems of a payload built from a run with altered join output."""
        engine, results = runs
        result = results[name]
        join_result = dataclasses.replace(result.join_result, **join_changes)
        slipped = dataclasses.replace(result, join_result=join_result)
        return validate_metrics(self.payload(engine, slipped))

    def test_real_payloads_validate_clean(self, runs):
        engine, results = runs
        payloads = {name: self.payload(engine, r) for name, r in results.items()}
        for name, payload in payloads.items():
            assert validate_metrics(payload) == [], name
        cold = payloads["cold"]["counters"]
        assert cold["join.backend_pairs.fused"] > 0
        assert "join.truncated" not in cold
        assert payloads["truncated"]["counters"]["join.truncated"] == 1
        assert "engine.stage_count.filter" not in payloads["warm"]["counters"]

    def test_pairs_per_table_sum_off_by_one_flagged(self, runs):
        per_table = runs[1]["cold"].join_result.fused_pairs_per_table
        problems = self.slipped(
            runs, "cold", fused_pairs_per_table=[per_table[0] + 1, *per_table[1:]]
        )
        assert any("pairs_per_table sum" in p for p in problems)

    def test_fused_pairs_replaced_by_table_count_flagged(self, runs):
        for name in ("cold", "find-first"):
            join_result = runs[1][name].join_result
            pairs = dict(join_result.backend_pairs, fused=join_result.fused_tables)
            problems = self.slipped(runs, name, backend_pairs=pairs)
            assert any("join.backend_pairs.fused" in p for p in problems), name

    def test_truncated_run_may_carry_unfolded_pairs_only(self, runs):
        join_result = runs[1]["truncated"].join_result
        carried = sum(join_result.fused_pairs_per_table)
        assert carried > join_result.backend_pairs["fused"]
        pairs = dict(join_result.backend_pairs, fused=carried + 1)
        problems = self.slipped(runs, "truncated", backend_pairs=pairs)
        assert any("join.backend_pairs.fused" in p for p in problems)

    def test_table_count_mismatch_flagged(self, runs):
        tables = runs[1]["cold"].join_result.fused_tables
        problems = self.slipped(runs, "cold", fused_tables=tables + 1)
        assert any("join.fused.tables" in p for p in problems)

    def test_more_dispatched_pairs_than_gmcr_pairs_flagged(self, runs):
        join_result = runs[1]["find-first"].join_result
        pairs = dict(join_result.backend_pairs, dfs=runs[1]["find-first"].gmcr.n_pairs)
        problems = self.slipped(runs, "find-first", backend_pairs=pairs)
        assert any("gmcr.pairs" in p for p in problems)

    def test_filter_stage_count_off_iterations_flagged(self, runs):
        engine, results = runs
        for name, delta in (("cold", 2), ("cold", -1), ("edge-aware", 1)):
            payload = json.loads(json.dumps(self.payload(engine, results[name])))
            payload["counters"]["engine.stage_count.filter"] += delta
            problems = validate_metrics(payload)
            assert any("engine.filter_iterations" in p for p in problems), name

    def test_checks_skip_absent_keys(self):
        m = MetricsRegistry()
        m.count("join.backend_pairs.fused", 5)
        m.count("engine.stage_count.filter", 9)
        assert validate_metrics(metrics_payload(m)) == []
