"""Micro-benchmarks of the pipeline kernels themselves.

These time the CPU-substrate implementations of the individual SIGMo
stages (the quantity pytest-benchmark is actually good at), complementing
the experiment regenerations in the other bench files.
"""

import numpy as np
import pytest

from benchmarks.experiments.shared import reference_dataset
from repro.core.candidates import CandidateBitmap
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.filtering import IterativeFilter, initialize_candidates
from repro.core.join import run_join
from repro.core.mapping import build_gmcr
from repro.core.signatures import SignatureState
from repro.pipeline import derive_n_labels
from repro.utils.bitops import pack_bool_rows


@pytest.fixture(scope="module")
def small_engine():
    ds = reference_dataset()
    return SigmoEngine(ds.queries[:100], ds.data[:60])


def test_bench_csrgo_conversion(benchmark):
    ds = reference_dataset()
    batch = ds.data_batch()
    benchmark(CSRGO.from_batch, batch)


def test_bench_initialize_candidates(benchmark, small_engine):
    benchmark(initialize_candidates, small_engine.query, small_engine.data)


def test_bench_signature_step(benchmark, small_engine):
    def step():
        n_labels = derive_n_labels(small_engine.query, small_engine.data, None)
        state = SignatureState(small_engine.data, n_labels)
        state.run_to(3)
        return state.counts

    benchmark(step)


def test_bench_filter_six_iterations(benchmark, small_engine):
    config = SigmoConfig(refinement_iterations=6)

    def filt():
        return IterativeFilter(
            small_engine.query, small_engine.data, config
        ).run()

    benchmark(filt)


def test_bench_mapping(benchmark, small_engine):
    config = SigmoConfig(refinement_iterations=4)
    fr = IterativeFilter(small_engine.query, small_engine.data, config).run()
    benchmark(build_gmcr, fr.bitmap, small_engine.query, small_engine.data)


def test_bench_join(benchmark, small_engine):
    config = SigmoConfig(refinement_iterations=4)
    fr = IterativeFilter(small_engine.query, small_engine.data, config).run()
    gmcr = build_gmcr(fr.bitmap, small_engine.query, small_engine.data)

    def join():
        import copy

        return run_join(
            small_engine.query,
            small_engine.data,
            fr.bitmap,
            gmcr,
            config,
        )

    benchmark(join)


def test_bench_full_pipeline_find_first(benchmark, small_engine):
    benchmark(small_engine.run, "find-first")


def test_bench_bitmap_pack(benchmark):
    rng = np.random.default_rng(0)
    rows = rng.random((512, 8192)) < 0.3
    benchmark(pack_bool_rows, rows)
