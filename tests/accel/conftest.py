"""Fixtures for the accelerator-layer suite.

Every test here starts from zeroed cache counters: the signature and
plan hit/miss tallies are process-wide, and assertions on them would
otherwise depend on which tests ran earlier in the session.  The cached
artifacts themselves live on batches and bitmaps, so a fresh batch is a
cold cache.
"""

import pytest

from repro.accel import clear_accel_caches, local_view
from repro.chem.datasets import build_benchmark


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_accel_caches()
    yield
    clear_accel_caches()


@pytest.fixture(scope="module")
def bench():
    """A seeded benchmark with enough join work to exercise both backends."""
    return build_benchmark(scale=1.0, n_queries=24, n_data_graphs=60, seed=7)


def _count_builds(monkeypatch, name):
    builds = []
    original = getattr(local_view, name)

    def build(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(local_view, name, build)
    return builds


@pytest.fixture
def batch_view_builds(monkeypatch):
    """Arguments of every ``BatchCSRView`` build during the test."""
    return _count_builds(monkeypatch, "BatchCSRView")


@pytest.fixture
def local_view_builds(monkeypatch):
    """Arguments of every ``LocalCSRView`` build during the test."""
    return _count_builds(monkeypatch, "LocalCSRView")
