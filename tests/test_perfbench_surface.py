"""The program names the end-to-end benchmark in ``perfbench/`` relies on.

``perfbench/layers.py`` times each layer by replacing the attribute at
every boundary in ``BOUNDARIES`` for the traced pass, and
``perfbench/run.py`` reads the signature/plan cache counters and the
session's artifact counters.  A rename
or deletion of any of these names breaks the benchmark, not the
program, so it is pinned here.  The benchmark files are only read
(``BOUNDARIES`` is parsed, not imported).
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _boundaries():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no BOUNDARIES")


BOUNDARIES = _boundaries()


@pytest.mark.parametrize(
    "module_name, path", [(m, p) for m, p, _ in BOUNDARIES], ids=[p for _, p, _ in BOUNDARIES]
)
def test_boundary_resolves_like_layer_timer(module_name, path):
    # The same lookup as LayerTimer.installed: getattr down to the owner,
    # then the owner's own __dict__ entry (what setattr will replace).
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    original = owner.__dict__[attr]
    assert callable(getattr(original, "__func__", original))


def test_memo_counters_perfbench_reads():
    memo = importlib.import_module("repro.accel.memo")
    for name in ("plan_memo", "signature_memo", "clear_accel_caches"):
        assert callable(getattr(memo, name)), name
    for counter in (memo.plan_memo(), memo.signature_memo()):
        assert isinstance(counter.stats.hits, int)
        assert isinstance(counter.stats.misses, int)
    memo.clear_accel_caches()
    for counter in (memo.plan_memo(), memo.signature_memo()):
        assert (counter.stats.hits, counter.stats.misses) == (0, 0)


def test_session_artifact_counters_perfbench_reads():
    # perfbench's cold check: a new chunk misses both artifacts, and each
    # resume (here: a repeat of the same batch) recalls both.
    from repro.graph.generators import path_graph
    from repro.pipeline import MatcherSession

    session = MatcherSession([path_graph([0, 1])])
    data = [path_graph([0, 1, 0])]
    stats = session.artifact_stats
    assert (stats.hits, stats.misses) == (0, 0)
    session.match(data)
    assert (stats.hits, stats.misses) == (0, 2)
    session.match(data)
    assert (stats.hits, stats.misses) == (2, 2)
