"""Outside-in layer timing for the traced pass.

The benchmark does not instrument the program.  It temporarily replaces
the public function at each layer boundary -- a module or class attribute
the caller looks up at call time -- with a wrapper that records the
call's duration and subtracts the time of timed calls nested inside it,
which gives each layer's *self* time.  ``match()`` itself is the root
frame: whatever no wrapped boundary covers is ``pipeline`` self time, so
the self times of all layers add up to the traced ``match()`` time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute path, layer).  Several boundaries may feed one layer.
BOUNDARIES = (
    ("repro.core.csrgo", "CSRGO.from_batch", "csrgo.convert"),
    ("repro.core.filtering", "IterativeFilter.initialize", "filtering.init"),
    ("repro.core.filtering", "IterativeFilter.refine", "filtering.refine"),
    ("repro.core.filtering", "refine_candidates", "filtering.refine.iter"),
    ("repro.core.signatures", "SignatureState.run_to", "signatures.bfs"),
    ("repro.pipeline.stages", "build_gmcr", "mapping.gmcr"),
    ("repro.pipeline.stages", "run_join", "join"),
    ("repro.core.join", "compile_plans", "join.compile_plans"),
    ("repro.accel.dispatch", "PlanCostModel.choose_batch", "dispatch.choose"),
    ("repro.accel.dispatch", "PlanCostModel.estimate_elements_batch", "dispatch.choose"),
    ("repro.accel.dispatch", "PlanCostModel.ordering", "dispatch.choose"),
    ("repro.core.join", "get_local_view", "local_view.build"),
    ("repro.core.join", "get_batch_view", "local_view.build"),
    ("repro.core.join", "build_fused_plan", "fused.build_plan"),
    ("repro.core.join", "fused_join", "fused.join"),
    ("repro.accel.fused", "extend_fused_block", "fused.join"),
    ("repro.core.join", "tabular_join_pair", "tabular.join"),
    ("repro.core.join", "join_pair", "join.dfs"),
)

#: Layers whose first call inside ``run_join`` ends its planning pass.
KERNEL_LAYERS = frozenset({"fused.join", "tabular.join", "join.dfs"})


class _Frame:
    __slots__ = ("layer", "start", "child", "plan_self", "iterations")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.plan_self: float | None = None
        self.iterations = 0


class LayerTimer:
    """Self time and call counts per layer, over every traced ``match()``.

    ``self_s`` maps a layer to its summed self time; refine iterations are
    kept apart as ``filtering.refine.it<k>``.  ``calls`` counts calls per
    wrapped attribute path.  ``refine_iterations`` records, for every
    ``IterativeFilter.refine`` call, how many ``refine_candidates`` calls
    it made.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.join_total_s = 0.0
        self.join_plan_s = 0.0
        self.join_fold_s = 0.0
        self.refine_iterations: list[int] = []
        self.match_s = 0.0
        self._stack: list[_Frame] = []

    def _enter(self, layer: str) -> _Frame:
        now = time.perf_counter()
        stack = self._stack
        if stack:
            parent = stack[-1]
            if layer in KERNEL_LAYERS and parent.layer == "join" and parent.plan_self is None:
                parent.plan_self = (now - parent.start) - parent.child
            if layer == "filtering.refine.iter":
                parent.iterations += 1
                # Iteration 1 compares labels only; the first refine call is iteration 2.
                layer = f"filtering.refine.it{parent.iterations + 1}"
        frame = _Frame(layer, now)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        own = duration - frame.child
        self.self_s[frame.layer] += own
        if self._stack:
            self._stack[-1].child += duration
        if frame.layer == "join":
            plan = own if frame.plan_self is None else frame.plan_self
            self.join_total_s += duration
            self.join_plan_s += plan
            self.join_fold_s += own - plan
        elif frame.layer == "filtering.refine":
            self.refine_iterations.append(frame.iterations)
        return duration

    def match(self, fn, *args, **kwargs):
        """Call ``fn`` (a ``match()``) as the root ``pipeline`` frame."""
        if self._stack:
            raise RuntimeError("match() frames do not nest")
        frame = self._enter("pipeline")
        try:
            return fn(*args, **kwargs)
        finally:
            self.match_s += self._exit(frame)

    def _wrap(self, fn, layer: str, path: str):
        def timed(*args, **kwargs):
            self.calls[path] += 1
            frame = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        undo = []
        try:
            for module_name, path, layer in BOUNDARIES:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, layer, path))
                else:
                    wrapped = self._wrap(original, layer, path)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def refine_s(self) -> float:
        """Refine self time, its per-iteration comparisons included."""
        return sum(
            v for k, v in self.self_s.items()
            if k == "filtering.refine" or k.startswith("filtering.refine.it")
        )
