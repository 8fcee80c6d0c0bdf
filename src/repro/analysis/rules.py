"""AST lint rules for GPU-reproduction hazards.

Rule catalog (documented in ``docs/analysis.md``):

========  ===================  ========  ==========================================
id        name                 severity  flags
========  ===================  ========  ==========================================
SGL001    shift-mixed-sign     error     ``<<``/``>>`` mixing an explicitly
                                         unsigned NumPy operand with an explicitly
                                         signed one (NumPy refuses or upcasts,
                                         corrupting packed signatures), and signed
                                         64-bit mask construction
                                         (``np.int64(1) << width``) whose overflow
                                         at width 64 is silent.
SGL002    alloc-missing-dtype  warning   ``np.zeros/ones/empty/full/arange``
                                         without an explicit ``dtype=`` in kernel
                                         modules (platform-dependent defaults).
SGL003    kernel-python-loop   warning   Python-level ``for`` loops inside
                                         ``@kernel``-marked hot functions.
SGL004    iter-unordered-set   warning   iteration over a ``set``/``frozenset``
                                         display or constructor (nondeterministic
                                         order in result-producing paths).
SGL005    except-bare          error     bare ``except:`` clauses.
SGL006    except-silent        warning   exception handlers whose body only
                                         ``pass``/``continue``/``...`` (silently
                                         swallowed failures).
SGL007    kernel-scalar-clamp  info      ``min``/``max``/``np.clip`` against a
                                         numeric constant inside a ``@kernel``
                                         function (saturation must go through the
                                         signature packing, not ad-hoc clamps).
SGL008    unused-import        warning   module-level import never referenced
                                         (``__init__.py`` re-export files exempt).
SGL009    counter-bypass       warning   ad-hoc work accumulators (``instr += …``,
                                         ``visits += 1``) on bare names inside
                                         ``@kernel`` functions; simulated work must
                                         flow through the instrumented counter API
                                         (``KernelCounters`` / the metrics
                                         registry) so profiles and the performance
                                         model see it.
SGL010    driver-bypass        warning   direct ``run_join(...)`` /
                                         ``IterativeFilter(...)`` calls outside
                                         ``repro.pipeline``; runs must go through
                                         ``run_pipeline`` so spans, timers,
                                         contract checks, and artifact caching
                                         attach in one place (legacy shims are
                                         baselined).
SGL011    implicit-upcast      warning   dataflow-backed (see
                                         :mod:`repro.analysis.dataflow`): an
                                         arithmetic/bitwise op whose NumPy-
                                         promoted dtype silently leaves the
                                         integer family, widens beyond both
                                         operands, overflows a signed shift, or
                                         casts an in-place update back.
SGL012    narrowing-cast       warning   dataflow-backed: ``astype``/dtype-ctor
                                         casts and stores that lose width, sign,
                                         or the fractional part.
SGL013    effect-escape        error     dataflow-backed: a ``@kernel(writes=…)``
                                         function stores to a parameter region
                                         outside its declared write set.
SGL014    backend-unportable   error     dataflow-backed: an array call
                                         reachable from a kernel entry point
                                         that is outside the ``repro.xp``
                                         backend contract — a raw ``np.*``
                                         call (bypasses backend dispatch),
                                         an ``xp.*`` name missing from
                                         ``repro.xp.contract.XP_FUNCTIONS``,
                                         or an unportable array method.
                                         Hard gate: the baseline refuses to
                                         absorb it.
========  ===================  ========  ==========================================

The dataflow-backed rules (SGL011–SGL014) are registered here for the
shared catalog/severity/baseline machinery but are *emitted* by
``python -m repro analyze --dataflow`` via
:func:`repro.analysis.dataflow.run_dataflow`, not by :func:`run_rules`.

Suppression: append ``# sigmo: allow=SGL00X`` (comma-separated ids, or
``*``) to the flagged line.  Repo-wide accepted findings live in the
committed baseline instead (see :mod:`repro.analysis.linter`).

Array-namespace alias resolution is per-module: ``import numpy as xx``,
``from numpy import zeros``, and the backend namespace ``from repro
import xp`` are all recognized exactly like ``np.zeros`` — xp calls
carry NumPy semantics by contract, so the dtype/signedness rules apply
unchanged (see :func:`repro.analysis.dataflow.ir.collect_np_namespace`
and :func:`repro.analysis.dataflow.ir.collect_xp_aliases`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.dataflow.ir import collect_np_namespace, collect_xp_aliases
from repro.analysis.findings import Finding, Severity

#: Default NumPy module aliases (snippets without imports); real modules
#: get their aliases resolved per-module from their import statements.
_NP_NAMES = {"np", "numpy"}
_UNSIGNED_DTYPES = {"uint8", "uint16", "uint32", "uint64", "uintp"}
_SIGNED_DTYPES = {"int8", "int16", "int32", "int64", "intp"}
_ALLOC_FUNCS = {"zeros", "ones", "empty", "full", "arange"}
_CLAMP_ATTRS = {"clip", "minimum", "maximum"}

_ALLOW_RE = re.compile(r"#\s*sigmo:\s*allow=([\w*,\s]+)")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Rule:
    """Static description of one rule (id, slug, severity)."""

    rule: str
    name: str
    severity: Severity


RULES: dict[str, Rule] = {
    r.rule: r
    for r in (
        Rule("SGL001", "shift-mixed-sign", Severity.ERROR),
        Rule("SGL002", "alloc-missing-dtype", Severity.WARNING),
        Rule("SGL003", "kernel-python-loop", Severity.WARNING),
        Rule("SGL004", "iter-unordered-set", Severity.WARNING),
        Rule("SGL005", "except-bare", Severity.ERROR),
        Rule("SGL006", "except-silent", Severity.WARNING),
        Rule("SGL007", "kernel-scalar-clamp", Severity.INFO),
        Rule("SGL008", "unused-import", Severity.WARNING),
        Rule("SGL009", "counter-bypass", Severity.WARNING),
        Rule("SGL010", "driver-bypass", Severity.WARNING),
        Rule("SGL011", "implicit-upcast", Severity.WARNING),
        Rule("SGL012", "narrowing-cast", Severity.WARNING),
        Rule("SGL013", "effect-escape", Severity.ERROR),
        Rule("SGL014", "backend-unportable", Severity.ERROR),
    )
}

#: Stage entry points that only :mod:`repro.pipeline` may call directly
#: (SGL010).  Everything else goes through ``MatcherSession.match``.
_DRIVER_ONLY_CALLS = {"run_join", "IterativeFilter"}

#: Bare-name accumulators that look like work counters (SGL009).  Matched
#: as whole tokens within the identifier, so ``visits`` and ``n_visits``
#: hit but ``revisits_cache`` does not.
_COUNTER_TOKEN_RE = re.compile(
    r"(?:^|_)(?:instr|instructions|visits|checks|echecks|pushes|ops|bytes|"
    r"work_items)(?:_|$)"
)


def _decorator_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _is_set_expr(node: ast.AST) -> bool:
    """A set display or ``set(...)``/``frozenset(...)`` constructor."""
    if isinstance(node, ast.Set):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _body_is_silent(body: list[ast.stmt]) -> bool:
    """Handler body contains only pass/continue/``...``."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


def _has_constant_number(args: list[ast.expr]) -> bool:
    return any(
        isinstance(a, ast.Constant) and isinstance(a.value, (int, float))
        for a in args
    )


class _Visitor(ast.NodeVisitor):
    """Single-pass visitor dispatching all structural rules.

    ``np_aliases``/``np_from`` carry the module's resolved NumPy
    namespace (``import numpy as xp``, ``from numpy import zeros``), so
    aliased usage is checked exactly like the conventional ``np.``.
    """

    def __init__(
        self,
        filename: str,
        lines: list[str],
        np_aliases: frozenset[str] | set[str] | None = None,
        np_from: dict[str, str] | None = None,
    ) -> None:
        self.filename = filename
        self.lines = lines
        self.np_aliases = set(np_aliases) if np_aliases else set(_NP_NAMES)
        self.np_from = dict(np_from or {})
        self.findings: list[Finding] = []
        self._kernel_depth = 0

    # -- NumPy namespace resolution -------------------------------------------

    def _np_name_of(self, node: ast.AST) -> str | None:
        """The numpy attribute a call/attribute node resolves to, if any."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.np_aliases
        ):
            return node.attr
        if isinstance(node, ast.Name):
            return self.np_from.get(node.id)
        return None

    def _is_np_attr(self, node: ast.AST, attrs: set[str]) -> bool:
        """Whether ``node`` resolves to a numpy attribute in ``attrs``."""
        name = self._np_name_of(node)
        return name is not None and name in attrs

    def _dtype_signedness(self, node: ast.AST) -> str | None:
        """Classify a dtype expression: 'unsigned', 'signed', or None."""
        if self._is_np_attr(node, _UNSIGNED_DTYPES):
            return "unsigned"
        if self._is_np_attr(node, _SIGNED_DTYPES):
            return "signed"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.lstrip("<>=")
            if name in _UNSIGNED_DTYPES:
                return "unsigned"
            if name in _SIGNED_DTYPES:
                return "signed"
        return None

    def _shift_operand_signedness(self, node: ast.AST) -> str | None:
        """Classify a shift operand's *explicit* NumPy signedness.

        Only explicit evidence counts: ``np.uint64(...)`` constructors,
        ``.astype(np.uint64)`` / ``.view(np.uint64)`` casts (also string
        dtype forms).  Python int literals and bare names are ``None``
        (unknown) — NumPy accepts Python ints alongside either
        signedness.
        """
        if isinstance(node, ast.Call):
            func = node.func
            if self._is_np_attr(func, _UNSIGNED_DTYPES):
                return "unsigned"
            if self._is_np_attr(func, _SIGNED_DTYPES):
                return "signed"
            if isinstance(func, ast.Attribute) and func.attr in (
                "astype",
                "view",
            ):
                if node.args:
                    return self._dtype_signedness(node.args[0])
                for kw in node.keywords:
                    if kw.arg == "dtype":
                        return self._dtype_signedness(kw.value)
        if isinstance(node, ast.BinOp):
            left = self._shift_operand_signedness(node.left)
            right = self._shift_operand_signedness(node.right)
            if left == right:
                return left
            return left or right
        if isinstance(node, ast.UnaryOp):
            return self._shift_operand_signedness(node.operand)
        return None

    def _is_signed_scalar_call(self, node: ast.AST) -> bool:
        """``np.int64(<constant>)`` and friends — signed mask seeds."""
        return (
            isinstance(node, ast.Call)
            and self._is_np_attr(node.func, _SIGNED_DTYPES)
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
        )

    # -- emission ------------------------------------------------------------

    def emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        text = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        allowed = _ALLOW_RE.search(text)
        if allowed:
            ids = {tok.strip() for tok in allowed.group(1).split(",")}
            if "*" in ids or rule_id in ids:
                return
        rule = RULES[rule_id]
        self.findings.append(
            Finding(
                rule=rule.rule,
                name=rule.name,
                severity=rule.severity,
                file=self.filename,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                text=text,
            )
        )

    # -- SGL001: mixed-signedness shifts --------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.LShift, ast.RShift)):
            left = self._shift_operand_signedness(node.left)
            right = self._shift_operand_signedness(node.right)
            if {left, right} == {"unsigned", "signed"}:
                self.emit(
                    "SGL001",
                    node,
                    "shift mixes explicitly unsigned and signed NumPy "
                    "operands; NumPy has no common type for uint64/int64 "
                    "shifts — cast both operands to np.uint64",
                )
            elif (
                isinstance(node.op, ast.LShift)
                and self._is_signed_scalar_call(node.left)
                and not isinstance(node.right, ast.Constant)
            ):
                self.emit(
                    "SGL001",
                    node,
                    "signed mask construction: shifting a signed NumPy "
                    "scalar by a variable width overflows silently at 64 "
                    "bits — build masks with np.uint64 on both operands",
                )
        self.generic_visit(node)

    # -- SGL002 / SGL007 / SGL010: calls -------------------------------------

    def _check_driver_bypass(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in _DRIVER_ONLY_CALLS:
            return
        if self.filename.startswith("pipeline/"):
            return
        self.emit(
            "SGL010",
            node,
            f"direct {name}(...) call bypasses run_pipeline; "
            "route runs through repro.pipeline (MatcherSession.match / "
            "SigmoEngine.run, which both reach run_pipeline) so spans, "
            "timers, contract checks, and artifact caching attach in one place",
        )

    def visit_Call(self, node: ast.Call) -> None:
        self._check_driver_bypass(node)
        alloc_name = self._np_name_of(node.func)
        if alloc_name in _ALLOC_FUNCS:
            if not any(kw.arg == "dtype" for kw in node.keywords):
                self.emit(
                    "SGL002",
                    node,
                    f"np.{alloc_name}() without an explicit dtype=; "
                    "default dtypes are platform-dependent and silently "
                    "widen packed/bitmap arithmetic",
                )
        if self._kernel_depth > 0:
            is_clamp = (
                isinstance(node.func, ast.Name)
                and node.func.id in ("min", "max")
                and len(node.args) >= 2
            ) or self._is_np_attr(node.func, _CLAMP_ATTRS)
            if is_clamp and _has_constant_number(node.args):
                self.emit(
                    "SGL007",
                    node,
                    "ad-hoc scalar clamp against a constant inside a "
                    "@kernel function; route saturation through the "
                    "signature packing so query and data sides agree",
                )
        self.generic_visit(node)

    # -- SGL003: loops in kernels -------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        is_kernel = "kernel" in _decorator_names(node)
        if is_kernel:
            self._kernel_depth += 1
        self.generic_visit(node)
        if is_kernel:
            self._kernel_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_For(self, node: ast.For) -> None:
        if self._kernel_depth > 0:
            self.emit(
                "SGL003",
                node,
                "Python-level for loop inside a @kernel function; "
                "vectorize over the batch or baseline the loop if the "
                "trip count is provably small",
            )
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    # -- SGL004: unordered iteration ----------------------------------------

    def _check_unordered_iter(self, iter_node: ast.expr) -> None:
        if _is_set_expr(iter_node):
            self.emit(
                "SGL004",
                iter_node,
                "iteration over a set has nondeterministic order; sort it "
                "(or iterate a list/array) so match output is reproducible",
            )

    def _visit_comprehension_holder(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self._check_unordered_iter(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_holder
    visit_SetComp = _visit_comprehension_holder
    visit_DictComp = _visit_comprehension_holder
    visit_GeneratorExp = _visit_comprehension_holder

    # -- SGL009: counter bypass in kernels ------------------------------------

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            self._kernel_depth > 0
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Name)
            and _COUNTER_TOKEN_RE.search(node.target.id)
        ):
            self.emit(
                "SGL009",
                node,
                f"ad-hoc work accumulator '{node.target.id} += ...' inside a "
                "@kernel function; report simulated work through "
                "KernelCounters or the metrics registry so profiles and "
                "the performance model see it (baseline provably local "
                "tallies)",
            )
        self.generic_visit(node)

    # -- SGL005 / SGL006: exception handling ----------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.emit(
                "SGL005",
                node,
                "bare except: catches SystemExit/KeyboardInterrupt and "
                "masks kernel contract violations; name the exceptions",
            )
        if _body_is_silent(node.body):
            self.emit(
                "SGL006",
                node,
                "exception silently swallowed (handler body is only "
                "pass/continue/...); log, re-raise, or handle explicitly",
            )
        self.generic_visit(node)


def _check_unused_imports(
    tree: ast.Module, filename: str, lines: list[str]
) -> list[Finding]:
    """SGL008: module-level imports never referenced.

    Usage evidence: any ``Name`` load, any ``Attribute`` chain root, any
    identifier token inside a string constant (covers ``__all__`` entries,
    string annotations, and doctest snippets — deliberately permissive to
    keep false positives at zero).  ``__init__.py`` files are exempt
    (re-export is their job).
    """
    if filename.endswith("__init__.py"):
        return []
    imported: list[tuple[str, ast.stmt]] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((name, stmt))
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                imported.append((alias.asname or alias.name, stmt))
    if not imported:
        return []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if len(node.value) < 4000:
                used.update(_IDENT_RE.findall(node.value))
    out: list[Finding] = []
    visitor = _Visitor(filename, lines)
    for name, stmt in imported:
        if name not in used and not name.startswith("_"):
            visitor.emit(
                "SGL008", stmt, f"imported name '{name}' is never used"
            )
    return visitor.findings


def run_rules(source: str, filename: str) -> list[Finding]:
    """Run every rule over one module's source; returns findings."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    np_aliases, np_from = collect_np_namespace(tree)
    # xp calls follow NumPy semantics by contract, so the dtype and
    # signedness rules treat the backend namespace like numpy itself.
    np_aliases = np_aliases | collect_xp_aliases(tree)
    visitor = _Visitor(filename, lines, np_aliases, np_from)
    visitor.visit(tree)
    findings = visitor.findings
    findings.extend(_check_unused_imports(tree, filename, lines))
    return findings
