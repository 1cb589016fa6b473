"""The built-in invariant rules.

Each rule encodes one convention a past PR made correctness depend on;
the table in DESIGN.md ("Static analysis & enforced invariants") maps
every rule back to the PR that introduced its invariant and the bug
class it prevents.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..findings import Finding
from . import FileContext, Rule, register_rule

_NUMPY_NAMES = {"np", "numpy"}

#: The hot contraction entry points that must go through the backend.
_DISPATCHED_OPS = {"matmul", "einsum", "tensordot", "dot", "inner", "vdot"}

#: ``np.random`` members that construct independent generators (fine)
#: as opposed to drawing from the shared global stream (the PR-2 bug).
_RNG_CONSTRUCTORS = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


def _is_numpy_attr(node: ast.AST, attrs: set[str]) -> Optional[str]:
    """``np.<attr>`` / ``numpy.<attr>`` with attr in ``attrs``, or None."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in attrs
        and isinstance(node.value, ast.Name)
        and node.value.id in _NUMPY_NAMES
    ):
        return node.attr
    return None


def _walk_skipping_functions(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class
    definitions (those are visited as their own units)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class BackendDispatchRule(Rule):
    """Hot tensor contractions in layer-level code must dispatch through
    ``current_backend()`` (PR 3) — a direct ``np.matmul`` silently runs
    on the wrong substrate when a phase/engine backend override is
    active, and never benefits from fused/native kernels."""

    name = "backend-dispatch"
    description = (
        "no direct np.matmul/einsum/tensordot/@ on hot paths; "
        "route through current_backend()"
    )
    scope = (
        "src/repro/nn/layers/",
        "src/repro/nn/functional.py",
        "src/repro/nn/passes/",
        "src/repro/core/predictor.py",
    )

    def visit(self, tree: ast.AST, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(tree):
            op: Optional[str] = None
            if isinstance(node, ast.Call):
                name = _is_numpy_attr(node.func, _DISPATCHED_OPS)
                if name:
                    op = f"np.{name}()"
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                op = "the @ matmul operator"
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.MatMult
            ):
                op = "the @= matmul operator"
            if op:
                findings.append(
                    ctx.finding(
                        self,
                        node,
                        f"direct use of {op} in backend-scoped code; "
                        "dispatch through current_backend() so phase/engine "
                        "backend overrides apply (DESIGN.md §7)",
                    )
                )
        return findings


class CacheNamingRule(Rule):
    """What a forward keeps for its backward lives in ``_saved`` — the
    one slot ``Module.clear_caches()``, the fold passes and the pipeline
    executor's per-micro-batch snapshot know about.  State passed under
    any other name stays pinned between batches and is overwritten by
    an interleaved micro-batch."""

    name = "cache-naming"
    description = (
        "an attr written in forward() and read in backward() must be _saved"
    )
    scope = ("src/",)

    _FORWARD = ("forward", "attend")
    _BACKWARD = ("backward", "backward_attend")

    @classmethod
    def _is_forward(cls, name: str) -> bool:
        return name in cls._FORWARD or name.startswith("_forward")

    @classmethod
    def _is_backward(cls, name: str) -> bool:
        return name in cls._BACKWARD or name.startswith("_backward")

    @staticmethod
    def _self_attrs(fn: ast.FunctionDef, ctx_type: type) -> dict[str, int]:
        """``self.<attr>`` nodes of one context (Store / Load) in ``fn``:
        attribute name -> first line."""
        found: dict[str, int] = {}
        for node in _walk_skipping_functions(fn.body):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ctx_type)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                found.setdefault(node.attr, node.lineno)
        return found

    def visit(self, tree: ast.AST, ctx: FileContext) -> list[Finding]:
        findings = []
        for cls_node in ast.walk(tree):
            if not isinstance(cls_node, ast.ClassDef):
                continue
            stores: dict[str, int] = {}
            loads: set[str] = set()
            for stmt in cls_node.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if self._is_forward(stmt.name):
                    for attr, line in self._self_attrs(stmt, ast.Store).items():
                        stores.setdefault(attr, line)
                elif self._is_backward(stmt.name):
                    loads |= self._self_attrs(stmt, ast.Load).keys()
            for attr in sorted((stores.keys() & loads) - {"_saved"}):
                findings.append(
                    Finding(
                        file=ctx.path,
                        line=stores[attr],
                        rule=self.name,
                        message=(
                            f"{cls_node.name}.{attr} is written in a forward "
                            "method and read in backward, but is not the "
                            "'_saved' slot — Module.clear_caches() will never "
                            "release it (DESIGN.md §8)"
                        ),
                    )
                )
        return findings


class VersionBumpRule(Rule):
    """Every ``<param>.data`` mutation must be followed by
    ``<param>.bump_version()`` in the same function (PR 4/6) — otherwise
    the fold-pass cache serves stale folded conv+BN weights."""

    name = "version-bump"
    description = (
        "mutating <param>.data requires <param>.bump_version() in the "
        "same function"
    )
    scope = ("src/",)

    @staticmethod
    def _data_base(target: ast.expr) -> Optional[ast.expr]:
        """The ``<param>`` expression of a ``<param>.data`` (or
        ``<param>.data[...]``) store target, or None."""
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr == "data":
            return target.value
        return None

    def visit(self, tree: ast.AST, ctx: FileContext) -> list[Finding]:
        findings = []
        for fn in _functions(tree):
            # Construction is not mutation: Parameter.__init__ sets
            # self.data without a version history to invalidate.
            if fn.name == "__init__":
                continue
            mutations: list[tuple[ast.AST, ast.expr]] = []
            bumps: list[tuple[int, str]] = []
            for node in _walk_skipping_functions(fn.body):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "bump_version"
                    ):
                        bumps.append(
                            (node.lineno, ast.dump(node.func.value))
                        )
                    continue
                for target in targets:
                    base = self._data_base(target)
                    if base is not None:
                        mutations.append((node, base))
            for node, base in mutations:
                key = ast.dump(base)
                covered = any(
                    line >= node.lineno and bumped == key
                    for line, bumped in bumps
                )
                if not covered:
                    owner = ast.unparse(base)
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f"{owner}.data is mutated without a following "
                            f"{owner}.bump_version() in {fn.name}(); stale "
                            "Parameter versions serve stale folded weights "
                            "from the fold-pass cache (DESIGN.md §10)",
                        )
                    )
        return findings


class RngDisciplineRule(Rule):
    """No draws from numpy's shared global rng (PR 2) — module-level
    ``np.random.<fn>`` calls collide seeds across layers/workers;
    generators must come from ``nn.init.layer_rng`` or a spawned
    ``SeedSequence``."""

    name = "rng-discipline"
    description = (
        "no np.random.<fn> global-state calls; spawn generators from "
        "SeedSequence/layer_rng"
    )
    scope = ("src/",)

    def visit(self, tree: ast.AST, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr not in _RNG_CONSTRUCTORS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "random"
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id in _NUMPY_NAMES
                ):
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f"np.random.{func.attr}() draws from numpy's "
                            "process-global rng — the PR-2 seed-collision "
                            "bug class; use nn.init.layer_rng or spawn from "
                            "a SeedSequence (DESIGN.md §5)",
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _RNG_CONSTRUCTORS:
                            findings.append(
                                ctx.finding(
                                    self,
                                    node,
                                    f"importing numpy.random.{alias.name} "
                                    "exposes the process-global rng; spawn "
                                    "generators from SeedSequence/layer_rng "
                                    "instead (DESIGN.md §5)",
                                )
                            )
        return findings


class NoGradPurityRule(Rule):
    """Code lexically under ``with no_grad():`` must not fill a
    ``_saved`` slot (PR 4) — forward-only streams are allocation-free
    precisely because nothing retains backward state; a real value
    written there pins memory *and* lets a later ``backward()``
    silently consume stale data."""

    name = "no-grad-purity"
    description = "no _saved assignment under no_grad()"
    scope = ("src/",)

    @staticmethod
    def _is_no_grad_with(node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Name) and func.id == "no_grad":
                    return True
                if isinstance(func, ast.Attribute) and func.attr == "no_grad":
                    return True
        return False

    @staticmethod
    def _is_sentinel(value: ast.expr) -> bool:
        return (isinstance(value, ast.Name) and value.id == "NO_GRAD") or (
            isinstance(value, ast.Attribute) and value.attr == "NO_GRAD"
        )

    def visit(self, tree: ast.AST, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.With) or not self._is_no_grad_with(node):
                continue
            for stmt in _walk_skipping_functions(node.body):
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                    targets, value = [stmt.target], stmt.value
                else:
                    continue
                if value is not None and self._is_sentinel(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "_saved":
                        findings.append(
                            ctx.finding(
                                self,
                                stmt,
                                f"assignment to {ast.unparse(target)} inside "
                                "a no_grad() block: forward-only streams "
                                "must save nothing (assign the NO_GRAD "
                                "sentinel instead, DESIGN.md §8)",
                            )
                        )
        return findings


class ObsDisciplineRule(Rule):
    """Instrumentation in hot subsystems must route through ``repro.obs``
    (PR 10) — a bare ``print()`` in the engine/dist/pipeline/backend
    layers is unstructured output no exporter ever sees, and an ad-hoc
    ``time.perf_counter()`` accumulator is a fourth timing aggregation
    waiting to disagree with the tracer.  The tracer's own clock is the
    one justified raw-clock site (inline ``noqa``); everything else reads
    ``tracer().clock``, and the baseline holds no exception."""

    name = "obs-discipline"
    description = (
        "no bare print()/ad-hoc time.perf_counter() in hot subsystems; "
        "instrument through repro.obs (spans, metrics, the tracer clock)"
    )
    scope = (
        "src/repro/core/",
        "src/repro/dist/",
        "src/repro/pipeline/",
        "src/repro/nn/backend/",
        "src/repro/obs/",
    )

    def visit(self, tree: ast.AST, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                findings.append(
                    ctx.finding(
                        self,
                        node,
                        "bare print() in an instrumented subsystem; emit a "
                        "span/metric via repro.obs (or write to an explicit "
                        "stream) so reports stay structured (DESIGN.md §14)",
                    )
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "perf_counter"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ) or (isinstance(func, ast.Name) and func.id == "perf_counter"):
                findings.append(
                    ctx.finding(
                        self,
                        node,
                        "ad-hoc time.perf_counter() timing in an instrumented "
                        "subsystem; open a repro.obs span (or inject the "
                        "tracer clock) so one aggregation owns the numbers "
                        "(DESIGN.md §14)",
                    )
                )
        return findings


class EpochOrderRule(Rule):
    """``fit`` gets its data order from ``Dataset.epochs(batch_size, seed)``
    (PR 21): ``batches`` with ``rng=default_rng(k)`` or ``seed=k`` names
    one *fixed* permutation, so a per-epoch closure replays it and the
    positional phase schedule keeps the same samples in Phase GP all run.
    Out of scope by name: ``bench/`` (frozen until the next ``[benchmark]``
    PR re-records its loss bands) and ``tests/`` (most need only *an* order)."""

    name = "epoch-order"
    description = "hand fit() dataset.epochs(b, seed), never a fixed .batches() order"
    scope = ("src/", "examples/", "benchmarks/")

    def visit(self, tree: ast.AST, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(tree):
            func = getattr(node, "func", None)  # only ast.Call has one
            if not (isinstance(func, ast.Attribute) and func.attr == "batches"):
                continue
            for keyword in node.keywords:
                fresh_rng = (
                    keyword.arg == "rng"
                    and isinstance(keyword.value, ast.Call)
                    and ast.unparse(keyword.value.func).endswith("default_rng")
                )
                if keyword.arg == "seed" or fresh_rng:
                    message = (
                        f".batches({keyword.arg}=...) rebuilds the same permutation "
                        "every epoch; use .epochs(batch_size, seed) (DESIGN.md §5)"
                    )
                    findings.append(ctx.finding(self, node, message))
        return findings


for _rule in (
    BackendDispatchRule(),
    CacheNamingRule(),
    VersionBumpRule(),
    RngDisciplineRule(),
    NoGradPurityRule(),
    ObsDisciplineRule(),
    EpochOrderRule(),
):
    register_rule(_rule)
