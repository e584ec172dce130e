"""Determinism-hazard rules (``det-*``).

These guard the headline contract: placements must be bit-for-bit
identical across backends, worker counts and runs.  They are scoped to
the modules whose outputs feed placements — the kernel backends, the
incremental (ECO) engine, the MGL algorithm stack and the core
ordering code.  Telemetry and benchmark-generation
modules are deliberately out of scope: wall clocks and RNGs are fine
where they cannot reach a placement.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    collect_import_aliases,
    is_self_attribute,
    iter_functions,
    resolve_call_target,
    walk_shallow,
)
from repro.analysis.core import FileContext, Finding, Rule, register_rule

#: Modules whose computations feed placements.
PLACEMENT_SCOPES: Tuple[str, ...] = (
    "repro/kernels",
    "repro/incremental",
    "repro/mgl",
    "repro/core",
)

#: Call targets whose result is the host's wall clock.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_CPU_COUNT_CALLS = {
    "os.cpu_count",
    "os.process_cpu_count",
    "multiprocessing.cpu_count",
}

#: ``set``-producing call targets (builtin names).
_SET_CONSTRUCTORS = {"set", "frozenset"}

#: Methods of set objects that return sets.
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}


def _is_set_expr(node: ast.AST, set_names: Set[str], set_attrs: Set[str]) -> bool:
    """Conservatively: does this expression evaluate to a set?"""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _SET_CONSTRUCTORS:
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and _is_set_expr(node.func.value, set_names, set_attrs)
        ):
            return True
        return False
    if isinstance(node, ast.Name):
        return node.id in set_names
    if is_self_attribute(node):
        return isinstance(node, ast.Attribute) and node.attr in set_attrs
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names, set_attrs) and _is_set_expr(
            node.right, set_names, set_attrs
        )
    return False


def _set_typed_self_attrs(tree: ast.Module) -> Set[str]:
    """``self.X`` attributes assigned a set anywhere in the module."""
    attrs: Set[str] = set()
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        if not _is_set_expr(value, set(), set()):
            continue
        for target in targets:
            if is_self_attribute(target) and isinstance(target, ast.Attribute):
                attrs.add(target.attr)
    return attrs


@register_rule
class SetIterationRule(Rule):
    """Iterating a set (or frozenset) yields an unspecified order.

    Any ordered output derived from it — placements, processing order,
    dirty lists — silently depends on hash seeding and insertion
    history.  Wrap the iteration in ``sorted(...)`` (every dirty-set
    path in this repo already does) or keep a parallel ordered
    container.
    """

    id = "det-set-iter"
    severity = "error"
    description = "iteration over an unordered set feeds ordered output"
    scopes = PLACEMENT_SCOPES

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        set_attrs = _set_typed_self_attrs(ctx.tree)
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(fn for fn, _cls in iter_functions(ctx.tree))
        for scope in scopes:
            set_names = self._local_set_names(scope)
            for node in walk_shallow(scope):
                yield from self._check_iteration(ctx, node, set_names, set_attrs)

    @staticmethod
    def _local_set_names(scope: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in walk_shallow(scope):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, names, set()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and isinstance(node.target, ast.Name)
                and _is_set_expr(node.value, names, set())
            ):
                names.add(node.target.id)
        return names

    def _check_iteration(
        self,
        ctx: FileContext,
        node: ast.AST,
        set_names: Set[str],
        set_attrs: Set[str],
    ) -> Iterator[Finding]:
        iter_exprs: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_exprs.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            # Only the outermost generator's iterable matters here; inner
            # ones are re-visited as their own nodes by the walk? They are
            # part of this node, so check all generators.
            iter_exprs.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"list", "tuple", "enumerate", "iter", "reversed"}:
                iter_exprs.extend(node.args[:1])
        for expr in iter_exprs:
            if _is_set_expr(expr, set_names, set_attrs):
                yield self.finding(
                    ctx,
                    expr,
                    "iteration over a set has unspecified order; sort it "
                    "(sorted(...)) before it can feed ordered output",
                )


@register_rule
class CpuCountRule(Rule):
    """``os.cpu_count()`` varies per host; results must not."""

    id = "det-cpu-count"
    severity = "error"
    description = "host CPU count used inside placement-feeding code"
    scopes = PLACEMENT_SCOPES

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = collect_import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, aliases)
            if target in _CPU_COUNT_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{target}() depends on the host; anything derived from "
                    "it must be provably result-neutral (worker counts are "
                    "only sanctioned because every engine is worker-count "
                    "independent by construction)",
                )


@register_rule
class UnseededRandomRule(Rule):
    """Module-level RNG calls use hidden, unseeded global state."""

    id = "det-unseeded-random"
    severity = "error"
    description = "unseeded / global-state randomness in placement code"
    scopes = PLACEMENT_SCOPES

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = collect_import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, aliases)
            if target is None:
                continue
            if target.startswith("random."):
                if target == "random.Random" and node.args:
                    continue  # explicitly seeded instance
                if target == "random.SystemRandom":
                    # OS entropy is nondeterministic by design; flag it too.
                    pass
                yield self.finding(
                    ctx,
                    node,
                    f"{target}() draws from hidden global RNG state; pass a "
                    "seeded random.Random / numpy Generator explicitly",
                )
            elif target.startswith("numpy.random."):
                fn = target.rsplit(".", 1)[1]
                if fn in {"default_rng", "Generator", "SeedSequence", "RandomState"}:
                    if node.args or node.keywords:
                        continue  # seeded construction
                yield self.finding(
                    ctx,
                    node,
                    f"{target}() is unseeded (or global-state) numpy "
                    "randomness; construct np.random.default_rng(seed) and "
                    "thread it through",
                )


@register_rule
class WallClockRule(Rule):
    """Wall-clock reads inside placement-feeding code.

    ``time.perf_counter``/``monotonic`` are *not* flagged: durations are
    telemetry, and the obs layer's guards keep them off the result path.
    """

    id = "det-wall-clock"
    severity = "error"
    description = "wall-clock read inside placement-feeding code"
    scopes = PLACEMENT_SCOPES

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = collect_import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, aliases)
            if target in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{target}() reads the wall clock; placement-feeding "
                    "code must be a pure function of its inputs",
                )


@register_rule
class IdKeyRule(Rule):
    """``id()`` values change run to run; containers keyed (or ordered)
    by them are nondeterministic across processes and executions."""

    id = "det-id-key"
    severity = "error"
    description = "id()-derived value used inside placement-feeding code"
    scopes = PLACEMENT_SCOPES

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
                and not node.keywords
            ):
                yield self.finding(
                    ctx,
                    node,
                    "id() is an address, different every run; key containers "
                    "by a stable identity (cell index, name, or the object "
                    "itself) instead",
                )


# Rules are registered at import; re-export for introspection.
DETERMINISM_RULES = (
    SetIterationRule,
    CpuCountRule,
    UnseededRandomRule,
    WallClockRule,
    IdKeyRule,
)
