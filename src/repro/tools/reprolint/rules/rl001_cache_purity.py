"""RL001 — cache-key purity of query-plan stage bodies.

The staged pipeline (PR 2) caches stage outputs under epoch-tagged
keys.  That is only sound if a stage's output is a pure function of
what the key encodes: two invariants follow.

1. **No hidden inputs.**  Stage implementations must not read wall
   clocks, RNGs, or module-level mutable state — none of those are in
   the cache key, so a cached output would silently disagree with a
   recomputed one.  (The *driver* may time stages: timings go to the
   trace, never into cached values, so only configured stage-body
   functions are checked.)

2. **No mutation of cached values.**  A value served by
   ``StageCache.get``/``lookup`` is shared by every future hit; an
   in-place write corrupts results for every concurrent session.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.tools.reprolint.base import (
    Checker,
    call_name,
    dotted_name,
    register,
    setflags_enables_write,
)

__all__ = ["CachePurityChecker"]

_IMPURE_PREFIXES = (
    "time.",
    "random.",
    "np.random",
    "numpy.random",
    "datetime.",
    "uuid.",
    "os.urandom",
    "os.environ",
    "secrets.",
)

_MUTATING_METHODS = {
    "sort", "fill", "resize", "partition", "itemset", "byteswap",
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard",
}


def _is_cache_receiver(callee: str) -> str | None:
    """``self.cache.get`` → ``"get"`` when the receiver looks like a
    stage cache; ``None`` otherwise."""
    parts = callee.split(".")
    if len(parts) < 2 or parts[-1] not in ("get", "lookup"):
        return None
    return parts[-1] if parts[-2].endswith("cache") else None


@register
class CachePurityChecker(Checker):
    rule = "RL001"
    summary = (
        "stage bodies feeding the StageCache must be pure (no clocks/RNG/"
        "module state) and cache-served values must never be mutated"
    )
    default_options: dict[str, Any] = {
        # Functions treated as stage bodies: the executor's dispatch and
        # aggregation kernels, plus anything named like a stage impl.
        "stage_functions": (
            "_execute_stage", "_per_traj_reduce", "_freeze",
        ),
        "stage_prefixes": ("stage_",),
    }

    def check(self, tree: ast.AST) -> list:
        """Collect module-level mutable names, then visit functions."""
        self._module_mutables = self._collect_module_mutables(tree)
        return super().check(tree)

    @staticmethod
    def _collect_module_mutables(tree: ast.AST) -> set[str]:
        """Module-level names bound to mutable literals (dict/list/set)."""
        mutables: set[str] = set()
        if not isinstance(tree, ast.Module):
            return mutables
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
            ):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    mutables.add(target.id)
        return mutables

    def _is_stage_function(self, name: str) -> bool:
        if name in self.options["stage_functions"]:
            return True
        return any(name.startswith(p) for p in self.options["stage_prefixes"])

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Check one function (purity + cached-value mutation)."""
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Async twin of :meth:`visit_FunctionDef`."""
        self._check_function(node)
        self.generic_visit(node)

    def _check_function(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._is_stage_function(fn.name):
            self._check_purity(fn)
        self._check_cached_value_mutation(fn)

    # Invariant 1: no hidden inputs in stage bodies ----------------------
    def _check_purity(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        covered: set[int] = set()  # sub-nodes of an already-reported chain
        for node in ast.walk(fn):
            if id(node) in covered:
                continue
            if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
                node.ctx, ast.Load
            ):
                dotted = dotted_name(node)
                # match on the canonical name so `from time import
                # monotonic as now` cannot hide the clock read
                canonical = self.resolve(dotted)
                matched = False
                for prefix in _IMPURE_PREFIXES:
                    if canonical == prefix.rstrip(".") or canonical.startswith(prefix):
                        # report once, at the outermost matching chain
                        covered.update(id(sub) for sub in ast.walk(node))
                        shown = (
                            dotted
                            if canonical == dotted
                            else f"{dotted} (= {canonical})"
                        )
                        self.add(
                            node,
                            f"stage body {fn.name!r} reads {shown!r}: stage "
                            "outputs are cached under epoch-tagged keys that do "
                            "not encode this input, so a cache hit would return "
                            "a different value than recomputation; move the "
                            "read to the driver or encode it in the cache key",
                        )
                        matched = True
                        break
                if matched:
                    continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self._module_mutables:
                    self.add(
                        node,
                        f"stage body {fn.name!r} reads module-level mutable "
                        f"state {node.id!r} that is absent from the stage "
                        "cache key; pass it in explicitly and key it",
                    )

    # Invariant 2: cache-served values are immutable ---------------------
    def _check_cached_value_mutation(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        cached: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            method = _is_cache_receiver(call_name(node.value))
            if method is None:
                continue
            for target in node.targets:
                if method == "get" and isinstance(target, ast.Name):
                    cached.add(target.id)
                elif (
                    method == "lookup"
                    and isinstance(target, ast.Tuple)
                    and target.elts
                    and isinstance(target.elts[0], ast.Name)
                ):
                    cached.add(target.elts[0].id)
        if not cached:
            return

        def base_name(expr: ast.expr) -> str | None:
            while isinstance(expr, ast.Subscript):
                expr = expr.value
            return expr.id if isinstance(expr, ast.Name) else None

        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign):
                name = base_name(node.target)
                if name in cached:
                    self.add(
                        node,
                        f"in-place update of cache-served value {name!r}; the "
                        "same object is returned to every future cache hit — "
                        "copy before modifying",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        name = base_name(target)
                        if name in cached:
                            self.add(
                                node,
                                f"subscript write into cache-served value "
                                f"{name!r}; copy before modifying",
                            )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                name = recv.id if isinstance(recv, ast.Name) else None
                if name not in cached:
                    continue
                if node.func.attr in _MUTATING_METHODS:
                    self.add(
                        node,
                        f"mutating call .{node.func.attr}() on cache-served "
                        f"value {name!r}; copy before modifying",
                    )
                elif node.func.attr == "setflags" and setflags_enables_write(node):
                    self.add(
                        node,
                        f"setflags(write=True) on cache-served value {name!r} "
                        "re-enables writes on a shared array",
                    )
