"""RL003 — lock discipline in the multi-session service.

Since the lock-free snapshot refactor the service's concurrency story
has two halves, and RL003 machine-checks both:

1. **Mutations only under the lock.**  Methods of guarded classes that
   touch the shared mutable registries (snapshot registry, session
   counter) must do so inside ``with self._lock``,
   and the atomically-published active-snapshot reference may be
   *written* only under the lock (reads are the lock-free path and are
   deliberately unrestricted).  Nothing *blocking* — sleeps, file I/O,
   pool round-trips — may run while the lock is held, or one slow
   mutation stalls every session-lifecycle operation.

2. **No lock on the query path.**  The read-path methods (resolving
   the active snapshot, pinning it, running a session query) are
   declared *lock-free*: any lock acquisition inside them — a ``with
   ...._lock`` block or an ``.acquire()`` call — is a violation.  This
   is the invariant that makes N concurrent sessions scale: queries
   read epoch-immutable snapshot state and never queue behind a
   publish (the per-shard micro-mutexes of the sharded stage cache
   live in :mod:`repro.core.plan.cache`, outside this rule's scope, by
   design).

``__init__`` is exempt from half 1: the object is not yet shared
while it is being built.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.tools.reprolint.base import (
    Checker,
    call_name,
    dotted_name,
    iter_functions,
    register,
)

__all__ = ["LockDisciplineChecker"]

_BLOCKING_CALLEES = {"sleep", "fsync", "open"}


@register
class LockDisciplineChecker(Checker):
    rule = "RL003"
    summary = (
        "service mutations (shared registries, active-snapshot writes) "
        "happen under self._lock without blocking calls; declared "
        "lock-free query-path methods must not acquire any lock"
    )
    default_options: dict[str, Any] = {
        # class name -> shared attributes every access to which must be
        # inside `with self.<lock_attr>`
        "classes": {
            "DatasetService": ("_snapshots", "_n_sessions"),
            "SharedQueryEngine": (),
        },
        # class name -> attributes whose *writes* must be locked while
        # reads stay free (the atomically-published references that make
        # the lock-free read path possible)
        "write_guarded": {
            "DatasetService": ("_active",),
        },
        # class name -> methods on the query path that must not acquire
        # any lock at all
        "lockfree_methods": {
            "DatasetService": ("active_epoch", "_pin_active"),
            "SessionView": ("run_query",),
        },
        "lock_attr": "_lock",
        "exempt_methods": ("__init__",),
    }

    def check(self, tree: ast.AST) -> list:
        """Walk guarded-class methods tracking lock coverage."""
        guarded: dict[str, tuple[str, ...]] = {
            k: tuple(v) for k, v in self.options["classes"].items()
        }
        write_guarded: dict[str, tuple[str, ...]] = {
            k: tuple(v) for k, v in self.options["write_guarded"].items()
        }
        lockfree: dict[str, tuple[str, ...]] = {
            k: tuple(v) for k, v in self.options["lockfree_methods"].items()
        }
        for fn, cls in iter_functions(tree):
            if cls is None:
                continue
            # attributes whose inferred type is a threading lock — catches
            # `self._mtx = _L()` under `from threading import RLock as _L`,
            # which the configured attr-name match alone cannot see
            self._lock_typed_attrs = self._lock_attrs_for(cls.name)
            if fn.name in lockfree.get(cls.name, ()):
                self._check_lockfree(fn)
            if cls.name not in guarded and cls.name not in write_guarded:
                continue
            attrs = set(guarded.get(cls.name, ()))
            write_attrs = set(write_guarded.get(cls.name, ()))
            exempt = fn.name in self.options["exempt_methods"]
            self._walk(
                fn, fn.body, attrs, write_attrs, locked=False, exempt=exempt
            )
        return self.findings

    def _lock_attrs_for(self, class_name: str) -> frozenset[str]:
        if self.symbols is None:
            return frozenset()
        ci = self.symbols.classes.get(class_name)
        if ci is None:
            return frozenset()
        from repro.tools.reprolint.program.ops import lock_attrs_of_class

        return lock_attrs_of_class(ci, self.symbols)

    def _is_lock_ctx(self, expr: ast.expr) -> bool:
        dotted = call_name(expr) if isinstance(expr, ast.Call) else ""
        if not dotted and isinstance(expr, (ast.Attribute, ast.Name)):
            dotted = dotted_name(expr)
        last = dotted.split(".")[-1]
        if last in getattr(self, "_lock_typed_attrs", frozenset()):
            return True
        return last == self.options["lock_attr"] or dotted.endswith(
            "." + self.options["lock_attr"]
        )

    # Half 2: the query path stays lock-free --------------------------------
    def _check_lockfree(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for node in ast.walk(fn):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if self._is_lock_ctx(item.context_expr):
                        self.add(
                            item.context_expr,
                            f"{fn.name!r} is a declared lock-free query-path "
                            "method but enters a lock context: queries must "
                            "resolve the active snapshot atomically and never "
                            "queue behind a publish — move the locked work to "
                            "a mutation method",
                        )
            elif isinstance(node, ast.Call):
                if call_name(node).split(".")[-1] == "acquire":
                    self.add(
                        node,
                        f"{fn.name!r} is a declared lock-free query-path "
                        "method but calls .acquire(): the read path must not "
                        "take any lock",
                    )

    # Half 1: mutations under the lock ---------------------------------------
    def _walk(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        stmts: list[ast.stmt],
        attrs: set[str],
        write_attrs: set[str],
        *,
        locked: bool,
        exempt: bool,
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                takes_lock = any(
                    self._is_lock_ctx(item.context_expr) for item in stmt.items
                )
                for item in stmt.items:
                    self._check_expr(
                        fn, item.context_expr, attrs, write_attrs, locked, exempt
                    )
                self._walk(
                    fn, stmt.body, attrs, write_attrs,
                    locked=locked or takes_lock, exempt=exempt,
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scope, analysed separately
            else:
                for field_name, value in ast.iter_fields(stmt):
                    if field_name in ("body", "orelse", "finalbody", "handlers"):
                        continue
                    for expr in _exprs(value):
                        self._check_expr(
                            fn, expr, attrs, write_attrs, locked, exempt
                        )
                for block in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, block, None)
                    if inner:
                        self._walk(
                            fn, inner, attrs, write_attrs,
                            locked=locked, exempt=exempt,
                        )
                for handler in getattr(stmt, "handlers", []) or []:
                    self._walk(
                        fn, handler.body, attrs, write_attrs,
                        locked=locked, exempt=exempt,
                    )

    def _check_expr(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        expr: ast.AST,
        attrs: set[str],
        write_attrs: set[str],
        locked: bool,
        exempt: bool,
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return
            if (
                not exempt
                and not locked
                and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                if node.attr in attrs:
                    self.add(
                        node,
                        f"{fn.name!r} accesses shared attribute self.{node.attr} "
                        f"outside `with self.{self.options['lock_attr']}`: a "
                        "concurrent session can observe (or corrupt) a half-"
                        "updated registry — take the lock around the access",
                    )
                elif node.attr in write_attrs and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    self.add(
                        node,
                        f"{fn.name!r} writes atomically-published reference "
                        f"self.{node.attr} outside `with "
                        f"self.{self.options['lock_attr']}`: publication must "
                        "be serialized against other mutations (lock-free "
                        "*reads* of it are the point — writes are not)",
                    )
            if locked and isinstance(node, ast.Call):
                # alias-resolved, so `from time import sleep as zzz`
                # still reads as time.sleep
                dotted = self.resolve(call_name(node))
                parts = dotted.split(".")
                if parts[-1] in _BLOCKING_CALLEES or (
                    parts[-1] == "map"
                    and len(parts) >= 2
                    and "pool" in parts[-2].lower()
                ):
                    self.add(
                        node,
                        f"blocking call {dotted}() while holding "
                        f"self.{self.options['lock_attr']}: every other "
                        "session stalls behind it — move the slow work "
                        "outside the locked region",
                    )


def _exprs(value: Any) -> list[ast.AST]:
    """Expression nodes inside one statement field (list or single)."""
    if isinstance(value, ast.AST):
        return [value]
    if isinstance(value, list):
        return [v for v in value if isinstance(v, ast.AST)]
    return []
