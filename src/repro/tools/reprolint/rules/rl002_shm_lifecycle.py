"""RL002 — shared-memory block lifecycle pairing.

Every shared block (PR 3) has exactly one owner.  Two failure modes a
code review keeps missing:

1. **Orphaned creation.**  A block created and then dropped on an
   exception path leaks a ``/dev/shm`` segment until reboot.  Creation
   must therefore be paired with teardown in the *same scope*: a
   ``with`` statement, a ``try/finally`` calling ``close``/``unlink``,
   an ``atexit`` registration — or an explicit ownership transfer
   (returning the block, storing it on an object/registry).

2. **Attach-side unlink.**  Only the creating process may remove a
   block's name; a consumer that attached and then calls ``unlink()``
   destroys the data plane for every other session.  Outside the
   lifecycle module itself, unlinking an attached block is always a
   bug.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.tools.reprolint.base import Checker, call_name, iter_functions, register
from repro.tools.reprolint.config import module_name_for

__all__ = ["ShmLifecycleChecker"]

_CREATE_SUFFIXES = ("create_block",)
_CTOR_SUFFIXES = ("SharedBlock", "SharedMemory")
_ATTACH_SUFFIXES = ("attach_block",)


def _kw_true(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


@register
class ShmLifecycleChecker(Checker):
    rule = "RL002"
    summary = (
        "shared-memory creation must be paired with close/unlink (with/"
        "finally/atexit) or ownership transfer; attached blocks must "
        "never be unlinked outside the lifecycle module"
    )
    default_options: dict[str, Any] = {
        # modules where attach-side unlink handling is the whole point
        "attach_unlink_allowed_modules": ("repro.store.shm",),
    }

    def _is_creation(self, call: ast.Call) -> bool:
        # resolve through the import map so `from repro.store.shm import
        # create_block as _cb` cannot hide the creation site
        last = self.resolved_call_name(call).split(".")[-1]
        if last in _CREATE_SUFFIXES:
            return True
        return last in _CTOR_SUFFIXES and _kw_true(call, "create")

    def _is_attach(self, call: ast.Call) -> bool:
        return self.resolved_call_name(call).split(".")[-1] in _ATTACH_SUFFIXES

    def check(self, tree: ast.AST) -> list:
        """Check creation pairing and attach-side unlinks per function."""
        module = module_name_for(self.path)
        allow_attach_unlink = module in self.options["attach_unlink_allowed_modules"]
        for fn, _cls in iter_functions(tree):
            self._check_function(fn, allow_attach_unlink)
        return self.findings

    def _check_function(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        allow_attach_unlink: bool,
    ) -> None:
        created: dict[str, ast.Call] = {}
        attached: set[str] = set()
        bare_creations: list[ast.Call] = []
        with_managed: set[int] = set()  # ids of creation calls used as ctx exprs
        names_in_with: set[str] = set()
        names_returned: set[str] = set()
        names_transferred: set[str] = set()
        names_atexit: set[str] = set()
        names_finally_closed: set[str] = set()

        own_nodes = _nodes_excluding_nested_functions(fn)

        for node in own_nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    ctx = item.context_expr
                    if isinstance(ctx, ast.Call) and self._is_creation(ctx):
                        with_managed.add(id(ctx))
                    elif isinstance(ctx, ast.Name):
                        names_in_with.add(ctx.id)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if self._is_creation(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            created[target.id] = node.value
                        else:
                            # created straight into an attribute/registry:
                            # ownership lives on the receiving object
                            with_managed.add(id(node.value))
                elif self._is_attach(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            attached.add(target.id)
            elif isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Call) and self._is_creation(node.value):
                    with_managed.add(id(node.value))  # caller takes ownership
                for name_node in ast.walk(node.value):
                    if isinstance(name_node, ast.Name):
                        names_returned.add(name_node.id)
            elif isinstance(node, ast.Try):
                for final_stmt in node.finalbody:
                    for call in ast.walk(final_stmt):
                        if isinstance(call, ast.Call):
                            dotted = call_name(call)
                            parts = dotted.split(".")
                            if parts[-1] in ("close", "unlink") and len(parts) == 2:
                                names_finally_closed.add(parts[0])

        for node in own_nodes:
            if isinstance(node, ast.Call) and self._is_creation(node):
                if id(node) not in with_managed and not _is_assigned_or_returned(
                    node, own_nodes
                ):
                    bare_creations.append(node)
            if isinstance(node, ast.Call) and self.resolved_call_name(
                node
            ).endswith("atexit.register"):
                for arg in ast.walk(node):
                    if isinstance(arg, ast.Name):
                        names_atexit.add(arg.id)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        if isinstance(node.value, ast.Name):
                            names_transferred.add(node.value.id)

        for call in bare_creations:
            self.add(
                call,
                "shared-memory block created and immediately dropped: nothing "
                "holds the mapping, so it can never be closed or unlinked — "
                "bind it, use a with-statement, or return it",
            )

        for name, call in created.items():
            if (
                name in names_in_with
                or name in names_returned
                or name in names_transferred
                or name in names_atexit
                or name in names_finally_closed
            ):
                continue
            self.add(
                call,
                f"shared-memory block {name!r} is created in {fn.name!r} but "
                "never paired with close/unlink on all exits: wrap it in a "
                "with-statement or try/finally (or transfer ownership by "
                "returning/storing it) so an exception cannot leak the "
                "/dev/shm segment",
            )

        if not allow_attach_unlink:
            for node in own_nodes:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unlink"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in attached
                ):
                    self.add(
                        node,
                        f"unlink() on attached block {node.func.value.id!r}: "
                        "only the creating process owns a block's name; an "
                        "attach-side unlink destroys the shared data plane "
                        "for every other session",
                    )


def _nodes_excluding_nested_functions(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.AST]:
    """All nodes in ``fn``'s own body, stopping at nested defs (they
    are analysed as their own scopes by the caller)."""
    out: list[ast.AST] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            out.append(child)
            walk(child)

    walk(fn)
    return out


def _is_assigned_or_returned(call: ast.Call, nodes: list[ast.AST]) -> bool:
    """Is ``call`` the value of an assignment or inside a return/yield
    expression (ownership leaves the statement)?"""
    for node in nodes:
        if isinstance(node, ast.Assign) and node.value is call:
            return True
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and any(n is call for n in ast.walk(node.value)):
                return True
    return False
