"""RL008 — epoch rollover discipline.

The streaming-ingest rollover (PR 6) is a two-phase commit whose
safety rests on three structural facts:

1. The **swap is single-entry**: only
   :class:`~repro.store.ingest.RolloverCoordinator` calls
   ``DatasetService._swap_active`` — it owns the staging phase and the
   buffer commit that make the swap safe.  A swap call anywhere else
   publishes an epoch the ingest buffer does not know about.
2. The service's **active handle is never mutated directly**:
   assignments like ``service.dataset = ...``, ``service.engine =
   ...`` or ``service._active = ...`` outside the service/ingest
   modules bypass epoch-snapshot registration, session pinning, and
   snapshot retirement in one line.  (Inside the service, ``_active`` is
   the atomically-published snapshot reference — the single write the
   swap performs; RL003 additionally requires that write to happen
   under the service lock.)
3. **Deadlines are boundary-only**: the executor consults the query
   deadline *between* stages, never inside stage execution or partial
   synthesis — a mid-kernel deadline check would make stage outputs
   (and therefore cache entries) timing-dependent.

This checker encodes all three.  Options:

``allowed_modules``
    Dotted modules where swap calls / handle assignment are the
    implementation itself (default: the service and ingest modules).
``swap_method``
    The commit-point method name.
``handle_attrs``
    Attributes of a service object that only the swap may retarget.
``stage_fns``
    Executor functions that must stay deadline-free.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.tools.reprolint.base import (
    Checker,
    dotted_name,
    iter_functions,
    register,
)
from repro.tools.reprolint.config import module_name_for

__all__ = ["RolloverDisciplineChecker"]


@register
class RolloverDisciplineChecker(Checker):
    rule = "RL008"
    summary = (
        "epoch swaps go through RolloverCoordinator only: no foreign "
        "_swap_active calls, no direct mutation of a service's active "
        "dataset/engine handle, no deadline checks inside stage bodies"
    )
    default_options: dict[str, Any] = {
        "allowed_modules": ("repro.store.service", "repro.store.ingest"),
        "swap_method": "_swap_active",
        "handle_attrs": ("dataset", "engine", "_active"),
        "stage_fns": ("_execute_stage", "_partial_stage"),
    }

    def check(self, tree: ast.AST) -> list:
        """Apply the three rollover invariants to one module."""
        module = module_name_for(self.path)
        privileged = module in set(self.options["allowed_modules"])
        if not privileged:
            self._check_swap_calls(tree)
            self._check_handle_assignments(tree)
        self._check_stage_deadlines(tree)
        return self.findings

    # 1. foreign swap calls -------------------------------------------------
    def _check_swap_calls(self, tree: ast.AST) -> None:
        swap = self.options["swap_method"]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if self.resolved_call_name(node).split(".")[-1] == swap:
                self.add(
                    node,
                    f"call to {swap}() outside the service/ingest modules: "
                    "epoch swaps must go through RolloverCoordinator, which "
                    "stages the new epoch and commits the ingest buffer",
                )

    # 2. direct mutation of the active handle -------------------------------
    def _check_handle_assignments(self, tree: ast.AST) -> None:
        handle_attrs = set(self.options["handle_attrs"])
        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                if target.attr not in handle_attrs:
                    continue
                base = dotted_name(target.value)
                if "service" in base.split(".")[-1].lower():
                    self.add(
                        target,
                        f"direct assignment to {base}.{target.attr}: "
                        "retargeting a service's active handle bypasses "
                        "epoch registration, session pinning and snapshot "
                        "retirement — ingest through RolloverCoordinator",
                    )

    # 3. deadline checks inside stage bodies --------------------------------
    def _check_stage_deadlines(self, tree: ast.AST) -> None:
        stage_fns = set(self.options["stage_fns"])
        for fn, _cls in iter_functions(tree):
            if fn.name not in stage_fns:
                continue
            for node in ast.walk(fn):
                name = ""
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    name = node.attr
                if "deadline" in name.lower():
                    self.add(
                        node,
                        f"{fn.name!r} consults {name!r}: deadlines are "
                        "enforced at stage boundaries only — a mid-stage "
                        "check makes stage outputs timing-dependent and "
                        "poisons the cache",
                    )
