"""Combined copy-prop / const-fold / DCE as one sparse worklist pass.

The legacy pipeline ran :func:`~repro.opt.copy_propagation.propagate_copies`,
:func:`~repro.opt.constant_folding.fold_constants`, and
:func:`~repro.opt.dce.eliminate_dead_code` inside a ``FixpointGroup`` that
re-scanned the whole function until quiescence — O(n²) in the worst case,
and a dense sweep even when nothing changed.  This pass replaces the group
with a single worklist driven by the function's def-use chains
(:mod:`repro.ir.defuse`): every instruction is visited once from the seed,
and only *transitively affected* users/defs are revisited afterwards.

Equivalence contract: the transformations applied are exactly those of the
three legacy passes —

* **copy resolution** follows ``Copy`` def chains through the chains index
  (never through π-assignments; a π destination carries a branch/check
  constraint and must keep its name), renaming variable uses and
  substituting constants only into operand positions
  (:func:`~repro.opt.copy_propagation._rewrite_const_uses` semantics —
  array names and π sources keep the variable);
* **folding** reuses :func:`~repro.opt.constant_folding._fold_instr`
  verbatim (literal arithmetic/comparisons, ``x+0`` identities, no
  folding of division by literal zero) and the same branch-to-jump
  simplification with φ-operand pruning and unreachable-block removal;
* **DCE** removes the same ``_PURE`` instruction classes with zero uses
  (πs are never in that set and are always kept).

Sparseness is driven by two signals:

* rewriting or deleting an instruction enqueues it (and, for new copy
  definitions, the users of the defined name);
* the chains' ``on_use_removed`` hook enqueues the defining instruction
  of every value that just lost a use — the DCE cascade without a rescan.

The pass reports :class:`WorklistResult` with ``instructions_visited``
(worklist pops that did work) and ``worklist_revisits`` (pops of an
instruction already visited once), which the session telemetry surfaces
so the sparseness win is measurable rather than asserted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Set

from repro.ir.defuse import DefUseChains
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Const,
    Copy,
    Instr,
    Jump,
    Operand,
    Phi,
    Var,
)
from repro.opt.constant_folding import _fold_instr
from repro.opt.copy_propagation import _rewrite_const_uses
from repro.opt.dce import is_removable


@dataclass
class WorklistResult:
    """Outcome of one :func:`optimize_worklist` run."""

    changes: int
    instructions_visited: int
    worklist_revisits: int

    @property
    def converged_in_one_pass(self) -> bool:
        """Always true by construction — the worklist reaches quiescence in
        a single invocation; kept as an explicit, testable statement."""
        return True


def optimize_worklist(fn: Function) -> WorklistResult:
    """Run the combined sparse optimization to quiescence; returns stats."""
    if fn.ssa_form == "none":
        raise ValueError("worklist optimization requires SSA form")
    return _Worklist(fn).run()


class _Worklist:
    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.chains: DefUseChains = fn.def_use()
        self.queue: Deque[Instr] = deque()
        self.queued: Set[int] = set()
        #: id(instr) -> instr.  The value keeps a visited instruction
        #: alive for the run, so a later one cannot reuse its id.
        self.visited_once: Dict[int, Instr] = {}
        self.visited = 0
        self.revisits = 0
        self.changes = 0

    # ------------------------------------------------------------------
    # Worklist plumbing.
    # ------------------------------------------------------------------

    def enqueue(self, instr: Instr) -> None:
        key = id(instr)
        if key not in self.queued:
            self.queued.add(key)
            self.queue.append(instr)

    def _on_use_removed(self, name: str) -> None:
        # A value just lost a use occurrence: its definition may now be
        # dead.  This hook is the entire DCE cascade.
        info = self.chains.info(name)
        if info is not None:
            for def_instr in info.defs:
                self.enqueue(def_instr)

    def run(self) -> WorklistResult:
        chains = self.chains
        previous_hook = chains.on_use_removed
        chains.on_use_removed = self._on_use_removed
        try:
            # Seed: every instruction exactly once, in block order (the
            # legacy passes scanned all blocks, reachable or not).
            for block in self.fn.blocks.values():
                for instr in block.instructions():
                    self.enqueue(instr)
            while self.queue:
                instr = self.queue.popleft()
                self.queued.discard(id(instr))
                if not chains.contains(instr):
                    continue  # deleted (or block removed) since queued
                self.visited += 1
                if id(instr) in self.visited_once:
                    self.revisits += 1
                else:
                    self.visited_once[id(instr)] = instr
                self._process(instr)
        finally:
            chains.on_use_removed = previous_hook
        return WorklistResult(self.changes, self.visited, self.revisits)

    # ------------------------------------------------------------------
    # Per-instruction transformations (the three legacy passes fused).
    # ------------------------------------------------------------------

    def _process(self, instr: Instr) -> None:
        label = self.chains.block_of(instr)

        self._resolve_operands(instr)

        if isinstance(instr, Branch):
            if isinstance(instr.cond, Const):
                self._fold_branch(label, instr)
            return

        folded = _fold_instr(instr)
        if folded is not None:
            self.fn.replace_instr(label, instr, folded)
            self.changes += 1
            self.enqueue(folded)
            dest = folded.defs()
            if dest is not None:
                # A fresh Copy definition: users resolved this name while
                # it was still a computation, so they must look again.
                for user in self.chains.users_of(dest):
                    self.enqueue(user)
            return

        dest = instr.defs()
        if (
            is_removable(instr)
            and dest is not None
            and self.chains.use_count(dest) == 0
        ):
            if isinstance(instr, Phi):
                self.fn.remove_phi(label, instr)
            else:
                self.fn.remove_instr(label, instr)
            self.changes += 1

    def _resolve(self, name: str) -> Operand:
        """Follow ``Copy`` definitions to the ultimate source operand.

        Resolution stops at any non-copy definition — in particular at
        π-assignments, whose destinations must keep their constraint-
        carrying names — and at parameters / φs.
        """
        seen: Set[str] = set()
        operand: Operand = Var(name)
        while isinstance(operand, Var) and operand.name not in seen:
            seen.add(operand.name)
            definition = self.chains.def_of(operand.name)
            if not isinstance(definition, Copy):
                break
            operand = definition.src
        return operand

    def _resolve_operands(self, instr: Instr) -> None:
        """Rewrite ``instr``'s operands through copy chains (use side)."""
        if isinstance(instr, Copy):
            if isinstance(instr.src, Var):
                resolved = self._resolve(instr.src.name)
                if resolved != instr.src:
                    # Shorten the chain itself so DCE sees a simple copy.
                    def shorten() -> None:
                        instr.src = resolved

                    self.chains.update_uses(instr, shorten)
                    self.changes += 1
            return

        var_mapping: Dict[str, str] = {}
        const_sources: Dict[str, Const] = {}
        for name in set(instr.used_vars()):
            resolved = self._resolve(name)
            if isinstance(resolved, Var):
                if resolved.name != name:
                    var_mapping[name] = resolved.name
            elif isinstance(resolved, Const):
                const_sources[name] = resolved
        if not var_mapping and not const_sources:
            return

        def rewrite() -> None:
            if var_mapping:
                instr.rename_uses(var_mapping)
            if const_sources:
                _rewrite_const_uses(instr, const_sources)

        if self.chains.update_uses(instr, rewrite):
            self.changes += 1

    def _fold_branch(self, label: str, term: Branch) -> None:
        assert isinstance(term.cond, Const)
        taken = term.true_target if term.cond.value != 0 else term.false_target
        not_taken = term.false_target if term.cond.value != 0 else term.true_target
        self.fn.set_terminator(label, Jump(taken))
        self.changes += 1
        if not_taken != taken:
            for phi in list(self.fn.blocks[not_taken].phis):

                def prune(phi: Phi = phi) -> None:
                    phi.incomings.pop(label, None)

                self.chains.update_uses(phi, prune)
        self.fn.remove_unreachable_blocks()
