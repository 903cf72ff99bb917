"""Dead code elimination on (e-)SSA.

Iteratively removes pure instructions whose results are unused.  Side-
effecting instructions are always kept: checks (they may raise), stores,
calls (callee may raise or loop), allocations (``new int[n]`` raises on
negative ``n``), terminators.  Unused φs are pure and removable.

π-assignments are kept even when their destination is unused: a π is the
carrier of a branch/check constraint, and the GVN-augmented inequality
graph can route proofs of *other* variables through a π'd name via
congruence edges.  (A production JIT would run a final DCE after
bounds-check optimization; the harness measures check counts, which dead
πs do not affect.)
"""

from __future__ import annotations

from typing import Dict

from repro.ir.function import Function
from repro.ir.instructions import (
    ArrayLen,
    ArrayLoad,
    BinOp,
    Cmp,
    Const,
    Copy,
    Instr,
    Phi,
    Pi,
)

_PURE = (Copy, BinOp, Cmp, ArrayLen, ArrayLoad, Phi)


def is_removable(instr: Instr) -> bool:
    """True when deleting an unused ``instr`` cannot change behavior.

    Division and modulo trap on a zero divisor, so a dead ``div``/``mod``
    is only removable when its divisor is a *constant* nonzero — anything
    else must stay, or the optimized program silently skips a mandatory
    :class:`~repro.errors.DivisionByZeroError` (found by differential
    fuzzing; see ``tests/fuzz_corpus/``).
    """
    if not isinstance(instr, _PURE):
        return False
    if isinstance(instr, BinOp) and instr.op in ("div", "mod"):
        return isinstance(instr.rhs, Const) and instr.rhs.value != 0
    return True


def eliminate_dead_code(fn: Function) -> int:
    """Remove dead pure instructions; returns how many were removed."""
    # Legacy dense pass: drops instructions behind the def-use index.
    fn.invalidate_def_use()
    removed_total = 0
    while True:
        use_counts = _count_uses(fn)
        removed = 0
        for block in fn.blocks.values():
            keep_phis = []
            for phi in block.phis:
                if use_counts.get(phi.dest, 0) == 0:
                    removed += 1
                else:
                    keep_phis.append(phi)
            block.phis = keep_phis
            keep_body = []
            for instr in block.body:
                dest = instr.defs()
                if (
                    is_removable(instr)
                    and dest is not None
                    and use_counts.get(dest, 0) == 0
                ):
                    removed += 1
                else:
                    keep_body.append(instr)
            block.body = keep_body
        removed_total += removed
        if removed == 0:
            return removed_total


def _count_uses(fn: Function) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for instr in fn.all_instructions():
        for name in instr.used_vars():
            counts[name] = counts.get(name, 0) + 1
    return counts
