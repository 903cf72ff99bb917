"""Dominator-based global value numbering (analysis only).

Assigns every SSA variable a value class such that variables in one class
provably hold the same run-time value.  Congruence sources:

* ``Copy dest, src`` and ``Pi dest, src`` — a π is a run-time copy, so its
  destination is value-congruent to its source (its *constraints* differ,
  which is why the transformation passes never merge πs, but for value
  identity they are equal);
* pure expressions (``BinOp``, ``Cmp``, ``ArrayLen``) with identical
  opcode and congruent operands, discovered in dominator-tree preorder so
  the representative always dominates later members;
* φs in the same block with pairwise congruent operands.

ABCD consumes the classes for the Section-7.1 extension: when
``x <= len(B) - 1`` is provable and ``B`` is congruent to the checked
array ``A``, the check on ``A[x]`` is redundant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    ArrayLen,
    BinOp,
    Cmp,
    Const,
    Copy,
    Operand,
    Phi,
    Pi,
    Var,
)


class ValueNumbering:
    """The result of value numbering one function."""

    def __init__(self, class_of: Dict[str, int], members: Dict[int, Set[str]]) -> None:
        self.class_of = class_of
        self._members = members

    def congruent(self, a: str, b: str) -> bool:
        return (
            a in self.class_of
            and b in self.class_of
            and self.class_of[a] == self.class_of[b]
        )

    def class_members(self, name: str) -> Set[str]:
        if name not in self.class_of:
            return {name}
        return set(self._members[self.class_of[name]])


def value_number(fn: Function, domtree=None) -> ValueNumbering:
    """Run dominator-order value numbering over an SSA function.

    Pass a precomputed ``domtree`` (e.g. from the session's
    AnalysisManager) to avoid recomputing dominance here.
    """
    if fn.ssa_form == "none":
        raise ValueError("value numbering requires SSA form")
    if domtree is None:
        domtree = DominatorTree.compute(fn)

    class_of: Dict[str, int] = {}
    next_class = [0]

    def fresh_class(name: str) -> int:
        number = next_class[0]
        next_class[0] += 1
        class_of[name] = number
        return number

    def operand_key(op: Operand):
        if isinstance(op, Const):
            return ("const", op.value)
        assert isinstance(op, Var)
        if op.name not in class_of:
            fresh_class(op.name)
        return ("class", class_of[op.name])

    for param in fn.params:
        fresh_class(param)

    expr_table: Dict[Tuple, int] = {}

    for label in domtree.preorder():
        block = fn.blocks[label]
        for phi in block.phis:
            key = ("phi", label) + tuple(
                sorted(
                    (pred, operand_key(op)) for pred, op in phi.incomings.items()
                )
            )
            known = expr_table.get(key)
            if known is not None:
                class_of[phi.dest] = known
            else:
                expr_table[key] = fresh_class(phi.dest)
        for instr in block.body:
            dest = instr.defs()
            if dest is None:
                continue
            # Value aliases inherit the class of their source directly:
            # a π or variable copy denotes the same run-time value.
            alias = _alias_source(instr)
            if alias is not None:
                if alias not in class_of:
                    fresh_class(alias)
                class_of[dest] = class_of[alias]
                continue
            key = _expr_key(instr, operand_key)
            if key is None:
                fresh_class(dest)
                continue
            known = expr_table.get(key)
            if known is not None:
                class_of[dest] = known
            else:
                expr_table[key] = fresh_class(dest)

    members: Dict[int, Set[str]] = {}
    for name, number in class_of.items():
        members.setdefault(number, set()).add(name)
    return ValueNumbering(class_of, members)


def _alias_source(instr) -> Optional[str]:
    """The variable this instruction is a pure value-copy of, if any."""
    if isinstance(instr, Copy) and isinstance(instr.src, Var):
        return instr.src.name
    if isinstance(instr, Pi):
        return instr.src
    return None


def _expr_key(instr, operand_key) -> Optional[Tuple]:
    if isinstance(instr, Copy):
        # Variable copies are handled as aliases; this covers constants.
        return ("value", operand_key(instr.src))
    if isinstance(instr, BinOp):
        lhs, rhs = operand_key(instr.lhs), operand_key(instr.rhs)
        if instr.op in ("add", "mul"):  # commutative
            lhs, rhs = sorted((lhs, rhs))
        return ("binop", instr.op, lhs, rhs)
    if isinstance(instr, Cmp):
        return ("cmp", instr.op, operand_key(instr.lhs), operand_key(instr.rhs))
    if isinstance(instr, ArrayLen):
        return ("arraylen", operand_key(Var(instr.array)))
    return None
