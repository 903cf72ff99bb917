"""Value-range (interval) analysis baseline for bounds-check elimination.

This is the comparison class the paper positions ABCD against: "some
simpler algorithms (e.g., those based upon value-range analysis [Har77,
Pat95]) cannot eliminate partially redundant checks" — and, being purely
numeric, they also cannot relate an index to a *symbolic* array length.

The analysis computes an integer interval per SSA variable by abstract
interpretation over the SSA value graph with widening at φs:

* arithmetic transfers on intervals (precise for ``± const``, conservative
  otherwise);
* π-assignments refine their source interval with the branch/check
  predicate — numeric bounds only (a predicate against another variable
  uses that variable's current interval; a predicate against ``len(A)``
  uses the tracked length interval);
* array lengths are tracked as intervals too: ``new int[c]`` pins the
  length exactly, ``new int[n]`` adopts ``n``'s interval intersected with
  ``[0, +inf)``.

A lower check is redundant when ``lo(index) >= 0``; an upper check when
``hi(index) <= lo(len(A)) - 1``.  The baseline therefore removes most
lower checks and the upper checks of constant-sized (or provably
large-enough) arrays — but no loop against a symbolic ``len(a)`` and no
partially redundant check, which is exactly the gap Figure 6 attributes
to ABCD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.function import Function, Program
from repro.ir.instructions import (
    ArrayLen,
    ArrayLoad,
    ArrayNew,
    BinOp,
    Call,
    CheckLower,
    CheckUpper,
    Cmp,
    Const,
    Copy,
    Operand,
    Phi,
    Pi,
    Var,
)

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A closed integer interval with ±inf endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        assert self.lo <= self.hi or (self.lo == INF and self.hi == -INF)

    @classmethod
    def top(cls) -> "Interval":
        return cls(-INF, INF)

    @classmethod
    def exact(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def at_least(cls, value: float) -> "Interval":
        return cls(value, INF)

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Classic interval widening: unstable bounds jump to ±inf."""
        lo = self.lo if other.lo >= self.lo else -INF
        hi = self.hi if other.hi <= self.hi else INF
        return Interval(lo, hi)

    def shift(self, amount: int) -> "Interval":
        return Interval(self.lo + amount, self.hi + amount)

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def clamp_lo(self, bound: float) -> "Interval":
        """Intersect with ``[bound, +inf)`` (empty collapses to bound)."""
        return Interval(max(self.lo, bound), max(self.hi, bound))

    def clamp_hi(self, bound: float) -> "Interval":
        return Interval(min(self.lo, bound), min(self.hi, bound))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass
class RangeReport:
    """Outcome of the baseline over one function or program."""

    analyzed_lower: int = 0
    analyzed_upper: int = 0
    eliminated_lower: int = 0
    eliminated_upper: int = 0
    eliminated_ids: set = field(default_factory=set)

    @property
    def analyzed(self) -> int:
        return self.analyzed_lower + self.analyzed_upper

    @property
    def eliminated(self) -> int:
        return self.eliminated_lower + self.eliminated_upper

    def merge(self, other: "RangeReport") -> None:
        self.analyzed_lower += other.analyzed_lower
        self.analyzed_upper += other.analyzed_upper
        self.eliminated_lower += other.eliminated_lower
        self.eliminated_upper += other.eliminated_upper
        self.eliminated_ids |= other.eliminated_ids


#: After this many refinements of one variable, widening kicks in.
_WIDEN_THRESHOLD = 3


class RangeAnalysis:
    """Interval analysis over one SSA/e-SSA function."""

    def __init__(self, fn: Function) -> None:
        if fn.ssa_form == "none":
            raise ValueError("range analysis requires SSA form")
        self._fn = fn
        self.ranges: Dict[str, Interval] = {}
        self.length_ranges: Dict[str, Interval] = {}
        self._update_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Fixpoint.
    # ------------------------------------------------------------------

    def run(self) -> None:
        for param in self._fn.params:
            self.ranges[param] = Interval.top()
        order = self._fn.reachable_blocks()
        converged = False
        for _ in range(256):  # φ-widening bounds the ascending chains
            changed = False
            for label in order:
                for instr in self._fn.blocks[label].instructions():
                    changed |= self._transfer(instr)
            if not changed:
                converged = True
                break
        if not converged:
            # Sound fallback: a truncated fixpoint would under-approximate,
            # so forget everything rather than risk removing a live check.
            for name in self.ranges:
                self.ranges[name] = Interval.top()
            for name in self.length_ranges:
                self.length_ranges[name] = Interval.at_least(0)

    def _value(self, operand: Operand) -> Interval:
        if isinstance(operand, Const):
            return Interval.exact(operand.value)
        assert isinstance(operand, Var)
        return self.ranges.get(operand.name, Interval.top())

    def _length(self, array: str) -> Interval:
        return self.length_ranges.get(array, Interval.at_least(0))

    def _update(
        self,
        name: str,
        new: Interval,
        table: Optional[Dict[str, Interval]] = None,
        widen_ok: bool = False,
    ) -> bool:
        table = self.ranges if table is None else table
        old = table.get(name)
        if old is not None:
            merged = old.join(new)
            count = self._update_counts.get(name, 0)
            # Widening only at φ (loop-head) merges: every cyclic dataflow
            # dependency passes through a φ, so that alone guarantees
            # termination, and it keeps π/copy refinements precise.
            if widen_ok and merged != old and count >= _WIDEN_THRESHOLD:
                merged = old.widen(merged)
            if merged == old:
                return False
            self._update_counts[name] = count + 1
            table[name] = merged
            return True
        table[name] = new
        self._update_counts[name] = 1
        return True

    def _transfer(self, instr) -> bool:
        if isinstance(instr, Copy):
            changed = self._update(instr.dest, self._value(instr.src))
            if isinstance(instr.src, Var) and instr.src.name in self.length_ranges:
                changed |= self._update(
                    instr.dest, self.length_ranges[instr.src.name], self.length_ranges
                )
            return changed
        if isinstance(instr, BinOp):
            return self._update(instr.dest, self._binop(instr))
        if isinstance(instr, Cmp):
            return self._update(instr.dest, Interval(0, 1))
        if isinstance(instr, ArrayLen):
            return self._update(instr.dest, self._length(instr.array))
        if isinstance(instr, ArrayNew):
            length = self._value(instr.length).clamp_lo(0)
            return self._update(instr.dest, length, self.length_ranges)
        if isinstance(instr, ArrayLoad):
            return self._update(instr.dest, Interval.top())
        if isinstance(instr, Call):
            if instr.dest is not None:
                return self._update(instr.dest, Interval.top())
            return False
        if isinstance(instr, Phi):
            # Optimistic iteration: skip operands whose defining
            # instruction has not produced a value yet — they contribute
            # on a later round (the fixpoint loop re-runs until stable).
            merged: Optional[Interval] = None
            for operand in instr.incomings.values():
                if isinstance(operand, Var) and operand.name not in self.ranges:
                    continue
                incoming = self._value(operand)
                merged = incoming if merged is None else merged.join(incoming)
            if merged is None:
                return False
            changed = self._update(instr.dest, merged, widen_ok=True)
            # An array φ merges length information as well.
            length: Optional[Interval] = None
            for operand in instr.incomings.values():
                if isinstance(operand, Var) and operand.name in self.length_ranges:
                    incoming = self.length_ranges[operand.name]
                    length = incoming if length is None else length.join(incoming)
            if length is not None:
                changed |= self._update(instr.dest, length, self.length_ranges)
            return changed
        if isinstance(instr, Pi):
            return self._pi(instr)
        return False

    def _binop(self, instr: BinOp) -> Interval:
        lhs, rhs = self._value(instr.lhs), self._value(instr.rhs)
        if instr.op == "add":
            return lhs.add(rhs)
        if instr.op == "sub":
            return lhs.sub(rhs)
        if instr.op == "mul":
            if isinstance(instr.lhs, Const) and isinstance(instr.rhs, Const):
                return Interval.exact(instr.lhs.value * instr.rhs.value)
            # Sign-preserving special case: non-negative times non-negative.
            if lhs.lo >= 0 and rhs.lo >= 0:
                return Interval.at_least(0)
            return Interval.top()
        if instr.op in ("div", "mod"):
            if instr.op == "mod" and isinstance(instr.rhs, Const) and instr.rhs.value > 0:
                bound = instr.rhs.value - 1
                if lhs.lo >= 0:
                    return Interval(0, bound)
                return Interval(-bound, bound)
            if instr.op == "div" and lhs.lo >= 0 and rhs.lo >= 1:
                return Interval(0, lhs.hi)
            return Interval.top()
        return Interval.top()

    def _pi(self, instr: Pi) -> bool:
        source = self.ranges.get(instr.src, Interval.top())
        predicate = instr.predicate
        refined = source
        changed = False
        if predicate.arraylen_of is not None:
            if predicate.rel == "lt":
                length = self._length(predicate.arraylen_of)
                refined = refined.clamp_hi(length.hi - 1)
        else:
            assert predicate.other is not None
            other = self._value(predicate.other)
            if predicate.rel == "lt":
                refined = refined.clamp_hi(other.hi - 1)
            elif predicate.rel == "le":
                refined = refined.clamp_hi(other.hi)
            elif predicate.rel == "gt":
                refined = refined.clamp_lo(other.lo + 1)
            elif predicate.rel == "ge":
                refined = refined.clamp_lo(other.lo)
            elif predicate.rel == "eq":
                refined = refined.clamp_lo(other.lo).clamp_hi(other.hi)
        changed |= self._update(instr.dest, refined)
        # Arrays flowing through πs keep their length interval.
        if instr.src in self.length_ranges:
            changed |= self._update(
                instr.dest, self.length_ranges[instr.src], self.length_ranges
            )
        return changed

    # ------------------------------------------------------------------
    # Elimination.
    # ------------------------------------------------------------------

    def redundant_lower(self, instr: CheckLower) -> bool:
        return self._value(instr.index).lo >= 0

    def redundant_upper(self, instr: CheckUpper) -> bool:
        index = self._value(instr.index)
        length = self._length(instr.array)
        return index.hi <= length.lo - 1


def eliminate_with_ranges(fn: Function) -> RangeReport:
    """Run the baseline over one function, removing provably redundant
    checks in place."""
    analysis = RangeAnalysis(fn)
    analysis.run()
    report = RangeReport()
    for block in fn.blocks.values():
        kept: List = []
        for instr in block.body:
            if isinstance(instr, CheckLower):
                report.analyzed_lower += 1
                if analysis.redundant_lower(instr):
                    report.eliminated_lower += 1
                    report.eliminated_ids.add(instr.check_id)
                    continue
            elif isinstance(instr, CheckUpper):
                report.analyzed_upper += 1
                if analysis.redundant_upper(instr):
                    report.eliminated_upper += 1
                    report.eliminated_ids.add(instr.check_id)
                    continue
            kept.append(instr)
        block.body = kept
    return report


def eliminate_program_with_ranges(program: Program) -> RangeReport:
    """Run the baseline over every function of a program."""
    report = RangeReport()
    for fn in program.functions.values():
        report.merge(eliminate_with_ranges(fn))
    return report
