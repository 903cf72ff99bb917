"""Loop versioning: the restructuring-based comparator (paper: [MMS98]).

The paper's related work contrasts ABCD with Midkiff/Moreira/Snir-style
optimization of scientific Java: *version* each loop into a check-free
fast copy and an unmodified slow copy, selected by a run-time test of the
loop bounds against the array length ("partitioning a loop iteration space
into safe and unsafe regions").  ABCD's authors argue such code
duplication is too expensive for a dynamic compiler; this module makes the
trade-off measurable.

The implementation runs on **non-SSA** IR (between lowering and e-SSA):

1. find natural loops whose header tests a *basic induction variable*
   ``i`` (all in-loop updates are ``i := i + c`` with ``c >= 0``) against
   a loop-invariant bound — an invariant variable/constant ``B`` or a
   header-recomputed ``len(A)`` of an invariant array;
2. collect candidate checks: ``checklower``/``checkupper`` on indices of
   the form ``i + k`` (constant offset) over loop-invariant arrays.  Each
   check's *slack* accounts for the induction increments that can execute
   earlier in the same iteration (an access after ``i := i + 1`` sees a
   larger value than the header test did);
3. in a preheader, emit the versioning tests —
   ``B + k + slack <= len(A)`` for upper checks and ``i + k >= 0``
   evaluated at the preheader (where ``i`` still holds its initial value)
   for lower checks;
4. clone the loop body; the fast clone drops the candidate checks, the
   original remains the slow path.  Cloned checks keep their ids so
   exception attribution matches the unversioned program.

The measured contrast (``benchmarks/bench_loop_versioning.py``): similar
dynamic check reduction on inductive loops, but paid for with code-size
growth that ABCD's in-place removal avoids, and no coverage of non-loop
or non-inductive checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.loops import NaturalLoop, find_natural_loops
from repro.ir.function import BasicBlock, Function, Program
from repro.ir.instructions import (
    ArrayLen,
    BinOp,
    Branch,
    CheckLower,
    CheckUpper,
    Cmp,
    Const,
    Copy,
    Instr,
    Jump,
    Operand,
    Var,
)


@dataclass
class VersioningReport:
    """Outcome of the pass over a function or program."""

    loops_versioned: int = 0
    checks_removed_in_fast_path: int = 0
    blocks_added: int = 0

    def merge(self, other: "VersioningReport") -> None:
        self.loops_versioned += other.loops_versioned
        self.checks_removed_in_fast_path += other.checks_removed_in_fast_path
        self.blocks_added += other.blocks_added


@dataclass(frozen=True)
class _LenExpr:
    """A loop bound that is ``len(array)`` recomputed in the header."""

    array: str


_Bound = Union[Operand, _LenExpr]


@dataclass
class _UpperCandidate:
    check: CheckUpper
    array: str
    offset: int
    slack: int  # increments that may precede the access in one iteration


@dataclass
class _LowerCandidate:
    check: CheckLower
    offset: int


@dataclass
class _LoopPlan:
    loop: NaturalLoop
    ivar: str
    bound: _Bound
    strict: bool  # header tests i < B (True) or i <= B (False)
    body_target: str
    exit_target: str
    uppers: List[_UpperCandidate] = field(default_factory=list)
    lowers: List[_LowerCandidate] = field(default_factory=list)

    @property
    def candidate_checks(self) -> List[Instr]:
        return [c.check for c in self.uppers] + [c.check for c in self.lowers]


def version_loops(fn: Function, program: Program) -> VersioningReport:
    """Apply loop versioning to one non-SSA function in place."""
    if fn.ssa_form != "none":
        raise ValueError("loop versioning must run before SSA construction")
    report = VersioningReport()
    loops = find_natural_loops(fn)
    # Plan against a stable snapshot: versioning adds loops (the clones),
    # which must not be re-versioned.
    plans = []
    for loop in loops:
        plan = _plan_loop(fn, loop)
        if plan is not None and plan.candidate_checks:
            plans.append(plan)
    for plan in plans:
        _apply(fn, program, plan, report)
    if plans:
        # Versioning clones blocks and rewires edges directly; drop the
        # def-use index.
        fn.invalidate_def_use()
    return report


def version_program_loops(program: Program) -> VersioningReport:
    report = VersioningReport()
    for fn in program.functions.values():
        report.merge(version_loops(fn, program))
    return report


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------


def _definitions_in_loop(fn: Function, loop: NaturalLoop) -> Dict[str, List[Instr]]:
    defs: Dict[str, List[Instr]] = {}
    for label in loop.body:
        for instr in fn.blocks[label].instructions():
            dest = instr.defs()
            if dest is not None:
                defs.setdefault(dest, []).append(instr)
    return defs


def _plan_loop(fn: Function, loop: NaturalLoop) -> Optional[_LoopPlan]:
    header = fn.blocks[loop.header]
    term = header.terminator
    if not isinstance(term, Branch) or not isinstance(term.cond, Var):
        return None
    in_loop = {term.true_target in loop.body, term.false_target in loop.body}
    if in_loop != {True, False}:
        return None  # need one arm in, one out
    body_target = term.true_target if term.true_target in loop.body else term.false_target
    exit_target = term.false_target if body_target == term.true_target else term.true_target

    cmp = _defining_cmp(header, term.cond.name)
    if cmp is None:
        return None
    defs = _definitions_in_loop(fn, loop)

    ivar, raw_bound, rel = _normalized_condition(cmp, body_target == term.true_target)
    if ivar is None or rel not in ("lt", "le"):
        return None
    if ivar in () or ivar not in defs:
        return None  # the tested variable must actually be an IV

    bound = _resolve_bound(fn, loop, defs, raw_bound)
    if bound is None:
        return None

    if _induction_increments(fn, loop, defs, ivar) is None:
        return None

    plan = _LoopPlan(
        loop=loop,
        ivar=ivar,
        bound=bound,
        strict=(rel == "lt"),
        body_target=body_target,
        exit_target=exit_target,
    )
    _collect_candidate_checks(fn, loop, defs, plan)
    return plan


def _resolve_bound(
    fn: Function, loop: NaturalLoop, defs: Dict[str, List[Instr]], bound
) -> Optional[_Bound]:
    """Accept an invariant operand, or a header-recomputed ``len(A)``
    (the shape ``while (i < len(a))`` lowers to)."""
    if isinstance(bound, Const):
        return bound
    assert isinstance(bound, Var)
    bound_defs = defs.get(bound.name)
    if bound_defs is None:
        return bound  # defined outside: invariant
    if len(bound_defs) == 1 and isinstance(bound_defs[0], ArrayLen):
        array = bound_defs[0].array
        if array not in defs:  # the array reference itself is invariant
            return _LenExpr(array)
    return None


def _defining_cmp(block: BasicBlock, cond: str) -> Optional[Cmp]:
    for instr in reversed(block.body):
        if instr.defs() == cond:
            return instr if isinstance(instr, Cmp) else None
    return None


def _normalized_condition(cmp: Cmp, body_on_true: bool):
    """Return (ivar, bound, rel) such that ``ivar rel bound`` holds on the
    body edge, for rel in lt/le (else (None, None, None))."""
    rel = cmp.op
    lhs, rhs = cmp.lhs, cmp.rhs
    if not body_on_true:
        rel = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}[rel]
    if rel in ("gt", "ge") and isinstance(rhs, Var):
        # B > i  ==  i < B (swap).
        lhs, rhs = rhs, lhs
        rel = {"gt": "lt", "ge": "le"}[rel]
    if rel in ("lt", "le") and isinstance(lhs, Var):
        return lhs.name, rhs, rel
    return None, None, None


def _induction_increments(
    fn: Function, loop: NaturalLoop, defs: Dict[str, List[Instr]], ivar: str
) -> Optional[List[Tuple[str, int, int]]]:
    """``(block, position, constant)`` for each update when ``ivar`` is a
    non-decreasing basic induction variable; ``None`` otherwise."""
    updates = defs.get(ivar, [])
    if not updates:
        return None
    located: List[Tuple[str, int, int]] = []
    positions = _instr_positions(fn, loop)
    for instr in updates:
        increment = _increment_of(fn, loop, defs, instr, ivar)
        if increment is None or increment < 0:
            return None
        block, position = positions[id(instr)]
        located.append((block, position, increment))
    return located


def _instr_positions(fn: Function, loop: NaturalLoop) -> Dict[int, Tuple[str, int]]:
    positions: Dict[int, Tuple[str, int]] = {}
    for label in loop.body:
        for position, instr in enumerate(fn.blocks[label].body):
            positions[id(instr)] = (label, position)
    return positions


def _increment_of(
    fn: Function,
    loop: NaturalLoop,
    defs: Dict[str, List[Instr]],
    instr: Instr,
    ivar: str,
    depth: int = 0,
) -> Optional[int]:
    """Constant c when ``instr`` is (a copy of) ``ivar + c``."""
    if depth > 4:
        return None
    if isinstance(instr, BinOp) and instr.op == "add":
        if instr.lhs == Var(ivar) and isinstance(instr.rhs, Const):
            return instr.rhs.value
        if instr.rhs == Var(ivar) and isinstance(instr.lhs, Const):
            return instr.lhs.value
        return None
    if isinstance(instr, Copy) and isinstance(instr.src, Var):
        source_defs = defs.get(instr.src.name, [])
        if len(source_defs) == 1:
            return _increment_of(fn, loop, defs, source_defs[0], ivar, depth + 1)
    return None


def _index_offset(
    defs: Dict[str, List[Instr]], operand: Operand, ivar: str, depth: int = 0
) -> Optional[int]:
    """k when ``operand`` evaluates to ``ivar + k`` at the check."""
    if depth > 6:
        return None
    if operand == Var(ivar):
        return 0
    if not isinstance(operand, Var):
        return None
    operand_defs = defs.get(operand.name, [])
    if len(operand_defs) != 1:
        return None
    definition = operand_defs[0]
    if isinstance(definition, Copy) and isinstance(definition.src, Var):
        return _index_offset(defs, definition.src, ivar, depth + 1)
    if isinstance(definition, BinOp) and definition.op == "add":
        if isinstance(definition.rhs, Const):
            base = _index_offset(defs, definition.lhs, ivar, depth + 1)
            return None if base is None else base + definition.rhs.value
        if isinstance(definition.lhs, Const):
            base = _index_offset(defs, definition.rhs, ivar, depth + 1)
            return None if base is None else base + definition.lhs.value
    if isinstance(definition, BinOp) and definition.op == "sub":
        if isinstance(definition.rhs, Const):
            base = _index_offset(defs, definition.lhs, ivar, depth + 1)
            return None if base is None else base - definition.rhs.value
    return None


def _iteration_reachability(fn: Function, loop: NaturalLoop) -> Dict[str, Set[str]]:
    """``reaches[b]`` = loop blocks reachable from ``b`` within one
    iteration (edges back into the header are cut)."""
    succs = {
        label: [
            s
            for s in fn.blocks[label].successors()
            if s in loop.body and s != loop.header
        ]
        for label in loop.body
    }
    reaches: Dict[str, Set[str]] = {}
    for start in loop.body:
        seen: Set[str] = set()
        stack = list(succs[start])
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            stack.extend(succs[label])
        reaches[start] = seen
    return reaches


def _collect_candidate_checks(
    fn: Function, loop: NaturalLoop, defs: Dict[str, List[Instr]], plan: _LoopPlan
) -> None:
    increments = _induction_increments(fn, loop, defs, plan.ivar)
    assert increments is not None
    reaches = _iteration_reachability(fn, loop)
    positions = _instr_positions(fn, loop)

    def slack_at(check: Instr) -> int:
        """Sum of increments that may already have executed when the check
        runs, within a single iteration."""
        check_block, check_position = positions[id(check)]
        total = 0
        for def_block, def_position, constant in increments:
            may_precede = (
                def_block == check_block and def_position < check_position
            ) or (def_block != check_block and check_block in reaches[def_block])
            if may_precede:
                total += constant
        return total

    for label in loop.body:
        for instr in fn.blocks[label].body:
            if isinstance(instr, CheckUpper) and instr.guard_group is None:
                if instr.array in defs:
                    continue  # array reference not invariant
                offset = _index_offset(defs, instr.index, plan.ivar)
                if offset is None:
                    continue
                plan.uppers.append(
                    _UpperCandidate(instr, instr.array, offset, slack_at(instr))
                )
            elif isinstance(instr, CheckLower) and instr.guard_group is None:
                offset = _index_offset(defs, instr.index, plan.ivar)
                if offset is None:
                    continue
                plan.lowers.append(_LowerCandidate(instr, offset))


# ----------------------------------------------------------------------
# Transformation.
# ----------------------------------------------------------------------


def _apply(fn: Function, program: Program, plan: _LoopPlan, report: VersioningReport) -> None:
    loop = plan.loop
    preds = fn.predecessors()
    outside_preds = [p for p in preds[loop.header] if p not in loop.body]
    if not outside_preds:
        return

    # 1. Clone the loop (fast version) without the candidate checks.
    candidates = set(id(c) for c in plan.candidate_checks)
    label_map: Dict[str, str] = {}
    for label in sorted(loop.body):
        label_map[label] = fn.new_block("fast").label
        report.blocks_added += 1
    for label in sorted(loop.body):
        source_block = fn.blocks[label]
        clone = fn.blocks[label_map[label]]
        for instr in source_block.body:
            if id(instr) in candidates:
                report.checks_removed_in_fast_path += 1
                continue
            # Cloned checks keep their identity: fast- and slow-path copies
            # are the same source check, so exception attribution and
            # per-check dynamic counting stay comparable with the
            # unversioned program.
            clone.body.append(instr.clone())
        terminator = (
            source_block.terminator.clone()
            if source_block.terminator is not None
            else None
        )
        if isinstance(terminator, Jump) and terminator.target in label_map:
            terminator.target = label_map[terminator.target]
        elif isinstance(terminator, Branch):
            if terminator.true_target in label_map:
                terminator.true_target = label_map[terminator.true_target]
            if terminator.false_target in label_map:
                terminator.false_target = label_map[terminator.false_target]
        clone.terminator = terminator

    # 2. Build the preheader test chain.
    slow_entry = loop.header
    fast_entry = label_map[loop.header]
    current = fn.new_block("version")
    report.blocks_added += 1
    entry_label = current.label

    def materialize_bound() -> Operand:
        if isinstance(plan.bound, _LenExpr):
            temp = fn.new_temp("vn")
            current.body.append(ArrayLen(temp, plan.bound.array))
            return Var(temp)
        return plan.bound

    tests: List[Tuple[str, Operand, Operand]] = []  # (op, lhs, rhs)
    for candidate in plan.uppers:
        length = fn.new_temp("vlen")
        current.body.append(ArrayLen(length, candidate.array))
        # Body edge guarantees ivar <= B-1 (strict) or B; the access sees
        # at most that plus the increments already executed this iteration
        # plus the index offset.  Test: max_index <= len(A) - 1.
        slack = candidate.offset + candidate.slack + (0 if plan.strict else 1)
        bound_operand = materialize_bound()
        index_bound: Operand
        if isinstance(bound_operand, Const):
            index_bound = Const(bound_operand.value + slack)
        elif slack == 0:
            index_bound = bound_operand
        else:
            temp = fn.new_temp("vbound")
            current.body.append(BinOp(temp, "add", bound_operand, Const(slack)))
            index_bound = Var(temp)
        tests.append(("le", index_bound, Var(length)))
    for candidate in plan.lowers:
        base: Operand = Var(plan.ivar)
        if candidate.offset != 0:
            temp = fn.new_temp("vlow")
            current.body.append(BinOp(temp, "add", base, Const(candidate.offset)))
            base = Var(temp)
        tests.append(("ge", base, Const(0)))

    if not tests:  # pragma: no cover - candidates imply tests
        return

    # Chain the tests: all pass -> fast loop, any fail -> slow loop.
    for position, (op, lhs, rhs) in enumerate(tests):
        flag = fn.new_temp("vtest")
        current.body.append(Cmp(flag, op, lhs, rhs))
        if position == len(tests) - 1:
            current.terminator = Branch(Var(flag), fast_entry, slow_entry)
        else:
            next_block = fn.new_block("version")
            report.blocks_added += 1
            current.terminator = Branch(Var(flag), next_block.label, slow_entry)
            current = next_block

    # 3. Route the outside predecessors through the test chain.
    for pred in outside_preds:
        fn.blocks[pred].replace_successor(loop.header, entry_label)

    report.loops_versioned += 1
