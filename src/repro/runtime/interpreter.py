"""The MiniJ virtual machine: a direct interpreter over the CFG IR.

This is the reproduction's stand-in for running optimized code on hardware.
It provides the measurements the paper reports:

* **dynamic bounds-check counts**, per check id and per kind — Figure 6's
  metric is "fraction of dynamic upper-bound checks removed", which the
  harness computes by running the same input through the unoptimized and
  optimized programs and comparing these counters;
* a **cycle cost model** (a full bounds check costs one memory load of the
  array length plus two compares, per Section 1) for the run-time
  improvement experiment;
* **exception semantics** — checks raise :class:`BoundsCheckError` exactly
  at their program point, which differential tests use to confirm ABCD
  never changes observable behaviour;
* the **speculation protocol** of Section 6.2 — a PRE-inserted
  :class:`SpeculativeCheck` sets a guard flag instead of trapping, and the
  original check (now ``guard_group``-tagged) only executes when its flag
  is set, emulating "fall back to the unoptimized loop" recovery.

The interpreter executes SSA, e-SSA, and plain form alike: φs resolve via
the incoming edge taken, πs are copies.

Dispatch is decided once per run, not once per executed instruction: the
first time a run reaches a block, the block is decoded into a φ plan per
incoming edge, a tuple of closures (operands, check ids and error text
bound in) and a terminator record; the block loop then only calls those
closures.  Counting is decided the same way.  ``instructions`` and
``cycles`` are fixed for each straight-line segment of a block (the body
cut after each call, the φs in the first segment), so a call charges the
segment it ends, the block loop charges the last one with the
terminator, and a closure charges its segment's prefix only when it
traps.  A run of πs is one closure, and a compare whose result is the
block's branch condition is fused into the terminator.  The decoded code
lives for one :meth:`run` (DESIGN.md, "VM dispatch").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    BoundsCheckError,
    CallDepthExceeded,
    MiniJRuntimeError,
    TrapLimitExceeded,
    UnknownFunctionError,
)
from repro.ir.function import BasicBlock, Function, Program
from repro.ir.instructions import (
    ArrayLen,
    ArrayLoad,
    ArrayNew,
    ArrayStore,
    BinOp,
    Branch,
    Call,
    CheckLower,
    CheckUnsigned,
    CheckUpper,
    Cmp,
    Const,
    Copy,
    Jump,
    Operand,
    Pi,
    Return,
    SpeculativeCheck,
    Var,
)
from repro.runtime.values import ArrayValue, minij_div, minij_mod

Value = Union[int, ArrayValue]

#: Cycle costs per instruction class.  A full bounds check (lower+upper)
#: costs 3: one length load plus two compares (paper, Section 1).
DEFAULT_COSTS = {
    "copy": 1,
    "binop": 1,
    "div": 8,
    "cmp": 1,
    "arraynew": 10,
    "arraylen": 1,
    "arrayload": 2,
    "arraystore": 2,
    "checklower": 1,
    "checkupper": 2,
    # Section 7.2: one unsigned comparison replaces the pair.
    "checkunsigned": 2,
    "guard_test": 1,
    "call": 5,
    "jump": 1,
    "branch": 1,
    "return": 1,
    "phi": 1,
    "pi": 1,
}


@dataclass
class ExecutionStats:
    """Counters accumulated over one execution."""

    instructions: int = 0
    cycles: int = 0
    #: Dynamic execution count per check id (includes speculative checks).
    check_counts: Dict[int, int] = field(default_factory=dict)
    #: Dynamic count of lower/upper checks that actually executed their
    #: comparison (guarded checks with an unraised flag do not count).
    lower_checks: int = 0
    upper_checks: int = 0
    #: Merged (Section 7.2) checks executed; each also counts one lower
    #: and one upper execution since it verifies both bounds.
    unsigned_checks: int = 0
    speculative_checks: int = 0
    #: How often a speculative check failed (raised its guard flag).
    speculation_failures: int = 0
    #: Per-block execution counts, keyed by (function, label).
    block_counts: Dict[tuple, int] = field(default_factory=dict)
    #: Per-edge execution counts, keyed by (function, from_label, to_label).
    edge_counts: Dict[tuple, int] = field(default_factory=dict)

    def count_check(self, check_id: int) -> None:
        self.check_counts[check_id] = self.check_counts.get(check_id, 0) + 1

    @property
    def total_checks(self) -> int:
        return self.lower_checks + self.upper_checks


@dataclass
class ExecutionResult:
    """The outcome of running a program: value + counters."""

    value: Optional[Value]
    stats: ExecutionStats


#: A decoded instruction: executes against the frame's variables and
#: speculation guard flags.
Op = Callable[[Dict[str, Value], Dict[int, bool]], None]

#: Terminator kinds of a decoded block; ``_TEST`` is a compare fused with
#: the branch on its result.
_JUMP, _TEST, _BRANCH, _RETURN, _BAD = range(5)

_ARITH = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": minij_div,
    "mod": minij_mod,
}
#: Any other comparison opcode compares with ``!=``.
_CMP = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
}


def _operand(operand: Operand) -> Tuple[Optional[str], Optional[Value]]:
    """``(name, None)`` for a variable, ``(None, value)`` for a constant."""
    if isinstance(operand, Const):
        return None, operand.value
    assert isinstance(operand, Var)
    return operand.name, None


def _unset(exc: KeyError) -> MiniJRuntimeError:
    return MiniJRuntimeError(f"read of unset variable {exc.args[0]!r}")


def _charged(
    stats: ExecutionStats, count: int, cycles: int, exc: BaseException
) -> BaseException:
    """Charge what a trapping closure owes (its segment prefix and what
    its instruction had charged when it failed); return what to raise:
    the unset-variable error for a failed read, else ``exc`` itself."""
    stats.instructions += count
    stats.cycles += cycles
    return _unset(exc) if isinstance(exc, KeyError) else exc


def _not_array(name: Optional[str], value: object) -> MiniJRuntimeError:
    return MiniJRuntimeError(f"{name!r} is not an array (got {value!r})")


class Interpreter:
    """Executes a :class:`Program` starting from a chosen function."""

    def __init__(
        self,
        program: Program,
        fuel: int = 50_000_000,
        record_profile: bool = False,
    ) -> None:
        self._program = program
        self._fuel = fuel
        self._record_profile = record_profile
        self.stats = ExecutionStats()
        #: Decoded blocks per function name, for the duration of one run.
        self._code: Optional[Dict[str, Dict[str, tuple]]] = None

    # ------------------------------------------------------------------
    # Entry points.
    # ------------------------------------------------------------------

    def run(self, function_name: str, args: Sequence[Value] = ()) -> ExecutionResult:
        """Execute ``function_name`` with ``args`` and return the result.

        Every failure mode crosses this boundary as a
        :class:`MiniJRuntimeError`: an entry name the program lacks would
        otherwise leak the program table's raw :class:`KeyError`, and
        unbounded MiniJ recursion the host's :class:`RecursionError`.
        """
        try:
            fn = self._program.function(function_name)
        except KeyError:
            raise UnknownFunctionError(
                f"program has no function {function_name!r}"
            ) from None
        # The decoded code refers back to this interpreter (a call's
        # closure holds the bound ``_call``); dropping it when the run
        # ends leaves no reference cycle behind.
        self._code = {}
        try:
            value = self._call(fn, list(args))
        except RecursionError:
            raise CallDepthExceeded(
                f"call depth exhausted the interpreter stack in {function_name!r}"
            ) from None
        finally:
            self._code = None
        return ExecutionResult(value, self.stats)

    # ------------------------------------------------------------------
    # Frames.
    # ------------------------------------------------------------------

    def _call(self, fn: Function, args: List[Value]) -> Optional[Value]:
        if len(args) != len(fn.params):
            raise MiniJRuntimeError(
                f"{fn.name} expects {len(fn.params)} argument(s), got {len(args)}"
            )
        env: Dict[str, Value] = dict(zip(fn.params, args))
        guards: Dict[int, bool] = {}
        code = self._code.get(fn.name)
        if code is None:
            code = self._code[fn.name] = {}
        label = fn.entry
        came_from: Optional[str] = None
        stats = self.stats
        profile = self._record_profile
        fuel = self._fuel

        while True:
            try:
                phis, ops, kind, count, cycles, a, b, c = code[label]
            except KeyError:
                block = fn.blocks[label]
                phis, ops, kind, count, cycles, a, b, c = code[label] = self._decode(
                    fn, block
                )
            if profile:
                key = (fn.name, label)
                stats.block_counts[key] = stats.block_counts.get(key, 0) + 1
                if came_from is not None:
                    edge = (fn.name, came_from, label)
                    stats.edge_counts[edge] = stats.edge_counts.get(edge, 0) + 1

            if phis is not None:
                try:
                    assign = phis[came_from]
                except KeyError:
                    assign = phis[came_from] = self._phi_plan(
                        fn.blocks[label], came_from
                    )
                assign(env)

            for op in ops:
                op(env, guards)

            # The block's last segment and its terminator, charged before
            # the terminator reads its operand.
            stats.instructions += count
            stats.cycles += cycles
            if kind == _TEST:
                dest, lhs, lhs_value, rhs, rhs_value, compare, branch_cost = a
                try:
                    x = env[lhs] if lhs is not None else lhs_value
                    y = env[rhs] if rhs is not None else rhs_value
                    cond = compare(x, y)
                except BaseException as exc:
                    # The compare trapped; the branch never ran.
                    raise _charged(stats, -1, -branch_cost, exc) from None
                if cond:
                    env[dest] = 1
                    came_from, label = label, b
                else:
                    env[dest] = 0
                    came_from, label = label, c
            elif kind == _JUMP:
                came_from, label = label, a
            elif kind == _BRANCH:
                try:
                    cond = env[a]
                except KeyError as exc:
                    raise _unset(exc) from None
                came_from, label = label, (b if cond != 0 else c)
            elif kind == _RETURN:
                if a is None:
                    return b
                try:
                    return env[a]
                except KeyError as exc:
                    raise _unset(exc) from None
            else:
                raise MiniJRuntimeError(a)

            if stats.instructions > fuel:
                raise TrapLimitExceeded(
                    f"exceeded fuel of {fuel} instructions in {fn.name}"
                )

    # ------------------------------------------------------------------
    # Decoding.
    # ------------------------------------------------------------------

    def _decode(self, fn: Function, block: BasicBlock) -> tuple:
        """``(φ plans, ops, terminator kind, count, cycles, a, b, c)`` of
        ``block``.

        The body is cut after each call into straight-line segments; the
        φs belong to the first.  ``count``/``cycles`` are what the last
        segment and the terminator charge unconditionally; every other
        segment is charged by the call that ends it.  A closure is told
        what its segment charged before it (its prefix) and charges that
        only if it traps.  A run of πs decodes to one op.

        The φ plans start empty and fill per incoming edge as the run
        takes it; ``None`` when the block has no φs.  For a jump ``a`` is
        the target; for a branch ``a`` names the condition and ``b``/``c``
        are the targets; a test (a compare that is the body's last
        instruction, fused with the branch on its result) packs the
        compare into ``a``; a return reads variable ``a``, or returns the
        constant ``b`` when ``a`` is ``None``.
        """
        phis = None
        count = cycles = 0
        if block.phis:
            phis = {}
            count = len({phi.dest for phi in block.phis})
            cycles = count * DEFAULT_COSTS["phi"]
        body = block.body
        term = block.terminator
        test = None
        if (
            isinstance(term, Branch)
            and isinstance(term.cond, Var)
            and body
            and isinstance(body[-1], Cmp)
            and body[-1].dest == term.cond.name
        ):
            test = body[-1]
            body = body[:-1]

        ops = []
        for kind, run in groupby(body, type):
            if kind is Pi:
                pis = list(run)
                ops.append(self._decode_pis(pis, count, cycles))
                count += len(pis)
                cycles += len(pis) * DEFAULT_COSTS["pi"]
                continue
            for instr in run:
                op, cost = self._decode_instr(fn, instr, count, cycles)
                ops.append(op)
                if kind is Call:
                    count = cycles = 0
                else:
                    count += 1
                    cycles += cost
        ops = tuple(ops)

        if test is not None:
            lhs, lhs_value = _operand(test.lhs)
            rhs, rhs_value = _operand(test.rhs)
            compare = _CMP.get(test.op, operator.ne)
            branch_cost = DEFAULT_COSTS["branch"]
            count += 2
            cycles += DEFAULT_COSTS["cmp"] + branch_cost
            a = (test.dest, lhs, lhs_value, rhs, rhs_value, compare, branch_cost)
            return phis, ops, _TEST, count, cycles, a, term.true_target, term.false_target
        count += 1
        if isinstance(term, Jump):
            cycles += DEFAULT_COSTS["jump"]
            return phis, ops, _JUMP, count, cycles, term.target, None, None
        if isinstance(term, Branch):
            cycles += DEFAULT_COSTS["branch"]
            name, value = _operand(term.cond)
            if name is None:
                taken = term.true_target if value != 0 else term.false_target
                return phis, ops, _JUMP, count, cycles, taken, None, None
            return (phis, ops, _BRANCH, count, cycles, name,
                    term.true_target, term.false_target)
        if isinstance(term, Return):
            cycles += DEFAULT_COSTS["return"]
            name, value = (None, None) if term.value is None else _operand(term.value)
            return phis, ops, _RETURN, count, cycles, name, value, None
        # Charges the instruction, no cycles, then traps.
        return phis, ops, _BAD, count, cycles, f"bad terminator {term}", None, None

    def _phi_plan(self, block: BasicBlock, pred: Optional[str]) -> Callable:
        """The φ moves of the edge ``pred`` → ``block``.  φs read their
        operands for ``pred`` in order, then write all destinations at
        once; the moves run one by one when no φ reads a destination
        written before it, which is what the parallel copy would do.
        The block's first segment charges the φs."""
        phis = block.phis
        moves = []
        written = set()
        sequential = True
        missing = None
        for phi in phis:
            if pred not in phi.incomings:
                # Read the φs before it, then trap.
                source = "the function entry" if pred is None else repr(pred)
                missing = (
                    f"φ {phi.dest} in block {block.label!r} has no incoming "
                    f"value from {source}"
                )
                sequential = False
                break
            name, value = _operand(phi.incomings[pred])
            sequential = sequential and name not in written
            written.add(phi.dest)
            moves.append((phi.dest, name, value))

        if sequential:

            def assign(env):
                try:
                    for dest, name, value in moves:
                        env[dest] = env[name] if name is not None else value
                except KeyError as exc:
                    raise _unset(exc) from None

            return assign

        dests = [phi.dest for phi in phis]

        def assign(env):
            try:
                values = [env[n] if n is not None else v for _, n, v in moves]
            except KeyError as exc:
                raise _unset(exc) from None
            if missing is not None:
                raise MiniJRuntimeError(missing)
            env.update(zip(dests, values))

        return assign

    def _decode_pis(self, pis: List[Pi], count: int, cycles: int) -> Op:
        """A run of πs (copies) as one op; most runs have one or two.  If
        the k-th π reads an unset variable, the run charges its prefix
        and the first k πs."""
        stats = self.stats
        moves = tuple((pi.dest, pi.src) for pi in pis)
        sources = [src for _, src in moves]
        cost = DEFAULT_COSTS["pi"]

        def trap(exc):
            done = sources.index(exc.args[0]) + 1
            return _charged(stats, count + done, cycles + done * cost, exc)

        if len(moves) == 1:
            ((dest, src),) = moves

            def op(env, guards):
                try:
                    env[dest] = env[src]
                except KeyError as exc:
                    raise trap(exc) from None

            return op

        if len(moves) == 2:
            (dest1, src1), (dest2, src2) = moves

            def op(env, guards):
                try:
                    env[dest1] = env[src1]
                    env[dest2] = env[src2]
                except KeyError as exc:
                    raise trap(exc) from None

            return op

        def op(env, guards):
            try:
                for dest, src in moves:
                    env[dest] = env[src]
            except KeyError as exc:
                raise trap(exc) from None

        return op

    def _decode_instr(self, fn: Function, instr, count: int, cycles: int) -> Tuple[Op, int]:
        """``(closure, cycles charged unconditionally)`` of one body
        instruction.  ``count``/``cycles`` is its segment's prefix.  The
        closure does only what can vary (a check's counters, a guarded
        check's cost); if it traps, it first charges its prefix plus what
        executing it alone charged up to that point, so a run that traps
        leaves the same counters behind as it always has."""
        stats = self.stats
        counts = stats.check_counts

        if isinstance(instr, Copy):
            dest = instr.dest
            src, value = _operand(instr.src)
            cost = DEFAULT_COSTS["copy"]
            if src is None:

                def op(env, guards):
                    env[dest] = value

                return op, cost

            def op(env, guards):
                try:
                    env[dest] = env[src]
                except KeyError as exc:
                    raise _charged(stats, count + 1, cycles + cost, exc) from None

            return op, cost

        if isinstance(instr, BinOp):
            dest = instr.dest
            lhs, lhs_value = _operand(instr.lhs)
            rhs, rhs_value = _operand(instr.rhs)
            apply = _ARITH.get(instr.op)
            cost = DEFAULT_COSTS["div" if instr.op in ("div", "mod") else "binop"]
            if apply is None:
                # An unknown opcode reads its operands, charges no
                # cycles, then traps.
                cost = 0

                def apply(_lhs, _rhs, bad=f"bad binop {instr.op!r}"):
                    raise MiniJRuntimeError(bad)

            def op(env, guards):
                try:
                    x = env[lhs] if lhs is not None else lhs_value
                    y = env[rhs] if rhs is not None else rhs_value
                except KeyError as exc:
                    # A failed read charges the instruction, no cycles.
                    raise _charged(stats, count + 1, cycles, exc) from None
                try:
                    env[dest] = apply(x, y)
                except BaseException as exc:
                    raise _charged(stats, count + 1, cycles + cost, exc) from None

            return op, cost

        if isinstance(instr, Cmp):
            dest = instr.dest
            lhs, lhs_value = _operand(instr.lhs)
            rhs, rhs_value = _operand(instr.rhs)
            compare = _CMP.get(instr.op, operator.ne)
            cost = DEFAULT_COSTS["cmp"]

            def op(env, guards):
                try:
                    x = env[lhs] if lhs is not None else lhs_value
                    y = env[rhs] if rhs is not None else rhs_value
                    env[dest] = 1 if compare(x, y) else 0
                except BaseException as exc:
                    raise _charged(stats, count + 1, cycles + cost, exc) from None

            return op, cost

        if isinstance(instr, (CheckLower, CheckUpper, CheckUnsigned)):
            return self._decode_check(instr, count, cycles)

        if isinstance(instr, SpeculativeCheck):
            index, index_value = _operand(instr.index)
            upper = instr.kind == "upper"
            array = instr.array
            check_id = instr.check_id
            group = instr.guard_group
            cost = DEFAULT_COSTS["checkupper" if upper else "checklower"]

            def op(env, guards):
                stats.speculative_checks += 1
                counts[check_id] = counts.get(check_id, 0) + 1
                try:
                    i = env[index] if index is not None else index_value
                    if upper:
                        target = env.get(array)
                        if not isinstance(target, ArrayValue):
                            raise _not_array(array, target)
                        failed = i >= len(target.data)
                    else:
                        failed = i < 0
                except BaseException as exc:
                    raise _charged(stats, count + 1, cycles + cost, exc) from None
                if failed:
                    guards[group] = True
                    stats.speculation_failures += 1

            return op, cost

        if isinstance(instr, (ArrayLoad, ArrayStore)):
            return self._decode_access(fn, instr, count, cycles)

        if isinstance(instr, ArrayLen):
            dest = instr.dest
            array = instr.array
            cost = DEFAULT_COSTS["arraylen"]

            def op(env, guards):
                target = env.get(array)
                if not isinstance(target, ArrayValue):
                    exc = _not_array(array, target)
                    raise _charged(stats, count + 1, cycles + cost, exc)
                env[dest] = len(target.data)

            return op, cost

        if isinstance(instr, ArrayNew):
            dest = instr.dest
            length, length_value = _operand(instr.length)
            cost = DEFAULT_COSTS["arraynew"]

            def op(env, guards):
                try:
                    n = env[length] if length is not None else length_value
                    env[dest] = ArrayValue(n)
                except BaseException as exc:
                    raise _charged(stats, count + 1, cycles + cost, exc) from None

            return op, cost

        if isinstance(instr, Call):
            return self._decode_call(instr, count, cycles)

        message = f"cannot execute {instr}"

        def op(env, guards):
            raise _charged(stats, count + 1, cycles, MiniJRuntimeError(message))

        return op, 0

    def _decode_check(self, instr, count: int, cycles: int) -> Tuple[Op, int]:
        """A lower, upper or merged unsigned check.  A guarded check pays
        the guard test unconditionally, and its check cost only while its
        speculation flag is up."""
        stats = self.stats
        counts = stats.check_counts
        index, index_value = _operand(instr.index)
        group = instr.guard_group
        array = getattr(instr, "array", None)
        if isinstance(instr, CheckLower):
            cost = DEFAULT_COSTS["checklower"]
        elif isinstance(instr, CheckUpper):
            cost = DEFAULT_COSTS["checkupper"]
        else:
            cost = DEFAULT_COSTS["checkunsigned"]
        guarded = group is not None
        # A guarded check's segment pays its guard test; an unguarded
        # check's pays the check.
        charged = DEFAULT_COSTS["guard_test"] if guarded else cost
        trap_count, trap_cycles = count + 1, cycles + charged

        if isinstance(instr, CheckLower):
            check_id = instr.check_id

            def op(env, guards):
                if guarded:
                    if not guards.get(group, False):
                        return
                    stats.cycles += cost
                stats.lower_checks += 1
                counts[check_id] = counts.get(check_id, 0) + 1
                try:
                    i = env[index] if index is not None else index_value
                    if i < 0:
                        raise BoundsCheckError(check_id, i, -1, "lower")
                except BaseException as exc:
                    raise _charged(stats, trap_count, trap_cycles, exc) from None

            return op, charged

        if isinstance(instr, CheckUpper):
            check_id = instr.check_id

            def op(env, guards):
                if guarded:
                    if not guards.get(group, False):
                        return
                    stats.cycles += cost
                stats.upper_checks += 1
                counts[check_id] = counts.get(check_id, 0) + 1
                try:
                    i = env[index] if index is not None else index_value
                    target = env.get(array)
                    if not isinstance(target, ArrayValue):
                        raise _not_array(array, target)
                    if i >= len(target.data):
                        raise BoundsCheckError(check_id, i, len(target.data), "upper")
                except BaseException as exc:
                    raise _charged(stats, trap_count, trap_cycles, exc) from None

            return op, charged

        lower_id, upper_id = instr.lower_id, instr.upper_id

        def op(env, guards):
            if guarded:
                if not guards.get(group, False):
                    return
                stats.cycles += cost
            stats.unsigned_checks += 1
            stats.lower_checks += 1
            stats.upper_checks += 1
            counts[lower_id] = counts.get(lower_id, 0) + 1
            counts[upper_id] = counts.get(upper_id, 0) + 1
            try:
                i = env[index] if index is not None else index_value
                target = env.get(array)
                if not isinstance(target, ArrayValue):
                    raise _not_array(array, target)
                # The unsigned trick: a negative index, viewed unsigned,
                # always exceeds the length; report it as the lower-bound
                # failure the unmerged program would raise.
                if i < 0:
                    raise BoundsCheckError(lower_id, i, len(target.data), "lower")
                if i >= len(target.data):
                    raise BoundsCheckError(upper_id, i, len(target.data), "upper")
            except BaseException as exc:
                raise _charged(stats, trap_count, trap_cycles, exc) from None

        return op, charged

    def _decode_access(self, fn: Function, instr, count: int, cycles: int) -> Tuple[Op, int]:
        """An unchecked load or store.  Out of range it is only reachable
        if an optimizer wrongly removed a needed check: fail loudly."""
        stats = self.stats
        array = instr.array
        index, index_value = _operand(instr.index)
        fn_name = fn.name

        if isinstance(instr, ArrayLoad):
            dest = instr.dest
            cost = DEFAULT_COSTS["arrayload"]

            def op(env, guards):
                try:
                    target = env.get(array)
                    if not isinstance(target, ArrayValue):
                        raise _not_array(array, target)
                    i = env[index] if index is not None else index_value
                    data = target.data
                    if not 0 <= i < len(data):
                        raise MiniJRuntimeError(
                            f"UNSOUND: unchecked load {array}[{i}] "
                            f"(length {len(data)}) in {fn_name}"
                        )
                    env[dest] = data[i]
                except BaseException as exc:
                    raise _charged(stats, count + 1, cycles + cost, exc) from None

            return op, cost

        value, value_const = _operand(instr.value)
        cost = DEFAULT_COSTS["arraystore"]

        def op(env, guards):
            try:
                target = env.get(array)
                if not isinstance(target, ArrayValue):
                    raise _not_array(array, target)
                i = env[index] if index is not None else index_value
                data = target.data
                if not 0 <= i < len(data):
                    raise MiniJRuntimeError(
                        f"UNSOUND: unchecked store {array}[{i}] "
                        f"(length {len(data)}) in {fn_name}"
                    )
                data[i] = env[value] if value is not None else value_const
            except BaseException as exc:
                raise _charged(stats, count + 1, cycles + cost, exc) from None

        return op, cost

    def _decode_call(self, instr: Call, count: int, cycles: int) -> Tuple[Op, int]:
        """A call.  It charges its segment and itself before anything
        else, so the callee's fuel tests and traps see every instruction
        before it.  The callee is resolved now but a missing one traps
        only when the call executes, where the program would reach it."""
        stats = self.stats
        dest = instr.dest
        callee = self._program.functions.get(instr.callee)
        missing = f"program has no function {instr.callee!r}"
        void = f"void call result used: {instr}"
        sources = [_operand(arg) for arg in instr.args]
        call = self._call
        cost = DEFAULT_COSTS["call"]
        count += 1
        cycles += cost

        def op(env, guards):
            stats.instructions += count
            stats.cycles += cycles
            if callee is None:
                raise UnknownFunctionError(missing)
            try:
                args = [env[n] if n is not None else v for n, v in sources]
            except KeyError as exc:
                raise _unset(exc) from None
            result = call(callee, args)
            if dest is not None:
                if result is None:
                    raise MiniJRuntimeError(void)
                env[dest] = result

        return op, cost


def run_program(
    program: Program,
    function_name: str = "main",
    args: Sequence[Value] = (),
    fuel: int = 50_000_000,
    record_profile: bool = False,
) -> ExecutionResult:
    """Convenience wrapper: run ``function_name`` and return the result."""
    interp = Interpreter(program, fuel=fuel, record_profile=record_profile)
    return interp.run(function_name, args)
