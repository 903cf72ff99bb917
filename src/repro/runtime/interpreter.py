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
incoming edge, a tuple of per-instruction closures (operands, costs, check
ids and error text bound in) and a terminator record; the block loop then
only calls those closures.  The decoded code lives for one :meth:`run`
(DESIGN.md, "VM dispatch").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
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
    Phi,
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

#: Terminator kinds of a decoded block.
_JUMP, _BRANCH, _RETURN, _BAD = range(4)

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
                phis, ops, kind, cost, a, b, c = code[label]
            except KeyError:
                block = fn.blocks[label]
                phis, ops, kind, cost, a, b, c = code[label] = self._decode(fn, block)
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
                        fn.blocks[label].phis, came_from
                    )
                assign(env)

            for op in ops:
                op(env, guards)

            stats.instructions += 1
            stats.cycles += cost
            if kind == _JUMP:
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
        """``(φ plans, ops, terminator kind, cost, a, b, c)`` of ``block``.

        The φ plans start empty and fill per incoming edge as the run
        takes it; ``None`` when the block has no φs.  For a jump ``a`` is
        the target; for a branch ``a`` names the condition and ``b``/``c``
        are the targets; a return reads variable ``a``, or returns the
        constant ``b`` when ``a`` is ``None``.
        """
        phis = {} if block.phis else None
        ops = tuple(self._decode_instr(fn, instr) for instr in block.body)
        term = block.terminator
        if isinstance(term, Jump):
            return phis, ops, _JUMP, DEFAULT_COSTS["jump"], term.target, None, None
        if isinstance(term, Branch):
            cost = DEFAULT_COSTS["branch"]
            name, value = _operand(term.cond)
            if name is None:
                taken = term.true_target if value != 0 else term.false_target
                return phis, ops, _JUMP, cost, taken, None, None
            return phis, ops, _BRANCH, cost, name, term.true_target, term.false_target
        if isinstance(term, Return):
            name, value = (None, None) if term.value is None else _operand(term.value)
            return phis, ops, _RETURN, DEFAULT_COSTS["return"], name, value, None
        # Charges the instruction, no cycles, then traps.
        return phis, ops, _BAD, 0, f"bad terminator {term}", None, None

    def _phi_plan(self, phis: List[Phi], pred: Optional[str]) -> Callable:
        """The φ moves of the edge ``pred`` → this block.  φs read their
        operands for ``pred`` in order, then write all destinations at
        once; the moves run one by one when no φ reads a destination
        written before it, which is what the parallel copy would do."""
        assert pred is not None, "φ in entry block"
        stats = self.stats
        moves = []
        written = set()
        sequential = True
        for phi in phis:
            if pred not in phi.incomings:
                # Read the φs before it, then fail as the lookup would.
                sequential = False
                break
            name, value = _operand(phi.incomings[pred])
            sequential = sequential and name not in written
            written.add(phi.dest)
            moves.append((phi.dest, name, value))
        missing = len(moves) < len(phis)
        count = len({phi.dest for phi in phis})
        cycles = count * DEFAULT_COSTS["phi"]

        if sequential:

            def assign(env):
                try:
                    for dest, name, value in moves:
                        env[dest] = env[name] if name is not None else value
                except KeyError as exc:
                    raise _unset(exc) from None
                stats.instructions += count
                stats.cycles += cycles

            return assign

        dests = [phi.dest for phi in phis]

        def assign(env):
            try:
                values = [env[n] if n is not None else v for _, n, v in moves]
            except KeyError as exc:
                raise _unset(exc) from None
            if missing:
                raise KeyError(pred)
            env.update(zip(dests, values))
            stats.instructions += count
            stats.cycles += cycles

        return assign

    def _decode_instr(self, fn: Function, instr) -> Op:
        """One closure per instruction.  Each keeps the order of its
        counter increments, operand reads and traps: a run that traps
        leaves the same counters behind as it always has."""
        stats = self.stats
        counts = stats.check_counts

        if isinstance(instr, Copy):
            dest = instr.dest
            src, value = _operand(instr.src)
            cost = DEFAULT_COSTS["copy"]

            def op(env, guards):
                stats.instructions += 1
                stats.cycles += cost
                try:
                    env[dest] = env[src] if src is not None else value
                except KeyError as exc:
                    raise _unset(exc) from None

            return op

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
                stats.instructions += 1
                try:
                    x = env[lhs] if lhs is not None else lhs_value
                    y = env[rhs] if rhs is not None else rhs_value
                except KeyError as exc:
                    raise _unset(exc) from None
                stats.cycles += cost
                env[dest] = apply(x, y)

            return op

        if isinstance(instr, Cmp):
            dest = instr.dest
            lhs, lhs_value = _operand(instr.lhs)
            rhs, rhs_value = _operand(instr.rhs)
            compare = _CMP.get(instr.op, operator.ne)
            cost = DEFAULT_COSTS["cmp"]

            def op(env, guards):
                stats.instructions += 1
                stats.cycles += cost
                try:
                    x = env[lhs] if lhs is not None else lhs_value
                    y = env[rhs] if rhs is not None else rhs_value
                except KeyError as exc:
                    raise _unset(exc) from None
                env[dest] = 1 if compare(x, y) else 0

            return op

        if isinstance(instr, (CheckLower, CheckUpper, CheckUnsigned)):
            return self._decode_check(instr)

        if isinstance(instr, SpeculativeCheck):
            index, index_value = _operand(instr.index)
            upper = instr.kind == "upper"
            array = instr.array
            check_id = instr.check_id
            group = instr.guard_group
            cost = DEFAULT_COSTS["checkupper" if upper else "checklower"]

            def op(env, guards):
                stats.instructions += 1
                stats.cycles += cost
                stats.speculative_checks += 1
                counts[check_id] = counts.get(check_id, 0) + 1
                try:
                    i = env[index] if index is not None else index_value
                except KeyError as exc:
                    raise _unset(exc) from None
                if upper:
                    target = env.get(array)
                    if not isinstance(target, ArrayValue):
                        raise _not_array(array, target)
                    failed = i >= len(target.data)
                else:
                    failed = i < 0
                if failed:
                    guards[group] = True
                    stats.speculation_failures += 1

            return op

        if isinstance(instr, (ArrayLoad, ArrayStore)):
            return self._decode_access(fn, instr)

        if isinstance(instr, ArrayLen):
            dest = instr.dest
            array = instr.array
            cost = DEFAULT_COSTS["arraylen"]

            def op(env, guards):
                stats.instructions += 1
                stats.cycles += cost
                target = env.get(array)
                if not isinstance(target, ArrayValue):
                    raise _not_array(array, target)
                env[dest] = len(target.data)

            return op

        if isinstance(instr, ArrayNew):
            dest = instr.dest
            length, length_value = _operand(instr.length)
            cost = DEFAULT_COSTS["arraynew"]

            def op(env, guards):
                stats.instructions += 1
                stats.cycles += cost
                try:
                    n = env[length] if length is not None else length_value
                except KeyError as exc:
                    raise _unset(exc) from None
                env[dest] = ArrayValue(n)

            return op

        if isinstance(instr, Call):
            return self._decode_call(instr)

        if isinstance(instr, Pi):
            dest = instr.dest
            src = instr.src
            cost = DEFAULT_COSTS["pi"]

            def op(env, guards):
                stats.instructions += 1
                stats.cycles += cost
                env[dest] = env[src]

            return op

        message = f"cannot execute {instr}"

        def op(env, guards):
            stats.instructions += 1
            raise MiniJRuntimeError(message)

        return op

    def _decode_check(self, instr) -> Op:
        """A lower, upper or merged unsigned check.  A guarded check pays
        the guard test and runs only while its speculation flag is up."""
        stats = self.stats
        counts = stats.check_counts
        index, index_value = _operand(instr.index)
        group = instr.guard_group
        guard_cost = DEFAULT_COSTS["guard_test"]

        if isinstance(instr, CheckLower):
            check_id = instr.check_id
            cost = DEFAULT_COSTS["checklower"]

            def op(env, guards):
                stats.instructions += 1
                if group is not None:
                    stats.cycles += guard_cost
                    if not guards.get(group, False):
                        return
                stats.cycles += cost
                stats.lower_checks += 1
                counts[check_id] = counts.get(check_id, 0) + 1
                try:
                    i = env[index] if index is not None else index_value
                except KeyError as exc:
                    raise _unset(exc) from None
                if i < 0:
                    raise BoundsCheckError(check_id, i, -1, "lower")

            return op

        array = instr.array
        if isinstance(instr, CheckUpper):
            check_id = instr.check_id
            cost = DEFAULT_COSTS["checkupper"]

            def op(env, guards):
                stats.instructions += 1
                if group is not None:
                    stats.cycles += guard_cost
                    if not guards.get(group, False):
                        return
                stats.cycles += cost
                stats.upper_checks += 1
                counts[check_id] = counts.get(check_id, 0) + 1
                try:
                    i = env[index] if index is not None else index_value
                except KeyError as exc:
                    raise _unset(exc) from None
                target = env.get(array)
                if not isinstance(target, ArrayValue):
                    raise _not_array(array, target)
                if i >= len(target.data):
                    raise BoundsCheckError(check_id, i, len(target.data), "upper")

            return op

        lower_id, upper_id = instr.lower_id, instr.upper_id
        cost = DEFAULT_COSTS["checkunsigned"]

        def op(env, guards):
            stats.instructions += 1
            if group is not None:
                stats.cycles += guard_cost
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
            except KeyError as exc:
                raise _unset(exc) from None
            target = env.get(array)
            if not isinstance(target, ArrayValue):
                raise _not_array(array, target)
            # The unsigned trick: a negative index, viewed unsigned, always
            # exceeds the length; report it as the lower-bound failure the
            # unmerged program would raise.
            if i < 0:
                raise BoundsCheckError(lower_id, i, len(target.data), "lower")
            if i >= len(target.data):
                raise BoundsCheckError(upper_id, i, len(target.data), "upper")

        return op

    def _decode_access(self, fn: Function, instr) -> Op:
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
                stats.instructions += 1
                stats.cycles += cost
                target = env.get(array)
                if not isinstance(target, ArrayValue):
                    raise _not_array(array, target)
                try:
                    i = env[index] if index is not None else index_value
                except KeyError as exc:
                    raise _unset(exc) from None
                data = target.data
                if not 0 <= i < len(data):
                    raise MiniJRuntimeError(
                        f"UNSOUND: unchecked load {array}[{i}] "
                        f"(length {len(data)}) in {fn_name}"
                    )
                env[dest] = data[i]

            return op

        value, value_const = _operand(instr.value)
        cost = DEFAULT_COSTS["arraystore"]

        def op(env, guards):
            stats.instructions += 1
            stats.cycles += cost
            target = env.get(array)
            if not isinstance(target, ArrayValue):
                raise _not_array(array, target)
            try:
                i = env[index] if index is not None else index_value
            except KeyError as exc:
                raise _unset(exc) from None
            data = target.data
            if not 0 <= i < len(data):
                raise MiniJRuntimeError(
                    f"UNSOUND: unchecked store {array}[{i}] "
                    f"(length {len(data)}) in {fn_name}"
                )
            try:
                data[i] = env[value] if value is not None else value_const
            except KeyError as exc:
                raise _unset(exc) from None

        return op

    def _decode_call(self, instr: Call) -> Op:
        """A call.  The callee is resolved now but a missing one traps only
        when the call executes, where the program would reach it."""
        stats = self.stats
        dest = instr.dest
        callee = self._program.functions.get(instr.callee)
        missing = f"program has no function {instr.callee!r}"
        void = f"void call result used: {instr}"
        sources = [_operand(arg) for arg in instr.args]
        call = self._call
        cost = DEFAULT_COSTS["call"]

        def op(env, guards):
            stats.instructions += 1
            stats.cycles += cost
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

        return op


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
