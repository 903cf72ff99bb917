"""A compiling backend: translate the IR to Python source and ``exec`` it.

The paper's setting is a JIT — code is *compiled* after optimization, not
interpreted.  This backend is the reproduction's compiled tier: each MiniJ
function becomes one Python function whose body is straight-line Python
with gotos emulated by a block-dispatch loop.  Observable semantics match
the interpreter exactly:

* bounds checks raise :class:`BoundsCheckError` with the same check id and
  update the same counters;
* speculative checks raise guard flags; guarded checks test them;
* MiniJ division/modulo truncate toward zero;
* φs are compiled as parallel assignments on each incoming edge
  (the function is SSA-destructed-on-the-fly: the generated code assigns
  φ destinations at the end of each predecessor);
* an array operand that holds no array (an unset variable or a set
  non-array value: "not an array"), and on IR the verifier would reject,
  a read of an unset variable and a φ with no value for the edge taken,
  trap with the interpreter's :class:`MiniJRuntimeError` message and
  counters, when the run reaches them.

Differential tests (``tests/test_codegen.py``) run random and corpus
programs through both tiers and require identical results and counters.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BoundsCheckError, MiniJRuntimeError
from repro.ir.function import Function, Program
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
from repro.runtime.interpreter import DEFAULT_COSTS, ExecutionResult, ExecutionStats
from repro.runtime.values import ArrayValue, minij_div, minij_mod

_CMP_PY = {
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "eq": "==",
    "ne": "!=",
}


def _mangle(name: str) -> str:
    """IR variable names (``%t3``, ``j.2``, ``x@inl0``) to Python
    identifiers.  Escaping the underscore first makes the mapping
    injective, so distinct IR names can never collide in the generated
    code (e.g. a source variable ``x_d_0`` vs. the SSA name ``x.0``)."""
    return (
        "v_"
        + name.replace("_", "_u_")
        .replace("%", "_p_")
        .replace(".", "_d_")
        .replace("@", "_a_")
    )


def _unmangle(identifier: str) -> str:
    """Invert :func:`_mangle`: after ``v_``, each underscore opens an escape."""
    escapes = {"u": "_", "p": "%", "d": ".", "a": "@"}
    return re.sub(r"_([upda])_", lambda m: escapes[m.group(1)], identifier[2:])


def _no_incoming(phi: Phi, block: str, source: str) -> str:
    """The interpreter's trap message for a φ with no value for the way
    control arrived."""
    return f"φ {phi.dest} in block {block!r} has no incoming value from {source}"


def _operand(op: Operand) -> str:
    if isinstance(op, Const):
        return repr(op.value)
    assert isinstance(op, Var)
    return _mangle(op.name)


class _FunctionCompiler:
    """Emits one Python function for one IR function."""

    def __init__(self, fn: Function) -> None:
        self._fn = fn
        self._lines: List[str] = []
        self._indent = 2
        #: Line number -> the IR variable that line reads as an array,
        #: and whether the line reads it as its index first.
        self.array_lines: Dict[int, Tuple[str, bool]] = {}

    def emit(self, text: str) -> None:
        self._lines.append("    " * self._indent + text)

    def _reads_array(self, array: str, index: Optional[Operand] = None) -> None:
        """Mark the next line as reading ``array`` as an array operand:
        there, an AttributeError (no ``.data``) is the interpreter's "not
        an array" trap, and so is a NameError for ``array``, unless
        ``index``, which the line reads first, is the same variable."""
        self.array_lines[len(self._lines) + 1] = (array, index == Var(array))

    def compile(self) -> str:
        fn = self._fn
        params = ", ".join(_mangle(p) for p in fn.params)
        self._lines.append(f"def {fn.name}({params}):")
        self._indent = 1
        self.emit("_guards = {}")
        entry_phis = fn.blocks[fn.entry].phis
        if entry_phis:
            message = _no_incoming(entry_phis[0], fn.entry, "the function entry")
            self.emit(f"raise _RuntimeError({message!r})")
        labels = fn.reachable_blocks()
        label_ids = {label: i for i, label in enumerate(labels)}
        self.emit(f"_block = {label_ids[fn.entry]}")
        self.emit("while True:")
        self._indent = 2
        for label in labels:
            block = fn.blocks[label]
            self.emit(f"if _block == {label_ids[label]}:")
            self._indent += 1
            for instr in block.body:
                self._instr(instr)
            self._terminator(block, label_ids)
            self._indent -= 1
        self.emit("raise _RuntimeError('fell off dispatch loop')")
        return "\n".join(self._lines)

    # ------------------------------------------------------------------

    def _phi_moves(self, target_label: str, from_label: str) -> None:
        """Parallel φ assignment for the edge from_label -> target_label.
        A φ with no value for the edge traps when the edge is taken, after
        reading the φs before it, as the interpreter does."""
        phis = self._fn.blocks[target_label].phis
        for position, phi in enumerate(phis):
            if from_label not in phi.incomings:
                reads = [_operand(p.incomings[from_label]) for p in phis[:position]]
                if reads:
                    self.emit(f"({', '.join(reads)},)")
                message = _no_incoming(phi, target_label, repr(from_label))
                self.emit(f"raise _RuntimeError({message!r})")
                return
        if not phis:
            return
        sources = ", ".join(
            _operand(phi.incomings[from_label]) for phi in phis
        )
        dests = ", ".join(_mangle(phi.dest) for phi in phis)
        # Tuple assignment evaluates the whole RHS first: parallel-copy
        # semantics for φs that read each other's destinations.
        self.emit(f"{dests} = {sources}")
        self.emit(f"_stats.instructions += {len(phis)}")
        self.emit(f"_stats.cycles += {len(phis)} * _costs['phi']")

    def _goto(self, target: str, from_label: str, label_ids: Dict[str, int]) -> None:
        self._phi_moves(target, from_label)
        self.emit(f"_block = {label_ids[target]}")
        self.emit("continue")

    def _terminator(self, block, label_ids: Dict[str, int]) -> None:
        term = block.terminator
        self.emit("_stats.instructions += 1")
        if isinstance(term, Jump):
            self.emit("_stats.cycles += _costs['jump']")
            self._goto(term.target, block.label, label_ids)
        elif isinstance(term, Branch):
            self.emit("_stats.cycles += _costs['branch']")
            self.emit(f"if {_operand(term.cond)} != 0:")
            self._indent += 1
            self._goto(term.true_target, block.label, label_ids)
            self._indent -= 1
            self.emit("else:")
            self._indent += 1
            self._goto(term.false_target, block.label, label_ids)
            self._indent -= 1
        elif isinstance(term, Return):
            self.emit("_stats.cycles += _costs['return']")
            if term.value is None:
                self.emit("return None")
            else:
                self.emit(f"return {_operand(term.value)}")
        else:  # pragma: no cover
            raise MiniJRuntimeError(f"bad terminator {term}")

    # ------------------------------------------------------------------

    def _count(self, cost_key: str) -> None:
        self.emit("_stats.instructions += 1")
        self.emit(f"_stats.cycles += _costs['{cost_key}']")

    def _instr(self, instr) -> None:
        if isinstance(instr, Copy):
            self._count("copy")
            self.emit(f"{_mangle(instr.dest)} = {_operand(instr.src)}")
        elif isinstance(instr, Pi):
            self._count("pi")
            self.emit(f"{_mangle(instr.dest)} = {_mangle(instr.src)}")
        elif isinstance(instr, BinOp):
            dest = _mangle(instr.dest)
            lhs, rhs = _operand(instr.lhs), _operand(instr.rhs)
            # Cycles are charged once both operands are read, as the
            # interpreter does: an unset operand traps with the
            # instruction counted and no cycles.
            self.emit("_stats.instructions += 1")
            reads = [_operand(op) for op in (instr.lhs, instr.rhs)
                     if isinstance(op, Var)]
            if reads:
                self.emit(f"({', '.join(reads)},)")
            cost = "binop" if instr.op in ("add", "sub", "mul") else "div"
            self.emit(f"_stats.cycles += _costs['{cost}']")
            if instr.op == "add":
                self.emit(f"{dest} = {lhs} + {rhs}")
            elif instr.op == "sub":
                self.emit(f"{dest} = {lhs} - {rhs}")
            elif instr.op == "mul":
                self.emit(f"{dest} = {lhs} * {rhs}")
            elif instr.op == "div":
                self.emit(f"{dest} = _div({lhs}, {rhs})")
            else:
                self.emit(f"{dest} = _mod({lhs}, {rhs})")
        elif isinstance(instr, Cmp):
            self._count("cmp")
            op = _CMP_PY[instr.op]
            self.emit(
                f"{_mangle(instr.dest)} = 1 if {_operand(instr.lhs)} {op} "
                f"{_operand(instr.rhs)} else 0"
            )
        elif isinstance(instr, ArrayNew):
            self._count("arraynew")
            self.emit(f"{_mangle(instr.dest)} = _ArrayValue({_operand(instr.length)})")
        elif isinstance(instr, ArrayLen):
            self._count("arraylen")
            self._reads_array(instr.array)
            self.emit(f"{_mangle(instr.dest)} = len({_mangle(instr.array)}.data)")
        elif isinstance(instr, ArrayLoad):
            self._count("arrayload")
            self._reads_array(instr.array)
            self.emit(
                f"{_mangle(instr.dest)} = _load("
                f"{_mangle(instr.array)}.data, {_operand(instr.index)})"
            )
        elif isinstance(instr, ArrayStore):
            self._count("arraystore")
            self._reads_array(instr.array)
            self.emit(
                f"_store({_mangle(instr.array)}.data, {_operand(instr.index)}, "
                f"{_operand(instr.value)})"
            )
        elif isinstance(instr, CheckLower):
            self.emit("_stats.instructions += 1")
            self._check_guard_prefix(instr)
            self.emit(f"_stats.lower_checks += 1")
            self.emit(f"_stats.count_check({instr.check_id})")
            self.emit(f"_stats.cycles += _costs['checklower']")
            self.emit(
                f"if {_operand(instr.index)} < 0: "
                f"raise _BoundsError({instr.check_id}, {_operand(instr.index)}, -1, 'lower')"
            )
            self._check_guard_suffix(instr)
        elif isinstance(instr, CheckUpper):
            self.emit("_stats.instructions += 1")
            self._check_guard_prefix(instr)
            self.emit(f"_stats.upper_checks += 1")
            self.emit(f"_stats.count_check({instr.check_id})")
            self.emit(f"_stats.cycles += _costs['checkupper']")
            index = _operand(instr.index)
            array = _mangle(instr.array)
            self._reads_array(instr.array, instr.index)
            self.emit(
                f"if {index} >= len({array}.data): "
                f"raise _BoundsError({instr.check_id}, {index}, "
                f"len({array}.data), 'upper')"
            )
            self._check_guard_suffix(instr)
        elif isinstance(instr, CheckUnsigned):
            self.emit("_stats.instructions += 1")
            self._check_guard_prefix(instr)
            self.emit("_stats.unsigned_checks += 1")
            self.emit("_stats.lower_checks += 1")
            self.emit("_stats.upper_checks += 1")
            self.emit(f"_stats.count_check({instr.lower_id})")
            self.emit(f"_stats.count_check({instr.upper_id})")
            self.emit("_stats.cycles += _costs['checkunsigned']")
            index = _operand(instr.index)
            array = _mangle(instr.array)
            self._reads_array(instr.array, instr.index)
            self.emit(
                f"if {index} < 0: raise _BoundsError({instr.lower_id}, "
                f"{index}, len({array}.data), 'lower')"
            )
            self._reads_array(instr.array, instr.index)
            self.emit(
                f"if {index} >= len({array}.data): raise _BoundsError("
                f"{instr.upper_id}, {index}, len({array}.data), 'upper')"
            )
            self._check_guard_suffix(instr)
        elif isinstance(instr, SpeculativeCheck):
            cost = "checkupper" if instr.kind == "upper" else "checklower"
            self._count(cost)
            self.emit("_stats.speculative_checks += 1")
            self.emit(f"_stats.count_check({instr.check_id})")
            index = _operand(instr.index)
            if instr.kind == "upper":
                condition = f"{index} >= len({_mangle(instr.array)}.data)"
                self._reads_array(instr.array, instr.index)
            else:
                condition = f"{index} < 0"
            self.emit(f"if {condition}:")
            self._indent += 1
            self.emit(f"_guards[{instr.guard_group}] = True")
            self.emit("_stats.speculation_failures += 1")
            self._indent -= 1
        elif isinstance(instr, Call):
            self._count("call")
            args = ", ".join(_operand(a) for a in instr.args)
            target = _mangle(instr.dest) if instr.dest is not None else "_"
            self.emit(f"{target} = _functions['{instr.callee}']({args})")
        elif isinstance(instr, Phi):  # pragma: no cover - φs live in block.phis
            raise MiniJRuntimeError("φ in block body")
        else:  # pragma: no cover
            raise MiniJRuntimeError(f"cannot compile {instr}")

    def _check_guard_prefix(self, instr) -> None:
        if instr.guard_group is not None:
            self.emit("_stats.cycles += _costs['guard_test']")
            self.emit(f"if _guards.get({instr.guard_group}, False):")
            self._indent += 1

    def _check_guard_suffix(self, instr) -> None:
        if instr.guard_group is not None:
            self._indent -= 1


class CompiledProgram:
    """A program translated to Python functions sharing one stats object."""

    def __init__(self, program: Program) -> None:
        self.stats = ExecutionStats()
        self._functions: Dict[str, object] = {}
        self._array_lines: Dict[str, Dict[int, Tuple[str, bool]]] = {}
        self.sources: Dict[str, str] = {}
        namespace = {
            "_stats": self.stats,
            "_costs": dict(DEFAULT_COSTS),
            "_div": minij_div,
            "_mod": minij_mod,
            "_ArrayValue": ArrayValue,
            "_BoundsError": BoundsCheckError,
            "_RuntimeError": MiniJRuntimeError,
            "_load": _checked_load,
            "_store": _checked_store,
            "_functions": self._functions,
        }
        for fn in program.functions.values():
            compiler = _FunctionCompiler(fn)
            source = compiler.compile()
            self._array_lines[fn.name] = compiler.array_lines
            self.sources[fn.name] = source
            exec(compile(source, f"<repro:{fn.name}>", "exec"), namespace)
            self._functions[fn.name] = namespace[fn.name]

    def run(self, function_name: str = "main", args: Sequence = ()) -> ExecutionResult:
        from repro.errors import CallDepthExceeded, UnknownFunctionError
        from repro.limits import recursion_headroom

        try:
            fn = self._functions[function_name]
        except KeyError:
            raise UnknownFunctionError(
                f"program has no function {function_name!r}"
            ) from None
        try:
            with recursion_headroom(20_000):
                value = fn(*args)
        except RecursionError:
            raise CallDepthExceeded(
                f"call depth exhausted the generated-code stack in "
                f"{function_name!r}"
            ) from None
        except NameError as exc:
            # Only IR variables can be unbound in the generated code; the
            # message names the identifier on every supported Python.
            identifier = re.search(r"'(v_\w+)'", str(exc))
            if identifier is None:
                raise
            name = _unmangle(identifier.group(1))
            _, read = self._array_read(exc.__traceback__)
            if read == (name, False):
                message = f"{name!r} is not an array (got None)"
            else:
                message = f"read of unset variable {name!r}"
            raise MiniJRuntimeError(message) from None
        except AttributeError as exc:
            # An array operand holding a set non-array value has no
            # ``.data``; any other AttributeError is a bug, not a trap.
            frame, read = self._array_read(exc.__traceback__)
            if read is None:
                raise
            name = read[0]
            held = frame.f_locals.get(_mangle(name))
            raise MiniJRuntimeError(
                f"{name!r} is not an array (got {held!r})"
            ) from None
        return ExecutionResult(value, self.stats)

    def _array_read(self, traceback):
        """The innermost frame and the array read its failing line makes
        (``None`` when it reads none, or is no generated function)."""
        while traceback.tb_next is not None:
            traceback = traceback.tb_next
        frame = traceback.tb_frame
        code = frame.f_code
        if code.co_filename != f"<repro:{code.co_name}>":
            return frame, None
        return frame, self._array_lines[code.co_name].get(traceback.tb_lineno)


def _checked_load(data: List[int], index: int) -> int:
    if not 0 <= index < len(data):
        raise MiniJRuntimeError(
            f"UNSOUND: unchecked load at index {index} (length {len(data)})"
        )
    return data[index]


def _checked_store(data: List[int], index: int, value: int) -> None:
    if not 0 <= index < len(data):
        raise MiniJRuntimeError(
            f"UNSOUND: unchecked store at index {index} (length {len(data)})"
        )
    data[index] = value


def compile_to_python(program: Program) -> CompiledProgram:
    """Translate ``program`` into executable Python (the compiled tier)."""
    return CompiledProgram(program)
