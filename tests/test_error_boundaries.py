"""Error-boundary regression tests: every phase that walks recursive
structures or looks up caller-supplied names must surface failures as
members of the :class:`ReproError` hierarchy, never as raw ``KeyError``
or ``RecursionError``.  Each test targets exactly one wrapped site so a
regression pinpoints the phase that started leaking.
"""

import sys

import pytest

from repro.errors import (
    CallDepthExceeded,
    CompileError,
    MiniJRuntimeError,
    NestingLimitError,
    ReproError,
    SourceLocation,
    UnknownFunctionError,
)
from repro.frontend import ast
from repro.frontend.parser import parse_source
from repro.frontend.semantic import check_program
from repro.frontend.types import INT
from repro.ir.lowering import lower_program
from repro.ir.parser import parse_ir_program
from repro.ir.printer import format_program
from repro.pipeline import compile_source, run
from repro.runtime.codegen import compile_to_python

_LOC = SourceLocation(1, 1)


def _deep_expr_source(depth: int) -> str:
    """A single expression nested far beyond any sane program."""
    expr = "0"
    for _ in range(depth):
        expr = f"({expr} + 1)"
    return f"fn main(): int {{ return {expr}; }}"


def _deep_ast(depth: int) -> ast.ProgramAST:
    """The same shape built directly, bypassing the parser, so the
    semantic checker and lowering walk hit their own recursion budgets."""
    expr: ast.Expr = ast.IntLiteral(_LOC, 0)
    for _ in range(depth):
        expr = ast.BinaryOp(_LOC, "+", expr, ast.IntLiteral(_LOC, 1))
    fn = ast.FunctionDecl(
        name="main",
        params=[],
        return_type=INT,
        body=[ast.ReturnStmt(_LOC, expr)],
        location=_LOC,
    )
    return ast.ProgramAST([fn])


# A nesting depth that overruns CPython's default recursion limit in all
# of the phases under test, with margin for interpreter-stack variance.
DEEP = sys.getrecursionlimit() * 4


class TestNestingLimits:
    def test_parser_wraps_recursion_error(self):
        with pytest.raises(NestingLimitError) as info:
            parse_source(_deep_expr_source(DEEP))
        assert "recursion budget" in str(info.value)

    def test_semantic_checker_wraps_recursion_error(self):
        with pytest.raises(NestingLimitError):
            check_program(_deep_ast(DEEP))

    def test_lowering_wraps_recursion_error(self):
        program = _deep_ast(4000)
        limit = sys.getrecursionlimit()
        try:
            # Give the semantic checker room to accept the program, then
            # clamp the budget so the overrun happens in lowering.
            sys.setrecursionlimit(100_000)
            info = check_program(program)
            sys.setrecursionlimit(1500)
            with pytest.raises(NestingLimitError):
                lower_program(program, info)
        finally:
            sys.setrecursionlimit(limit)

    def test_nesting_limit_is_a_compile_error(self):
        assert issubclass(NestingLimitError, CompileError)
        assert issubclass(NestingLimitError, ReproError)


RECURSIVE_SRC = """
fn spin(n: int): int {
  return spin(n + 1);
}
fn main(): int {
  return spin(0);
}
"""


TWO_FUNCTION_SRC = """
fn helper(x: int): int { return x + 1; }
fn main(): int { return helper(41); }
"""


PI_OF_UNSET_IR = """fn main() {
entry0:
    i.1 := pi(q.0) [lt 3]
    return i.1
}"""


PHI_WITHOUT_EDGE_IR = """fn main() {
entry0:
    x.0 := 1
    jump b1
b1:
    y.1 := phi(other: 2)
    return y.1
}"""


PHI_IN_ENTRY_IR = """fn main() {
entry0:
    y.1 := phi(other: 2)
    return y.1
}"""


# The φ has no value for edge3, but the run takes then1.
PHI_WITHOUT_UNTAKEN_EDGE_IR = """fn main() {
entry0:
    c.0 := 0
    %c0.0 := cmp.lt c.0, 1
    branch %c0.0 ? then1 : edge3
edge3:
    jump join2
then1:
    y.1 := 2
    jump join2
join2:
    y.2 := phi(then1: y.1)
    return y.2
}"""


#: One instruction (or terminator) that reads the unset variable ``q.0``
#: after ``x.0 := 1``, for every way an instruction reads an operand.
UNSET_READS = {
    "add": "w.0 := add q.0, x.0",
    "sub": "w.0 := sub q.0, x.0",
    "mul": "w.0 := mul q.0, x.0",
    "div": "w.0 := div q.0, x.0",
    "mod": "w.0 := mod q.0, x.0",
    "cmp": "w.0 := cmp.lt q.0, x.0",
    "copy": "w.0 := q.0",
    "newarray": "w.0 := newarray q.0",
    "arraylen": "w.0 := arraylen q.0",
    "load-array": "w.0 := load q.0[0]",
    "load-index": "w.0 := load a.0[q.0]",
    "store-array": "store q.0[0] := 1",
    "store-index": "store a.0[q.0] := 1",
    "store-value": "store a.0[0] := q.0",
    "checklower": "checklower #1 q.0",
    "checkupper-array": "checkupper #1 q.0[0]",
    "checkupper-index": "checkupper #1 a.0[q.0]",
    "call": "w.0 := call id(q.0)",
    "branch": "branch q.0 ? b1 : b1",
    "return": "return q.0",
}


#: One array-reading instruction whose array operand holds a set value
#: that is no array (``x.0 := 1``), for every instruction that reads one.
NON_ARRAY_READS = {
    "arraylen": "w.0 := arraylen x.0",
    "load": "w.0 := load x.0[0]",
    "store": "store x.0[0] := 1",
    # The array operand is read before the (unset) index, as in the
    # interpreter.
    "load-before-index": "w.0 := load x.0[q.0]",
    "checkupper": "checkupper #1 x.0[0]",
    "checkupper-self-index": "checkupper #1 x.0[x.0]",
    "checkunsigned": "checkunsigned #1+#2 x.0[0]",
    "checkunsigned-negative": "checkunsigned #1+#2 x.0[-1]",
    "speculate-upper": "speculate.upper #1 x.0[0] -> guard 0",
}


def _non_array_read_ir(line: str) -> str:
    return f"fn main() {{\nentry0:\n    x.0 := 1\n    {line}\n    return x.0\n}}"


def _unset_read_ir(line: str) -> str:
    terminator = line.startswith(("branch", "return"))
    return (
        "fn main() {\nentry0:\n    a.0 := newarray 4\n    x.0 := 1\n"
        f"    {line}\n"
        + ("" if terminator else "    return x.0\n")
        + ("b1:\n    return x.0\n" if line.startswith("branch") else "")
        + "}\n\nfn id(p.0) {\nentry0:\n    return p.0\n}"
    )


def _run_both_tiers(text: str):
    """Each tier's end of the run: its outcome (value, or trap class and
    message) and every counter the fuzzer compares."""
    from repro.fuzz.oracle import CODEGEN_COUNTERS
    from repro.robustness.differential import ExecutionOutcome
    from repro.runtime.interpreter import Interpreter

    ends = []
    for tier in (
        Interpreter(parse_ir_program(text)),
        compile_to_python(parse_ir_program(text)),
    ):
        try:
            outcome = ExecutionOutcome(value=tier.run("main").value)
        except MiniJRuntimeError as exc:
            outcome = ExecutionOutcome.from_trap(exc)
        counters = {name: getattr(tier.stats, name) for name in CODEGEN_COUNTERS}
        ends.append((outcome, counters))
    return ends


class TestRuntimeBoundaries:
    def test_interpreter_unknown_function(self):
        program = compile_source("fn main(): int { return 1; }")
        with pytest.raises(UnknownFunctionError) as info:
            run(program, "nope")
        assert "nope" in str(info.value)

    def test_interpreter_unknown_callee(self):
        # Unverified IR text: the call names a function the program lacks.
        text = format_program(compile_source(TWO_FUNCTION_SRC))
        program = parse_ir_program(text.replace("call helper", "call nothere"))
        with pytest.raises(UnknownFunctionError, match="'nothere'"):
            run(program, "main")

    def test_interpreter_call_depth(self):
        program = compile_source(RECURSIVE_SRC)
        with pytest.raises(CallDepthExceeded):
            run(program, "main")

    def test_interpreter_pi_of_unset_variable(self):
        # Unverified IR text: the π copies a variable nothing defines.
        program = parse_ir_program(PI_OF_UNSET_IR)
        with pytest.raises(MiniJRuntimeError, match=r"read of unset variable 'q\.0'"):
            run(program, "main")

    def test_interpreter_phi_without_value_for_the_edge_taken(self):
        # Unverified IR text: the φ has no incoming value for entry0.
        program = parse_ir_program(PHI_WITHOUT_EDGE_IR)
        with pytest.raises(
            MiniJRuntimeError, match=r"in block 'b1' has no incoming value from 'entry0'"
        ):
            run(program, "main")

    def test_malformed_ir_traps_are_outcomes(self):
        """The differential gate and the worker catch only
        MiniJRuntimeError: both leaks must arrive as trapped outcomes."""
        from repro.robustness.differential import execute_outcome

        for text in (PI_OF_UNSET_IR, PHI_WITHOUT_EDGE_IR):
            outcome = execute_outcome(parse_ir_program(text))
            assert outcome.trap == "MiniJRuntimeError"

    @pytest.mark.parametrize(
        "text",
        [
            PI_OF_UNSET_IR,
            PHI_WITHOUT_EDGE_IR,
            PHI_IN_ENTRY_IR,
            PHI_WITHOUT_UNTAKEN_EDGE_IR,
        ],
        ids=["pi-of-unset", "phi-without-edge", "phi-in-entry", "phi-edge-not-taken"],
    )
    def test_generated_code_ends_the_run_like_the_interpreter(self, text):
        """Same value or trap (class and message) and every counter
        equal: the generated code compiles a φ that lacks an edge and
        traps only when the run takes that edge."""
        interpreted, generated = _run_both_tiers(text)
        assert interpreted == generated

    @pytest.mark.parametrize("line", UNSET_READS.values(), ids=UNSET_READS.keys())
    def test_unset_read_ends_both_tiers_alike(self, line):
        """An unset operand traps both tiers with the same message and
        counters: an arithmetic operand before its cycles are charged, an
        array operand as "not an array"."""
        interpreted, generated = _run_both_tiers(_unset_read_ir(line))
        assert interpreted[0].trap == "MiniJRuntimeError"
        assert interpreted == generated

    @pytest.mark.parametrize(
        "line", NON_ARRAY_READS.values(), ids=NON_ARRAY_READS.keys()
    )
    def test_non_array_operand_ends_both_tiers_alike(self, line):
        """A set value that is no array, read as an array operand, traps
        both tiers with the interpreter's "not an array (got ...)" and the
        same counters."""
        interpreted, generated = _run_both_tiers(_non_array_read_ir(line))
        assert "is not an array (got " in interpreted[0].trap_message
        assert interpreted == generated

    def test_codegen_unknown_function(self):
        program = compile_source("fn main(): int { return 1; }")
        compiled = compile_to_python(program)
        with pytest.raises(UnknownFunctionError):
            compiled.run("nope")

    def test_codegen_call_depth(self):
        compiled = compile_to_python(compile_source(RECURSIVE_SRC))
        with pytest.raises(CallDepthExceeded):
            compiled.run("main")

    def test_runtime_boundaries_are_minij_runtime_errors(self):
        assert issubclass(UnknownFunctionError, MiniJRuntimeError)
        assert issubclass(CallDepthExceeded, MiniJRuntimeError)
        assert issubclass(MiniJRuntimeError, ReproError)
