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
