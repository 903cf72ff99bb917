"""Semantic analysis (scoping and type checking) for MiniJ ASTs.

The checker validates the program and produces a :class:`SemanticInfo`
object that later phases (lowering) consult:

* ``expr_types`` — the type of every expression node (keyed by ``id()``);
* ``signatures`` — parameter/return types of every function;
* per-statement resolution of variable declarations.

MiniJ scoping rules: each function body is one flat scope per lexical block;
inner blocks may shadow is **not** allowed (it keeps lowering and the SSA
construction honest and matches the restricted Java subsets used in bounds-
check literature); a variable must be declared (``let``) before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NestingLimitError, TypeCheckError
from repro.frontend import ast
from repro.frontend.types import BOOL, INT, INT_ARRAY, VOID, Type

_ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}
_COMPARISON_OPS = {"<", "<=", ">", ">=", "==", "!="}
_BOOLEAN_OPS = {"&&", "||"}


@dataclass
class FunctionSignature:
    """Parameter and return types of a MiniJ function."""

    name: str
    param_types: List[Type]
    return_type: Type


@dataclass
class SemanticInfo:
    """The result of semantic analysis over a program."""

    signatures: Dict[str, FunctionSignature]
    expr_types: Dict[int, Type] = field(default_factory=dict)
    var_types: Dict[Tuple[str, str], Type] = field(default_factory=dict)

    def var_type(self, function_name: str, var_name: str) -> Type:
        """Return the declared type of a local/parameter."""
        return self.var_types[(function_name, var_name)]


class _Scope:
    """A stack of lexical blocks mapping names to types."""

    def __init__(self) -> None:
        self._blocks: List[Dict[str, Type]] = [{}]

    def push(self) -> None:
        self._blocks.append({})

    def pop(self) -> None:
        self._blocks.pop()

    def declare(self, name: str, var_type: Type, location) -> None:
        for block in self._blocks:
            if name in block:
                raise TypeCheckError(
                    f"variable {name!r} is already declared in this function "
                    "(MiniJ forbids shadowing)",
                    location,
                )
        self._blocks[-1][name] = var_type

    def lookup(self, name: str) -> Optional[Type]:
        for block in reversed(self._blocks):
            if name in block:
                return block[name]
        return None


class TypeChecker:
    """Checks a :class:`ProgramAST` and accumulates a :class:`SemanticInfo`."""

    def __init__(self, program: ast.ProgramAST) -> None:
        self._program = program
        self._info = SemanticInfo(signatures={})
        self._current: Optional[ast.FunctionDecl] = None
        self._scope = _Scope()
        self._loop_depth = 0

    def check(self) -> SemanticInfo:
        """Check the whole program; raises :class:`TypeCheckError` on the
        first violation."""
        seen = set()
        for fn in self._program.functions:
            if fn.name in seen:
                raise TypeCheckError(f"duplicate function {fn.name!r}", fn.location)
            seen.add(fn.name)
            self._info.signatures[fn.name] = FunctionSignature(
                fn.name, [p.type for p in fn.params], fn.return_type
            )
        for fn in self._program.functions:
            self._check_function(fn)
        return self._info

    # ------------------------------------------------------------------
    # Functions and statements.
    # ------------------------------------------------------------------

    def _check_function(self, fn: ast.FunctionDecl) -> None:
        self._current = fn
        self._scope = _Scope()
        self._loop_depth = 0
        seen_params = set()
        for param in fn.params:
            if param.name in seen_params:
                raise TypeCheckError(
                    f"duplicate parameter {param.name!r}", param.location
                )
            seen_params.add(param.name)
            self._scope.declare(param.name, param.type, param.location)
            self._info.var_types[(fn.name, param.name)] = param.type
        self._check_block(fn.body)
        if fn.return_type is not VOID and not self._block_always_returns(fn.body):
            raise TypeCheckError(
                f"function {fn.name!r} may reach the end of its body without "
                f"returning a {fn.return_type}",
                fn.location,
            )

    def _block_always_returns(self, body: List[ast.Stmt]) -> bool:
        """Conservative reachability: does every path through ``body`` end
        in a return?"""
        for stmt in body:
            if isinstance(stmt, ast.ReturnStmt):
                return True
            if isinstance(stmt, ast.IfStmt):
                if (
                    stmt.else_body
                    and self._block_always_returns(stmt.then_body)
                    and self._block_always_returns(stmt.else_body)
                ):
                    return True
            if isinstance(stmt, ast.WhileStmt):
                # ``while (true)`` with no break never falls through.
                if (
                    isinstance(stmt.condition, ast.BoolLiteral)
                    and stmt.condition.value
                    and not self._contains_break(stmt.body)
                ):
                    return True
        return False

    def _contains_break(self, body: List[ast.Stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.BreakStmt):
                return True
            if isinstance(stmt, ast.IfStmt):
                if self._contains_break(stmt.then_body) or self._contains_break(
                    stmt.else_body
                ):
                    return True
            # break inside a nested loop binds to that loop, so while/for
            # bodies are opaque here.
        return False

    def _check_block(self, body: List[ast.Stmt]) -> None:
        self._scope.push()
        for stmt in body:
            self._check_statement(stmt)
        self._scope.pop()

    def _check_statement(self, stmt: ast.Stmt) -> None:
        assert self._current is not None
        if isinstance(stmt, ast.LetStmt):
            value_type = self._check_expr(stmt.value)
            if value_type is not stmt.declared_type:
                raise TypeCheckError(
                    f"cannot initialize {stmt.name!r}: declared {stmt.declared_type}, "
                    f"initializer is {value_type}",
                    stmt.location,
                )
            self._scope.declare(stmt.name, stmt.declared_type, stmt.location)
            self._info.var_types[(self._current.name, stmt.name)] = stmt.declared_type
        elif isinstance(stmt, ast.AssignStmt):
            var_type = self._scope.lookup(stmt.name)
            if var_type is None:
                raise TypeCheckError(f"undeclared variable {stmt.name!r}", stmt.location)
            value_type = self._check_expr(stmt.value)
            if value_type is not var_type:
                raise TypeCheckError(
                    f"cannot assign {value_type} to {stmt.name!r} of type {var_type}",
                    stmt.location,
                )
        elif isinstance(stmt, ast.ArrayStoreStmt):
            array_type = self._check_expr(stmt.array)
            if array_type is not INT_ARRAY:
                raise TypeCheckError(
                    f"indexed store into non-array of type {array_type}", stmt.location
                )
            index_type = self._check_expr(stmt.index)
            if index_type is not INT:
                raise TypeCheckError(
                    f"array index must be int, found {index_type}", stmt.location
                )
            value_type = self._check_expr(stmt.value)
            if value_type is not INT:
                raise TypeCheckError(
                    f"array element must be int, found {value_type}", stmt.location
                )
        elif isinstance(stmt, ast.IfStmt):
            self._require_bool(stmt.condition, "if condition")
            self._check_block(stmt.then_body)
            self._check_block(stmt.else_body)
        elif isinstance(stmt, ast.WhileStmt):
            self._require_bool(stmt.condition, "while condition")
            self._loop_depth += 1
            self._check_block(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.ForStmt):
            self._scope.push()
            if stmt.init is not None:
                self._check_statement(stmt.init)
            if stmt.condition is not None:
                self._require_bool(stmt.condition, "for condition")
            if stmt.step is not None:
                self._check_statement(stmt.step)
            self._loop_depth += 1
            self._check_block(stmt.body)
            self._loop_depth -= 1
            self._scope.pop()
        elif isinstance(stmt, ast.ReturnStmt):
            expected = self._current.return_type
            if stmt.value is None:
                if expected is not VOID:
                    raise TypeCheckError(
                        f"return without value in function returning {expected}",
                        stmt.location,
                    )
            else:
                actual = self._check_expr(stmt.value)
                if expected is VOID:
                    raise TypeCheckError(
                        "return with a value in a void function", stmt.location
                    )
                if actual is not expected:
                    raise TypeCheckError(
                        f"return type mismatch: expected {expected}, found {actual}",
                        stmt.location,
                    )
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if self._loop_depth == 0:
                keyword = "break" if isinstance(stmt, ast.BreakStmt) else "continue"
                raise TypeCheckError(f"{keyword!r} outside of a loop", stmt.location)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, allow_void=True)
        else:  # pragma: no cover - exhaustive over AST statements
            raise TypeCheckError(f"unknown statement {type(stmt).__name__}", stmt.location)

    def _require_bool(self, expr: ast.Expr, what: str) -> None:
        found = self._check_expr(expr)
        if found is not BOOL:
            raise TypeCheckError(f"{what} must be bool, found {found}", expr.location)

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, allow_void: bool = False) -> Type:
        result = self._check_expr_inner(expr, allow_void)
        self._info.expr_types[id(expr)] = result
        return result

    def _check_expr_inner(self, expr: ast.Expr, allow_void: bool) -> Type:
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.BoolLiteral):
            return BOOL
        if isinstance(expr, ast.VarRef):
            var_type = self._scope.lookup(expr.name)
            if var_type is None:
                raise TypeCheckError(f"undeclared variable {expr.name!r}", expr.location)
            return var_type
        if isinstance(expr, ast.UnaryOp):
            operand = self._check_expr(expr.operand)
            if expr.op == "-":
                if operand is not INT:
                    raise TypeCheckError(
                        f"unary '-' needs int, found {operand}", expr.location
                    )
                return INT
            if expr.op == "!":
                if operand is not BOOL:
                    raise TypeCheckError(
                        f"'!' needs bool, found {operand}", expr.location
                    )
                return BOOL
            raise TypeCheckError(f"unknown unary operator {expr.op!r}", expr.location)
        if isinstance(expr, ast.BinaryOp):
            return self._check_binary(expr)
        if isinstance(expr, ast.ArrayIndex):
            array_type = self._check_expr(expr.array)
            if array_type is not INT_ARRAY:
                raise TypeCheckError(
                    f"cannot index non-array of type {array_type}", expr.location
                )
            index_type = self._check_expr(expr.index)
            if index_type is not INT:
                raise TypeCheckError(
                    f"array index must be int, found {index_type}", expr.location
                )
            return INT
        if isinstance(expr, ast.ArrayLength):
            array_type = self._check_expr(expr.array)
            if array_type is not INT_ARRAY:
                raise TypeCheckError(
                    f"len() needs an array, found {array_type}", expr.location
                )
            return INT
        if isinstance(expr, ast.NewArray):
            length_type = self._check_expr(expr.length)
            if length_type is not INT:
                raise TypeCheckError(
                    f"array length must be int, found {length_type}", expr.location
                )
            return INT_ARRAY
        if isinstance(expr, ast.Call):
            signature = self._info.signatures.get(expr.callee)
            if signature is None:
                raise TypeCheckError(f"unknown function {expr.callee!r}", expr.location)
            if len(expr.args) != len(signature.param_types):
                raise TypeCheckError(
                    f"{expr.callee!r} expects {len(signature.param_types)} "
                    f"argument(s), got {len(expr.args)}",
                    expr.location,
                )
            for arg, expected in zip(expr.args, signature.param_types):
                actual = self._check_expr(arg)
                if actual is not expected:
                    raise TypeCheckError(
                        f"argument to {expr.callee!r}: expected {expected}, "
                        f"found {actual}",
                        arg.location,
                    )
            if signature.return_type is VOID and not allow_void:
                raise TypeCheckError(
                    f"void function {expr.callee!r} used as a value", expr.location
                )
            return signature.return_type
        raise TypeCheckError(  # pragma: no cover - exhaustive over AST
            f"unknown expression {type(expr).__name__}", expr.location
        )

    def _check_binary(self, expr: ast.BinaryOp) -> Type:
        lhs = self._check_expr(expr.lhs)
        rhs = self._check_expr(expr.rhs)
        if expr.op in _ARITHMETIC_OPS:
            if lhs is not INT or rhs is not INT:
                raise TypeCheckError(
                    f"operator {expr.op!r} needs int operands, found {lhs} and {rhs}",
                    expr.location,
                )
            return INT
        if expr.op in _COMPARISON_OPS:
            if expr.op in ("==", "!="):
                if lhs is not rhs or lhs is INT_ARRAY:
                    raise TypeCheckError(
                        f"operator {expr.op!r} needs matching scalar operands, "
                        f"found {lhs} and {rhs}",
                        expr.location,
                    )
            else:
                if lhs is not INT or rhs is not INT:
                    raise TypeCheckError(
                        f"operator {expr.op!r} needs int operands, found {lhs} and {rhs}",
                        expr.location,
                    )
            return BOOL
        if expr.op in _BOOLEAN_OPS:
            if lhs is not BOOL or rhs is not BOOL:
                raise TypeCheckError(
                    f"operator {expr.op!r} needs bool operands, found {lhs} and {rhs}",
                    expr.location,
                )
            return BOOL
        raise TypeCheckError(f"unknown operator {expr.op!r}", expr.location)


def check_program(program: ast.ProgramAST) -> SemanticInfo:
    """Type-check ``program`` and return the semantic information.

    Like the parser, the checker recurses per nesting level; a program
    deep enough to exhaust the host stack is rejected with
    :class:`~repro.errors.NestingLimitError` instead of leaking a raw
    :class:`RecursionError`.
    """
    try:
        return TypeChecker(program).check()
    except RecursionError:
        raise NestingLimitError(
            "program nesting exceeds the type checker's recursion budget"
        ) from None
