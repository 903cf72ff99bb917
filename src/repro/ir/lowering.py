"""Lowering from MiniJ ASTs to the three-address CFG IR.

The lowering makes every array access's bounds checks explicit: an access
``a[i]`` becomes::

    checklower #k  i          ; raises unless i >= 0
    checkupper #k' a[i]       ; raises unless i < len(a)
    t := load a[i]            ; (or store)

These check instructions carry program-unique ids and are exactly what the
ABCD optimizer later removes.  Other notable lowering decisions:

* ``for`` loops desugar to ``while`` loops (``continue`` jumps to the step);
* short-circuit ``&&``/``||`` lower to control flow, and when they appear in
  branch position they lower *directly* into the CFG so that comparisons
  feed branches — the shape the π-insertion (e-SSA) pass needs for
  constraint class C4;
* constant array indices are materialized into temporaries so every check's
  index is a variable, giving the inequality graph a vertex to work with;
* booleans are 0/1 integers in the IR.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import LoweringError, NestingLimitError
from repro.frontend import ast
from repro.frontend.semantic import SemanticInfo
from repro.frontend.types import VOID
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
    CheckUpper,
    Cmp,
    Const,
    Copy,
    Instr,
    Jump,
    Operand,
    Return,
    Var,
)

_BINOP_OPCODES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod"}
_CMP_OPCODES = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}


class _FunctionLowerer:
    """Lowers one function declaration into a :class:`Function`."""

    def __init__(self, decl: ast.FunctionDecl, info: SemanticInfo, program: Program) -> None:
        self._decl = decl
        self._info = info
        self._program = program
        self.fn = Function(
            decl.name,
            [p.name for p in decl.params],
            [p.type for p in decl.params],
            decl.return_type,
        )
        self._current: Optional[BasicBlock] = None
        # Stack of (continue_target, break_target) for enclosing loops.
        self._loop_targets: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Emission helpers.
    # ------------------------------------------------------------------

    def _emit(self, instr: Instr) -> None:
        assert self._current is not None, "emitting with no open block"
        assert self._current.terminator is None, "emitting into terminated block"
        self._current.body.append(instr)

    def _terminate(self, instr: Instr) -> None:
        assert self._current is not None
        assert self._current.terminator is None
        self._current.terminator = instr

    def _start_block(self, block: BasicBlock) -> None:
        self._current = block

    def _open(self) -> bool:
        """Is the current block still accepting instructions?"""
        return self._current is not None and self._current.terminator is None

    def _as_var(self, operand: Operand, hint: str = "t") -> str:
        """Force an operand into a variable, copying a constant if needed."""
        if isinstance(operand, Var):
            return operand.name
        temp = self.fn.new_temp(hint)
        self._emit(Copy(temp, operand))
        return temp

    # ------------------------------------------------------------------
    # Function body.
    # ------------------------------------------------------------------

    def lower(self) -> Function:
        entry = self.fn.new_block("entry")
        self.fn.entry = entry.label
        self._start_block(entry)
        self._lower_block(self._decl.body)
        if self._open():
            if self._decl.return_type is VOID:
                self._terminate(Return(None))
            else:
                # The type checker guarantees this block is unreachable on
                # any real execution; give it a terminator anyway so the IR
                # stays well-formed.
                self._terminate(Return(Const(0)))
        self.fn.remove_unreachable_blocks()
        return self.fn

    def _lower_block(self, statements: List[ast.Stmt]) -> None:
        for stmt in statements:
            if not self._open():
                # Code after return/break/continue is unreachable; lower it
                # into a detached block that the cleanup pass removes.
                dead = self.fn.new_block("dead")
                self._start_block(dead)
            self._lower_statement(stmt)

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------

    def _lower_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.LetStmt):
            value = self._lower_expr(stmt.value)
            self._emit(Copy(stmt.name, value))
        elif isinstance(stmt, ast.AssignStmt):
            value = self._lower_expr(stmt.value)
            self._emit(Copy(stmt.name, value))
        elif isinstance(stmt, ast.ArrayStoreStmt):
            array = self._as_var(self._lower_expr(stmt.array), "arr")
            index = self._lower_index(stmt.index)
            value = self._lower_expr(stmt.value)
            self._emit_checks(array, index)
            self._emit(ArrayStore(array, index, value))
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            value = None if stmt.value is None else self._lower_expr(stmt.value)
            self._terminate(Return(value))
        elif isinstance(stmt, ast.BreakStmt):
            if not self._loop_targets:
                raise LoweringError("'break' outside loop", stmt.location)
            self._terminate(Jump(self._loop_targets[-1][1]))
        elif isinstance(stmt, ast.ContinueStmt):
            if not self._loop_targets:
                raise LoweringError("'continue' outside loop", stmt.location)
            self._terminate(Jump(self._loop_targets[-1][0]))
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr, result_used=False)
        else:  # pragma: no cover - exhaustive over AST statements
            raise LoweringError(f"cannot lower {type(stmt).__name__}", stmt.location)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        then_block = self.fn.new_block("then")
        join_block = self.fn.new_block("join")
        else_block = self.fn.new_block("else") if stmt.else_body else join_block

        self._lower_condition(stmt.condition, then_block.label, else_block.label)

        self._start_block(then_block)
        self._lower_block(stmt.then_body)
        if self._open():
            self._terminate(Jump(join_block.label))

        if stmt.else_body:
            self._start_block(else_block)
            self._lower_block(stmt.else_body)
            if self._open():
                self._terminate(Jump(join_block.label))

        self._start_block(join_block)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self.fn.new_block("while")
        body = self.fn.new_block("body")
        exit_block = self.fn.new_block("exit")

        self._terminate(Jump(header.label))
        self._start_block(header)
        self._lower_condition(stmt.condition, body.label, exit_block.label)

        self._loop_targets.append((header.label, exit_block.label))
        self._start_block(body)
        self._lower_block(stmt.body)
        if self._open():
            self._terminate(Jump(header.label))
        self._loop_targets.pop()

        self._start_block(exit_block)

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        if stmt.init is not None:
            self._lower_statement(stmt.init)

        header = self.fn.new_block("for")
        body = self.fn.new_block("body")
        step = self.fn.new_block("step")
        exit_block = self.fn.new_block("exit")

        self._terminate(Jump(header.label))
        self._start_block(header)
        if stmt.condition is not None:
            self._lower_condition(stmt.condition, body.label, exit_block.label)
        else:
            self._terminate(Jump(body.label))

        self._loop_targets.append((step.label, exit_block.label))
        self._start_block(body)
        self._lower_block(stmt.body)
        if self._open():
            self._terminate(Jump(step.label))
        self._loop_targets.pop()

        self._start_block(step)
        if stmt.step is not None:
            self._lower_statement(stmt.step)
        if self._open():
            self._terminate(Jump(header.label))

        self._start_block(exit_block)

    # ------------------------------------------------------------------
    # Conditions (branch position).
    # ------------------------------------------------------------------

    def _lower_condition(self, expr: ast.Expr, true_label: str, false_label: str) -> None:
        """Lower a boolean expression directly into control flow.

        Comparisons become ``Cmp`` + ``Branch`` pairs, which is the pattern
        the e-SSA pass recognizes for C4 π-insertion.
        """
        if isinstance(expr, ast.BoolLiteral):
            self._terminate(Jump(true_label if expr.value else false_label))
            return
        if isinstance(expr, ast.UnaryOp) and expr.op == "!":
            self._lower_condition(expr.operand, false_label, true_label)
            return
        if isinstance(expr, ast.BinaryOp) and expr.op == "&&":
            mid = self.fn.new_block("and")
            self._lower_condition(expr.lhs, mid.label, false_label)
            self._start_block(mid)
            self._lower_condition(expr.rhs, true_label, false_label)
            return
        if isinstance(expr, ast.BinaryOp) and expr.op == "||":
            mid = self.fn.new_block("or")
            self._lower_condition(expr.lhs, true_label, mid.label)
            self._start_block(mid)
            self._lower_condition(expr.rhs, true_label, false_label)
            return
        if isinstance(expr, ast.BinaryOp) and expr.op in _CMP_OPCODES:
            lhs = self._lower_expr(expr.lhs)
            rhs = self._lower_expr(expr.rhs)
            temp = self.fn.new_temp("c")
            self._emit(Cmp(temp, _CMP_OPCODES[expr.op], lhs, rhs))
            self._terminate(Branch(Var(temp), true_label, false_label))
            return
        # Generic boolean value (variable, call, ...): branch on it directly.
        cond = self._lower_expr(expr)
        self._terminate(Branch(cond, true_label, false_label))

    # ------------------------------------------------------------------
    # Expressions (value position).
    # ------------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr, result_used: bool = True) -> Operand:
        if isinstance(expr, ast.IntLiteral):
            return Const(expr.value)
        if isinstance(expr, ast.BoolLiteral):
            return Const(1 if expr.value else 0)
        if isinstance(expr, ast.VarRef):
            return Var(expr.name)
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.ArrayIndex):
            array = self._as_var(self._lower_expr(expr.array), "arr")
            index = self._lower_index(expr.index)
            self._emit_checks(array, index)
            dest = self.fn.new_temp("v")
            self._emit(ArrayLoad(dest, array, index))
            return Var(dest)
        if isinstance(expr, ast.ArrayLength):
            array = self._as_var(self._lower_expr(expr.array), "arr")
            dest = self.fn.new_temp("n")
            self._emit(ArrayLen(dest, array))
            return Var(dest)
        if isinstance(expr, ast.NewArray):
            length = self._lower_expr(expr.length)
            dest = self.fn.new_temp("a")
            self._emit(ArrayNew(dest, length))
            return Var(dest)
        if isinstance(expr, ast.Call):
            args = [self._lower_expr(arg) for arg in expr.args]
            signature = self._info.signatures[expr.callee]
            if signature.return_type is VOID:
                self._emit(Call(None, expr.callee, args))
                return Const(0)
            dest = self.fn.new_temp("r") if result_used else None
            self._emit(Call(dest, expr.callee, args))
            return Var(dest) if dest is not None else Const(0)
        raise LoweringError(  # pragma: no cover - exhaustive over AST
            f"cannot lower {type(expr).__name__}", expr.location
        )

    def _lower_unary(self, expr: ast.UnaryOp) -> Operand:
        operand = self._lower_expr(expr.operand)
        dest = self.fn.new_temp("u")
        if expr.op == "-":
            # Fold negation of literals so ``-1`` is a plain constant.
            if isinstance(operand, Const):
                return Const(-operand.value)
            self._emit(BinOp(dest, "sub", Const(0), operand))
        elif expr.op == "!":
            self._emit(Cmp(dest, "eq", operand, Const(0)))
        else:  # pragma: no cover - parser restricts unary ops
            raise LoweringError(f"unknown unary {expr.op!r}", expr.location)
        return Var(dest)

    def _lower_binary(self, expr: ast.BinaryOp) -> Operand:
        if expr.op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        lhs = self._lower_expr(expr.lhs)
        rhs = self._lower_expr(expr.rhs)
        dest = self.fn.new_temp("t")
        if expr.op in _BINOP_OPCODES:
            self._emit(BinOp(dest, _BINOP_OPCODES[expr.op], lhs, rhs))
        elif expr.op in _CMP_OPCODES:
            self._emit(Cmp(dest, _CMP_OPCODES[expr.op], lhs, rhs))
        else:  # pragma: no cover - parser restricts binary ops
            raise LoweringError(f"unknown operator {expr.op!r}", expr.location)
        return Var(dest)

    def _lower_short_circuit(self, expr: ast.BinaryOp) -> Operand:
        """Lower ``&&`` / ``||`` in value position via control flow into a
        temporary (merged by SSA construction later)."""
        result = self.fn.new_temp("b")
        rhs_block = self.fn.new_block("sc")
        join_block = self.fn.new_block("scjoin")

        if expr.op == "&&":
            self._emit(Copy(result, Const(0)))
            self._lower_condition(expr.lhs, rhs_block.label, join_block.label)
        else:
            self._emit(Copy(result, Const(1)))
            self._lower_condition(expr.lhs, join_block.label, rhs_block.label)

        self._start_block(rhs_block)
        rhs_value = self._lower_expr(expr.rhs)
        self._emit(Copy(result, rhs_value))
        self._terminate(Jump(join_block.label))

        self._start_block(join_block)
        return Var(result)

    # ------------------------------------------------------------------
    # Array access checks.
    # ------------------------------------------------------------------

    def _lower_index(self, expr: ast.Expr) -> Operand:
        """Lower an index expression, materializing constants into temps so
        the checks always guard a *variable* (a vertex in the inequality
        graph)."""
        operand = self._lower_expr(expr)
        if isinstance(operand, Const):
            temp = self.fn.new_temp("i")
            self._emit(Copy(temp, operand))
            return Var(temp)
        return operand

    def _emit_checks(self, array: str, index: Operand) -> None:
        self._emit(CheckLower(index, self._program.new_check_id()))
        self._emit(CheckUpper(array, index, self._program.new_check_id()))


def lower_program(program_ast: ast.ProgramAST, info: SemanticInfo) -> Program:
    """Lower a type-checked AST into an IR :class:`Program`.

    The expression walk recurses per nesting level; exhausting the host
    stack is reported as :class:`~repro.errors.NestingLimitError` rather
    than leaking a raw :class:`RecursionError` past the compile boundary.
    """
    program = Program()
    try:
        for decl in program_ast.functions:
            lowerer = _FunctionLowerer(decl, info, program)
            program.add_function(lowerer.lower())
    except RecursionError:
        raise NestingLimitError(
            "program nesting exceeds the lowering walk's recursion budget"
        ) from None
    return program
