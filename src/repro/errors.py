"""Exception hierarchy shared across the repro package.

Every user-facing error raised by the compiler pipeline derives from
:class:`ReproError` so that callers can catch one type.  Runtime (VM) errors
derive from :class:`MiniJRuntimeError`; among these,
:class:`BoundsCheckError` is raised when an array bounds check fails, which
is the observable event the ABCD optimization must preserve.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SourceLocation:
    """A (line, column) pair pointing into MiniJ source text.

    Columns and lines are 1-based, matching what editors display.
    """

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"SourceLocation({self.line}, {self.column})"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.line, self.column) == (other.line, other.column)

    def __hash__(self) -> int:
        return hash((self.line, self.column))


class CompileError(ReproError):
    """An error detected while compiling MiniJ source.

    Carries an optional :class:`SourceLocation` so messages can point at the
    offending token or construct.
    """

    def __init__(self, message: str, location: "SourceLocation | None" = None) -> None:
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LexError(CompileError):
    """Raised by the lexer on malformed input (bad character, bad number)."""


class ParseError(CompileError):
    """Raised by the parser on a syntax error."""


class TypeCheckError(CompileError):
    """Raised by semantic analysis on a type or scoping error."""


class LoweringError(CompileError):
    """Raised when the AST-to-IR lowering meets an unsupported construct."""


class NestingLimitError(CompileError):
    """A frontend stage ran out of Python recursion on a pathologically
    nested program.

    The recursive-descent parser, the type checker, and the lowering walk
    all recurse once per nesting level; without this wrapper a deep enough
    expression escapes them as a raw :class:`RecursionError`, which the
    differential-fuzzing oracle would triage as a compiler crash rather
    than a rejected input.
    """


class IRVerificationError(ReproError):
    """Raised by the IR verifier when a function violates an IR invariant."""


class PassGuardError(ReproError):
    """A sandboxed optimization pass failed while strict mode was on.

    Outside strict mode the pass-guard layer contains the failure: it
    rolls the function back to its pre-pass snapshot and records a
    ``PassFailure`` instead of raising.
    """


class DefUseIntegrityError(ReproError):
    """The incremental def-use index disagrees with the IR (debug mode).

    Raised by :func:`repro.ir.verifier.verify_def_use`, which a debug
    session runs after every pass, when a rebuild-from-scratch finds a
    dangling use, a stale index entry, a use-list out of sync, or a use
    its definition does not dominate — i.e. a pass mutated the function
    without going through the chain-maintaining mutators and without
    invalidating the index.
    """


class CertificateError(ReproError):
    """A proof-witness certificate was rejected while strict mode was on.

    Outside strict mode the certificate layer contains the rejection: the
    elimination is revoked (the check stays in the program) and repeated
    rejections quarantine the function to unoptimized compilation.
    """


class SoundnessGateError(ReproError):
    """The differential soundness gate found an optimized program whose
    behavior diverges from its unoptimized baseline (strict mode only;
    otherwise the gate silently reverts to the baseline)."""


class MiniJRuntimeError(ReproError):
    """Base class for errors raised while interpreting a MiniJ program."""


class BoundsCheckError(MiniJRuntimeError):
    """An array access was out of bounds.

    ``check_id`` identifies the failing check instruction; ``index`` and
    ``length`` record the observed values.  The ABCD transformation must
    never change *where* this exception is raised.
    """

    def __init__(self, check_id: int, index: int, length: int, kind: str) -> None:
        self.check_id = check_id
        self.index = index
        self.length = length
        self.kind = kind
        super().__init__(
            f"bounds check #{check_id} failed ({kind}): index {index}, length {length}"
        )


class NegativeArraySizeError(MiniJRuntimeError):
    """``new int[n]`` was executed with a negative ``n``."""


class DivisionByZeroError(MiniJRuntimeError):
    """Integer division or modulo by zero."""


class TrapLimitExceeded(MiniJRuntimeError):
    """The interpreter exceeded its configured fuel (instruction budget)."""


class CallDepthExceeded(MiniJRuntimeError):
    """MiniJ call recursion exhausted the host interpreter's stack.

    A resource limit like :class:`TrapLimitExceeded`, not a program
    error: unbounded MiniJ recursion would otherwise surface as a raw
    :class:`RecursionError` escaping the VM boundary.
    """


class UnknownFunctionError(MiniJRuntimeError):
    """Execution was requested for a function name the program lacks."""
