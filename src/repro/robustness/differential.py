"""Differential soundness gating: optimized vs. unoptimized execution.

The ultimate safety property of ABCD is behavioral: on every input the
optimized program must produce the same value, trap at the same bounds
check (same ``check_id``), and raise the same runtime error class as the
unoptimized program.  This module makes that property executable:

* :func:`execute_outcome` runs one program and captures its observable
  outcome (value or trap) in a comparable record; :func:`execute_counted`
  also returns the run's counters;
* :func:`compare_programs` runs base and optimized side by side;
* :func:`gated_optimize` is the fail-safe entry point: clone, optimize
  under pass guards, differentially execute, and **revert to the
  unoptimized program** when behavior diverges — an unsound optimization
  can then never escape the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.abcd import ABCDConfig, ABCDReport, PassFailure
from repro.errors import BoundsCheckError, MiniJRuntimeError, SoundnessGateError
from repro.ir.function import Program
from repro.runtime.interpreter import ExecutionStats, Interpreter
from repro.runtime.profiler import Profile

#: Differential runs get a bounded fuel so a corrupted optimization that
#: introduces non-termination still lets the gate reach its verdict.
DEFAULT_FUEL = 100_000_000


@dataclass(frozen=True)
class ExecutionOutcome:
    """The observable behavior of one program run.

    ``trap`` is the runtime error class name (``None`` for a normal
    return); for bounds failures ``check_id``/``index``/``length``/``kind``
    pin down *which* check fired and with what values — ABCD must never
    move or change a trap, only remove checks that cannot fire.
    """

    value: object = None
    trap: Optional[str] = None
    trap_message: str = ""
    check_id: Optional[int] = None
    index: Optional[int] = None
    length: Optional[int] = None
    kind: Optional[str] = None

    def describe(self) -> str:
        if self.trap is None:
            return f"returned {self.value!r}"
        if self.check_id is not None:
            return (
                f"trapped {self.trap} at check #{self.check_id} "
                f"({self.kind}, index {self.index}, length {self.length})"
            )
        return f"trapped {self.trap}: {self.trap_message}"

    @classmethod
    def from_trap(cls, exc: MiniJRuntimeError) -> "ExecutionOutcome":
        """The outcome of a run that raised ``exc``; a bounds trap also
        records which check fired and with what values."""
        if isinstance(exc, BoundsCheckError):
            return cls(
                trap=type(exc).__name__,
                trap_message=str(exc),
                check_id=exc.check_id,
                index=exc.index,
                length=exc.length,
                kind=exc.kind,
            )
        return cls(trap=type(exc).__name__, trap_message=str(exc))


def execute_counted(
    program: Program,
    entry: str = "main",
    args: Sequence = (),
    fuel: int = DEFAULT_FUEL,
) -> Tuple[ExecutionOutcome, ExecutionStats]:
    """Run ``program``: its observable outcome, trap included, and the
    run's counters, which survive a trap."""
    interp = Interpreter(program, fuel=fuel)
    try:
        outcome = ExecutionOutcome(value=interp.run(entry, args).value)
    except MiniJRuntimeError as exc:
        outcome = ExecutionOutcome.from_trap(exc)
    return outcome, interp.stats


def execute_outcome(
    program: Program,
    entry: str = "main",
    args: Sequence = (),
    fuel: int = DEFAULT_FUEL,
) -> ExecutionOutcome:
    """Run ``program`` and capture its observable outcome, trap included."""
    return execute_counted(program, entry, args, fuel)[0]


@dataclass
class DifferentialResult:
    """Verdict of one base-vs-optimized comparison."""

    entry: str
    args: tuple
    base: ExecutionOutcome
    optimized: ExecutionOutcome

    @property
    def matched(self) -> bool:
        return self.base == self.optimized

    def explain(self) -> str:
        if self.matched:
            return f"{self.entry}{self.args}: identical ({self.base.describe()})"
        return (
            f"{self.entry}{self.args}: DIVERGED — base {self.base.describe()}, "
            f"optimized {self.optimized.describe()}"
        )


class DifferentialMismatch(AssertionError):
    """Raised by :func:`assert_equivalent` when behavior diverges."""


def compare_programs(
    base: Program,
    optimized: Program,
    entry: str = "main",
    args: Sequence = (),
    fuel: int = DEFAULT_FUEL,
) -> DifferentialResult:
    """Execute both programs on one input and compare outcomes."""
    return DifferentialResult(
        entry=entry,
        args=tuple(args),
        base=execute_outcome(base, entry, args, fuel),
        optimized=execute_outcome(optimized, entry, args, fuel),
    )


def assert_equivalent(
    base: Program,
    optimized: Program,
    entry: str = "main",
    inputs: Sequence[Sequence] = ((),),
    fuel: int = DEFAULT_FUEL,
) -> List[DifferentialResult]:
    """Compare on every input; raise :class:`DifferentialMismatch` on the
    first divergence.  Returns all (matching) results."""
    results = []
    for args in inputs:
        result = compare_programs(base, optimized, entry, args, fuel)
        if not result.matched:
            raise DifferentialMismatch(result.explain())
        results.append(result)
    return results


# ----------------------------------------------------------------------
# The gate: optimize, test, keep-or-revert.
# ----------------------------------------------------------------------


@dataclass
class GatedResult:
    """Outcome of one :func:`gated_optimize` call."""

    program: Program
    report: ABCDReport
    differentials: List[DifferentialResult] = field(default_factory=list)
    #: True when the gate found a divergence and reverted to the
    #: unoptimized program.
    reverted: bool = False

    @property
    def sound(self) -> bool:
        return all(result.matched for result in self.differentials)


def gated_optimize(
    program: Program,
    config: Optional[ABCDConfig] = None,
    profile: Optional[Profile] = None,
    entry: str = "main",
    inputs: Sequence[Sequence] = ((),),
    fuel: int = DEFAULT_FUEL,
    strict: bool = False,
    capture=None,
) -> GatedResult:
    """Optimize ``program`` in place behind the full safety net.

    The optimization runs on a clone under pass guards; the clone is then
    differentially executed against the original on every input.  Only
    when all outcomes match is the optimized code committed back into
    ``program`` — otherwise ``program`` is left untouched (the divergence
    is recorded as a ``PassFailure`` in the report, or raised as
    :class:`~repro.errors.SoundnessGateError` in strict mode).
    """
    from repro.passes.session import CompilationSession
    from repro.pipeline import clone_program
    from repro.robustness.guard import PassGuard, _restore_in_place

    config = config or ABCDConfig()
    if strict:
        # A copy: the caller's config stays as passed.
        config = replace(config, strict=True)

    candidate = clone_program(program)
    guard = PassGuard(strict=strict)
    session = CompilationSession(config=config, guard=guard)
    report = session.optimize(candidate, profile=profile, capture=capture)

    differentials = []
    reverted = False
    for args in inputs:
        result = compare_programs(program, candidate, entry, args, fuel)
        differentials.append(result)
        if not result.matched:
            if strict:
                raise SoundnessGateError(result.explain())
            reverted = True
            break

    if reverted:
        report.pass_failures.append(
            PassFailure(
                pass_name="differential-gate",
                function=entry,
                stage="verify",
                error_type="DifferentialMismatch",
                message=differentials[-1].explain(),
            )
        )
    else:
        # Commit: move the optimized bodies into the caller's program
        # without changing the Program object's identity.
        _restore_in_place(program, candidate)

    return GatedResult(
        program=program,
        report=report,
        differentials=differentials,
        reverted=reverted,
    )
