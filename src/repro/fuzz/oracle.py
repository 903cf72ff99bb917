"""The divergence oracle: one program in, one classified verdict out.

For each candidate source the oracle builds two worlds and compares their
observable behavior through :mod:`repro.robustness.differential`:

* **base** — plain lowering + e-SSA, no optimization at all;
* **optimized** — the full compile pipeline (``standard-pipeline``
  worklist suite, optional inlining) followed by guarded ABCD, and
  optionally the certificate checker (``certify=True``) and the Python
  code generator (``codegen=True``) as a third execution backend.

Outcomes are classified into:

``match``                identical value/trap on both sides (the normal case —
                         including programs that *trap identically*);
``value-divergence``     both returned, different values;
``trap-divergence``      a trap fired on one side only, or a different
                         trap/check on each side — the CHOP failure class;
``codegen-divergence``   interpreter and generated code disagree on the
                         outcome or on a counter of the run;
``crash``                an internal (non-:class:`ReproError`) exception
                         escaped compile or execution;
``rejected``             the frontend refused the generated program with a
                         :class:`ReproError` — a generator bug, triaged
                         separately from compiler crashes;
``timeout``              the per-program SIGALRM deadline fired;
``fuel-limit``           either side ran out of interpreter fuel (check
                         elimination legitimately changes instruction
                         counts, so fuel races are expected, not findings);
``rollback``/``budget``  annotations on a ``match`` (pass guard rolled
                         back, or a solver budget was exhausted).

The oracle never uses the differential *gate* (`gated_optimize`): the gate
exists to hide divergence from production users, while the oracle's whole
job is to surface it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.passes.manager import SessionStats

from repro.core.abcd import ABCDConfig
from repro.errors import CallDepthExceeded, ReproError, TrapLimitExceeded
from repro.limits import hard_deadline

#: Trap classes that are resource limits, not program semantics: the two
#: sides legitimately burn different amounts of fuel/stack, so a limit
#: trap on either side is classified ``fuel-limit`` rather than compared.
_RESOURCE_TRAPS = (TrapLimitExceeded.__name__, CallDepthExceeded.__name__)
from repro.fuzz.triage import Signature, innermost_repro_frame
from repro.passes.session import CompilationSession
from repro.robustness.differential import (
    ExecutionOutcome,
    execute_counted,
    execute_outcome,
)

#: Counters the generated code must leave exactly as the interpreter does,
#: on a completed run and at a trap.
CODEGEN_COUNTERS = (
    "instructions",
    "cycles",
    "lower_checks",
    "upper_checks",
    "unsigned_checks",
    "speculative_checks",
    "speculation_failures",
    "check_counts",
)

#: Default interpreter fuel per side.  Generated loops are counted and
#: shallow, so honest programs finish far below this; a fuel race between
#: the two sides is classified ``fuel-limit``, not a divergence.
DEFAULT_FUEL = 400_000

#: Default wall-clock deadline per program (compile + both executions).
DEFAULT_DEADLINE = 10.0


class OracleTimeout(BaseException):
    """The per-program SIGALRM deadline fired.

    A ``BaseException`` so that containment layers under the deadline —
    the pass guard's ``except Exception`` rollback in particular — cannot
    swallow it: a rollback would otherwise disarm the wall clock and let
    a stuck program run to completion as a spurious "match"."""


@contextlib.contextmanager
def program_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Bound one oracle check with :func:`repro.limits.hard_deadline` so a
    pathological program can never hang the campaign.  No-op off the main
    thread or on platforms without ``SIGALRM`` (the fuel bound still
    applies)."""
    with hard_deadline(
        seconds,
        lambda: OracleTimeout(f"program exceeded {seconds:.1f}s deadline"),
    ):
        yield


@dataclass(frozen=True)
class OracleConfig:
    """How the optimized side is built and how runs are bounded."""

    inline: bool = True
    certify: bool = False
    codegen: bool = False
    fuel: int = DEFAULT_FUEL
    deadline: Optional[float] = DEFAULT_DEADLINE


@dataclass
class OracleVerdict:
    """Everything observed about one program."""

    classification: str
    signature: Optional[Signature] = None
    detail: str = ""
    base: Optional[ExecutionOutcome] = None
    optimized: Optional[ExecutionOutcome] = None
    #: Pass-guard rollbacks and budget exhaustions on the optimized side
    #: (benign annotations, surfaced as campaign counters).
    rollbacks: int = 0
    budget_exhausted: int = 0
    certificates_rejected: int = 0
    eliminated_checks: int = 0
    #: The optimized-side session's per-pass stats, for campaign folding.
    stats: Optional["SessionStats"] = None


def outcomes_equivalent(base: ExecutionOutcome, optimized: ExecutionOutcome) -> bool:
    """Check-id-insensitive behavioral equality.

    The two worlds are compiled independently and the optimized side may
    inline, which assigns *fresh* check ids to cloned checks — so a trap
    is "the same" when its class and observed values agree, not when its
    id does.  Values, trap class, and (for bounds traps) the failing
    ``kind``/``index``/``length`` triple must all match; messages embed
    check ids and are ignored.
    """
    if (base.trap is None) != (optimized.trap is None):
        return False
    if base.trap is None:
        return base.value == optimized.value
    if base.trap != optimized.trap:
        return False
    return (base.kind, base.index, base.length) == (
        optimized.kind,
        optimized.index,
        optimized.length,
    )


def _outcome_tag(outcome: ExecutionOutcome) -> str:
    if outcome.trap is None:
        return "return"
    if outcome.check_id is not None:
        return f"{outcome.trap}[{outcome.kind}]"
    return outcome.trap


def _crash_verdict(exc: BaseException, stage: str) -> OracleVerdict:
    signature = Signature(
        kind="crash",
        error=type(exc).__name__,
        frame=innermost_repro_frame(exc),
    )
    return OracleVerdict(
        classification="crash",
        signature=signature,
        detail=f"{stage}: {type(exc).__name__}: {exc}",
    )


def check_source(source: str, config: Optional[OracleConfig] = None) -> OracleVerdict:
    """Run one program through the full differential pipeline."""
    if config is None:
        config = OracleConfig()
    try:
        with program_deadline(config.deadline):
            return _check_source(source, config)
    except OracleTimeout as exc:
        return OracleVerdict(
            classification="timeout",
            signature=Signature(kind="timeout", error="OracleTimeout"),
            detail=str(exc),
        )


def _check_source(source: str, config: OracleConfig) -> OracleVerdict:
    # --- Base world: unoptimized e-SSA IR. -----------------------------
    try:
        base_session = CompilationSession()
        base_program = base_session.compile(source, standard_opts=False)
    except ReproError as exc:
        return OracleVerdict(
            classification="rejected",
            signature=Signature(
                kind="rejected",
                error=type(exc).__name__,
                frame=innermost_repro_frame(exc),
            ),
            detail=f"frontend rejected generated program: {exc}",
        )
    except Exception as exc:
        return _crash_verdict(exc, "compile-base")

    # --- Optimized world: standard pipeline + guarded ABCD. ------------
    try:
        abcd_config = ABCDConfig(certify=config.certify)
        session = CompilationSession(config=abcd_config)
        optimized_program = session.compile(
            source, standard_opts=True, inline=config.inline
        )
        report = session.optimize(optimized_program)
    except ReproError as exc:
        # The base world accepted this program, so a ReproError here is an
        # optimizer failure escaping its sandbox, not an input rejection.
        return _crash_verdict(exc, "compile-optimized")
    except Exception as exc:
        return _crash_verdict(exc, "compile-optimized")

    verdict = OracleVerdict(classification="match")
    verdict.stats = session.stats
    verdict.rollbacks = len(session.guard.failures) + report.rollback_count
    verdict.budget_exhausted = report.budget_exhausted_count
    verdict.certificates_rejected = report.certificates_rejected
    verdict.eliminated_checks = report.eliminated_count()

    # --- Execute both worlds. ------------------------------------------
    try:
        base_outcome = execute_outcome(base_program, "main", (), config.fuel)
    except Exception as exc:
        return _crash_verdict(exc, "run-base")
    try:
        opt_outcome, opt_stats = execute_counted(
            optimized_program, "main", (), config.fuel
        )
    except Exception as exc:
        return _crash_verdict(exc, "run-optimized")
    verdict.base = base_outcome
    verdict.optimized = opt_outcome

    if base_outcome.trap in _RESOURCE_TRAPS or opt_outcome.trap in _RESOURCE_TRAPS:
        verdict.classification = "fuel-limit"
        return verdict

    if not outcomes_equivalent(base_outcome, opt_outcome):
        tags = f"{_outcome_tag(base_outcome)}->{_outcome_tag(opt_outcome)}"
        if base_outcome.trap is None and opt_outcome.trap is None:
            kind = "value-divergence"
        else:
            kind = "trap-divergence"
        verdict.classification = kind
        verdict.signature = Signature(kind=kind, error=tags)
        verdict.detail = (
            f"base {base_outcome.describe()}; optimized {opt_outcome.describe()}"
        )
        return verdict

    # --- Optional third backend: generated Python code. ----------------
    if config.codegen:
        codegen_verdict = _check_codegen(optimized_program, opt_outcome, opt_stats)
        if codegen_verdict is not None:
            return codegen_verdict

    return verdict


def _check_codegen(
    optimized_program, opt_outcome: ExecutionOutcome, opt_stats
) -> Optional[OracleVerdict]:
    """Compare the interpreter's outcome and counters against
    compiled-to-Python execution of the same optimized program."""
    from repro.errors import MiniJRuntimeError
    from repro.runtime.codegen import compile_to_python

    try:
        compiled = compile_to_python(optimized_program)
        try:
            result = compiled.run("main", ())
            gen_outcome = ExecutionOutcome(value=result.value)
        except MiniJRuntimeError as exc:
            gen_outcome = ExecutionOutcome.from_trap(exc)
    except Exception as exc:
        return _crash_verdict(exc, "codegen")

    if not outcomes_equivalent(opt_outcome, gen_outcome):
        tags = f"{_outcome_tag(opt_outcome)}->{_outcome_tag(gen_outcome)}"
        detail = (
            f"interpreter {opt_outcome.describe()}; "
            f"generated code {gen_outcome.describe()}"
        )
    else:
        moved = [
            name
            for name in CODEGEN_COUNTERS
            if getattr(opt_stats, name) != getattr(compiled.stats, name)
        ]
        if not moved:
            return None
        tags = "counters:" + ",".join(moved)
        detail = f"{opt_outcome.describe()} on both; " + "; ".join(
            f"{name}: interpreter {getattr(opt_stats, name)}, "
            f"generated code {getattr(compiled.stats, name)}"
            for name in moved
        )
    return OracleVerdict(
        classification="codegen-divergence",
        signature=Signature(kind="codegen-divergence", error=tags),
        detail=detail,
        base=opt_outcome,
        optimized=gen_outcome,
    )
