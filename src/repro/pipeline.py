"""The public pipeline facade: source → e-SSA IR → ABCD → execution.

Typical use::

    from repro import pipeline

    program = pipeline.compile_source(source)
    profile = pipeline.profile(program, "main")
    report = pipeline.abcd(program, pre=True, profile=profile)
    result = pipeline.run(program, "main")

``compile_source`` produces a :class:`~repro.ir.function.Program` whose
functions are in e-SSA form with the standard pre-pass suite applied —
the state in which a dynamic compiler would hand code to ABCD.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.core.abcd import ABCDConfig, ABCDReport
from repro.ir.function import Program
from repro.ir.verifier import verify_program
from repro.runtime.interpreter import ExecutionResult, run_program
from repro.runtime.profiler import Profile, collect_profile


def compile_source(
    source: str,
    standard_opts: bool = True,
    verify: bool = True,
    inline: bool = False,
    guard: Optional["PassGuard"] = None,
    strict: bool = False,
    session: Optional["CompilationSession"] = None,
) -> Program:
    """Compile MiniJ source to an e-SSA program ready for ABCD.

    ``inline=True`` runs bounded function inlining before e-SSA
    construction — the interprocedural extension the paper lists as
    future infrastructure work (callee array parameters then resolve to
    caller allocations, exposing their length facts to ABCD).

    Compilation runs through a :class:`~repro.passes.session.
    CompilationSession`: every transforming pass is registered in
    :mod:`repro.passes.registry` and driven by the pass manager under the
    uniform guard protocol — a pass that raises or emits malformed IR is
    rolled back and compilation continues with the unoptimized-but-correct
    function.  Pass a :class:`PassGuard` to collect the failure telemetry,
    ``strict=True`` to turn rollbacks into hard errors, or an explicit
    ``session`` to share its analysis cache and stats with a later
    ``session.optimize`` call.
    """
    from repro.passes.session import CompilationSession

    if session is None:
        session = CompilationSession(guard=guard, strict=strict)
    return session.compile(
        source, standard_opts=standard_opts, verify=verify, inline=inline
    )


def clone_program(program: Program) -> Program:
    """A structural copy, for unoptimized/optimized differential
    comparisons and guard snapshots (see :meth:`Program.clone`)."""
    return program.clone()


def profile(
    program: Program,
    function_name: str = "main",
    args: Sequence = (),
    fuel: int = 50_000_000,
) -> Profile:
    """Collect a training-run profile (block/edge/check frequencies)."""
    return collect_profile(program, function_name, args, fuel)


def abcd(
    program: Program,
    config: Optional[ABCDConfig] = None,
    profile: Optional[Profile] = None,
    pre: bool = False,
    verify: bool = True,
    strict: bool = False,
) -> ABCDReport:
    """Run the ABCD optimizer over every function of ``program``.

    ``pre=True`` is a convenience that turns the config flag on, in a
    copy of ``config`` (a profile must then be supplied).

    The ABCD passes run through a :class:`~repro.passes.session.
    CompilationSession`, so each function is optimized inside the pass
    manager's sandbox: if ABCD raises or produces IR that fails
    verification, that function rolls back to its unoptimized (checked,
    correct) form and the failure is recorded in ``report.pass_failures``
    — the pipeline itself never crashes.  With ``strict=True`` (or
    ``config.strict``) such rollbacks raise
    :class:`~repro.errors.PassGuardError` instead.
    """
    from repro.passes.session import CompilationSession

    config = config or ABCDConfig()
    config = dataclasses.replace(
        config, pre=config.pre or pre, strict=config.strict or strict
    )
    if config.pre and profile is None:
        raise ValueError("PRE requires a profile (pass profile=...)")
    report = CompilationSession(config).optimize(program, profile=profile)
    if verify:
        verify_program(program)
    return report


def run(
    program: Program,
    function_name: str = "main",
    args: Sequence = (),
    fuel: int = 50_000_000,
) -> ExecutionResult:
    """Execute a compiled (possibly optimized) program."""
    return run_program(program, function_name, args, fuel=fuel)
