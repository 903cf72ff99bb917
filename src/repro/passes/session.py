"""One compilation, one session: the object that owns the pass pipeline.

A :class:`CompilationSession` bundles the pieces every driver used to wire
up by hand — an :class:`~repro.passes.analysis.AnalysisManager` (shared
analysis cache), a :class:`~repro.robustness.guard.PassGuard` (failure
containment), and a :class:`~repro.passes.manager.SessionStats` (per-pass
telemetry) — and runs the registered default pipelines through one
:class:`~repro.passes.manager.PassManager`.

Typical use::

    session = CompilationSession()
    program = session.compile(source)
    profile = pipeline.profile(program, "main")
    report = session.optimize(program, profile=profile)
    print(session.stats.format_table())

``pipeline.compile_source``/``abcd``, the CLI, the differential gate,
and the bench harness are all thin wrappers over this class; nothing
else sequences the ABCD passes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.abcd import ABCDConfig, ABCDReport
from repro.frontend.parser import parse_source
from repro.frontend.semantic import check_program
from repro.ir.function import Program
from repro.ir.lowering import lower_program
from repro.ir.verifier import verify_program
from repro.passes.analysis import AnalysisManager
from repro.passes.manager import PassContext, PassManager, SessionStats
from repro.passes.registry import default_compile_passes, default_optimize_passes
from repro.robustness.guard import PassGuard
from repro.runtime.profiler import Profile


class CompilationSession:
    """Owns the analysis cache, guard, and stats of one compilation.

    ``strict=True`` escalates contained pass failures into
    :class:`~repro.errors.PassGuardError`; ``debug=True`` checks the
    def-use index against a rebuild after every pass
    (:func:`~repro.ir.verifier.verify_def_use`).
    """

    def __init__(
        self,
        config: Optional[ABCDConfig] = None,
        guard: Optional[PassGuard] = None,
        strict: bool = False,
        debug: bool = False,
    ) -> None:
        self.config = config if config is not None else ABCDConfig()
        if strict:
            self.config.strict = True
        self.guard = (
            guard if guard is not None else PassGuard(strict=self.config.strict)
        )
        self.analysis = AnalysisManager(debug=debug)
        self.stats = SessionStats(self.analysis)

    # ------------------------------------------------------------------
    # Pipeline stages.
    # ------------------------------------------------------------------

    def compile(
        self,
        source: str,
        standard_opts: bool = True,
        verify: bool = True,
        inline: bool = False,
    ) -> Program:
        """MiniJ source → e-SSA program, via the registered compile passes
        (optional inlining, e-SSA construction, the standard opt suite)."""
        ast = parse_source(source)
        info = check_program(ast)
        program = lower_program(ast, info)
        manager = PassManager(self._context(program))
        manager.run(default_compile_passes(standard_opts=standard_opts, inline=inline))
        if verify:
            verify_program(program)
        return program

    def optimize(
        self,
        program: Program,
        profile: Optional[Profile] = None,
        functions: Optional[Sequence[str]] = None,
        capture=None,
    ) -> ABCDReport:
        """Run the ABCD passes (analyze → PRE → check removal) over every
        (or the named) functions and return the per-check report.

        The report carries the failures contained during *this* run plus
        the session's accumulated :class:`SessionStats`.

        ``capture`` (a :class:`repro.store.capture.StoreCapture`) hooks
        the persistent store in: the ``store-capture`` pass is scheduled
        between ``certify`` and ``check-removal`` so each function's
        pre-removal IR and certified eliminations are recorded.  The
        scheduled pipeline id (and so the store fingerprint) is
        unaffected — capture observes, it does not transform.
        """
        report = ABCDReport()
        already_recorded = len(self.guard.failures)
        ctx = self._context(program, profile=profile, report=report)
        passes = default_optimize_passes()
        if capture is not None:
            from repro.passes.registry import PASS_REGISTRY

            ctx.store_capture = capture
            index = next(
                i for i, p in enumerate(passes) if p.name == "check-removal"
            )
            passes.insert(index, PASS_REGISTRY["store-capture"])
        manager = PassManager(ctx)
        manager.run(passes, functions=functions)
        report.pass_failures.extend(self.guard.failures[already_recorded:])
        report.session_stats = self.stats
        return report

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------

    def _context(
        self,
        program: Program,
        profile: Optional[Profile] = None,
        report: Optional[ABCDReport] = None,
    ) -> PassContext:
        ctx = PassContext(
            program=program,
            analysis=self.analysis,
            guard=self.guard,
            stats=self.stats,
            config=self.config,
            profile=profile,
        )
        if report is not None:
            ctx.report = report
        return ctx
