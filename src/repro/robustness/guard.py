"""Pass sandboxing: the failure sink of snapshot → transform → verify →
keep or roll back.

Every transforming pass (the standard opt worklist, ABCD itself,
inlining) runs inside the :class:`~repro.passes.manager.PassManager`'s
sandbox: the manager snapshots the function (or whole program) with a
structural clone first, runs the pass, then re-runs the IR verifier.  If
the pass raises *or* leaves malformed IR behind, the manager restores the
snapshot in place (:func:`_restore_in_place`) and hands the exception to
the session's :class:`PassGuard`, which records a structured
:class:`~repro.core.abcd.PassFailure` and lets compilation continue with
the unoptimized-but-correct code — graceful degradation, never a crash.

In ``strict`` mode the guard re-raises as
:class:`~repro.errors.PassGuardError` instead, turning every contained
rollback into a hard error (useful in CI and while debugging a pass).
"""

from __future__ import annotations

from typing import List

from repro.core.abcd import PassFailure
from repro.errors import IRVerificationError, PassGuardError


def _restore_in_place(target, snapshot) -> None:
    """Restore ``target`` to ``snapshot`` without changing its identity,
    so every outstanding reference (pipeline loops, program tables) keeps
    seeing the rolled-back object."""
    target.__dict__.clear()
    target.__dict__.update(snapshot.__dict__)


class PassGuard:
    """Failure accounting for the pass manager's rollback-on-failure
    sandbox.

    One guard instance accumulates the failures of a whole compilation, so
    callers get a single telemetry stream (``guard.failures``) across all
    passes and functions.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.failures: List[PassFailure] = []

    def contain(self, pass_name: str, function: str, exc: Exception) -> None:
        """Record one contained failure (or escalate in strict mode).

        The caller (the pass manager) is responsible for having rolled
        back already — this only does the bookkeeping.
        """
        failure = PassFailure(
            pass_name=pass_name,
            function=function,
            stage="verify" if isinstance(exc, IRVerificationError) else "exception",
            error_type=type(exc).__name__,
            message=str(exc),
        )
        if self.strict:
            raise PassGuardError(str(failure)) from exc
        self.failures.append(failure)

    @property
    def rollback_count(self) -> int:
        return len(self.failures)
