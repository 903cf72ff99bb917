"""Fail-safe optimization layer: pass sandboxing, fault injection, and
differential soundness gating.

A dynamic compiler must never let an analysis bug or a pathological input
turn into a wrong answer or a hung compile.  This package provides the
safety net a production JIT would have around ABCD:

* :mod:`repro.robustness.guard` — the failure sink of the pass manager's
  sandbox, which runs every transforming pass against a snapshot,
  verifies afterwards, and on any exception or verification failure
  rolls back and continues with the unoptimized-but-correct function;
* :mod:`repro.robustness.differential` — execute optimized vs. unoptimized
  programs on the same input and require identical outputs, traps, and
  bounds-error behavior (the final soundness gate);
* :mod:`repro.robustness.faults` — an adversarial fault-injection harness
  that deliberately corrupts graphs, solver memos, PRE insertion, and opt
  passes to prove the net actually catches failures.
"""

from repro.core.abcd import PassFailure
from repro.robustness.differential import (
    DifferentialMismatch,
    DifferentialResult,
    GatedResult,
    compare_programs,
    execute_outcome,
    gated_optimize,
)
from repro.robustness.guard import PassGuard

__all__ = [
    "PassFailure",
    "PassGuard",
    "DifferentialMismatch",
    "DifferentialResult",
    "GatedResult",
    "compare_programs",
    "execute_outcome",
    "gated_optimize",
]
