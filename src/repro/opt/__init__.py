"""Standard optimizations run before ABCD (the Jalapeño pre-pass suite)."""

from repro.opt.constant_folding import fold_constants
from repro.opt.copy_propagation import propagate_copies
from repro.opt.dce import eliminate_dead_code
from repro.opt.gvn import ValueNumbering, value_number
from repro.opt.worklist import WorklistResult, optimize_worklist
from repro.ir.function import Function


def run_standard_pipeline(fn: Function, max_rounds: int = 4) -> int:
    """Iterate copy propagation, constant folding, and DCE to a fixpoint
    (bounded) — the legacy dense driver, kept as the baseline the sparse
    :func:`optimize_worklist` is measured against.  Returns total change
    count."""
    total = 0
    for _ in range(max_rounds):
        changes = propagate_copies(fn)
        changes += fold_constants(fn)
        changes += eliminate_dead_code(fn)
        total += changes
        if changes == 0:
            break
    return total


__all__ = [
    "propagate_copies",
    "fold_constants",
    "eliminate_dead_code",
    "optimize_worklist",
    "WorklistResult",
    "value_number",
    "ValueNumbering",
    "run_standard_pipeline",
]
