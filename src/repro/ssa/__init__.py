"""e-SSA construction: π placement and SSA renaming in one CFG walk."""

from repro.ssa.essa import base_name, construct_essa, pi_assignments

__all__ = [
    "base_name",
    "construct_essa",
    "pi_assignments",
]
