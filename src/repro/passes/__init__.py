"""The pass-manager layer: sessions, the analysis cache, and the registry.

See ``DESIGN.md`` §8 for the architecture.  Entry points:

* :class:`CompilationSession` — one compilation's cache + guard + stats;
* :class:`PassManager` / :class:`PassContext` — the uniform driver;
* :class:`AnalysisManager` — the dominator-tree and GVN cache, dropped
  per function after a mutating pass;
* :data:`PASS_REGISTRY` and the ``default_*_passes`` builders.
"""

from repro.passes.analysis import ANALYSES, AnalysisManager, AnalysisSpec
from repro.passes.manager import (
    FixpointGroup,
    Pass,
    PassContext,
    PassManager,
    PassStats,
    SessionStats,
)
from repro.passes.registry import (
    PASS_REGISTRY,
    default_compile_passes,
    default_optimize_passes,
)
from repro.passes.session import CompilationSession

__all__ = [
    "ANALYSES",
    "AnalysisManager",
    "AnalysisSpec",
    "CompilationSession",
    "FixpointGroup",
    "Pass",
    "PassContext",
    "PassManager",
    "PassStats",
    "SessionStats",
    "PASS_REGISTRY",
    "default_compile_passes",
    "default_optimize_passes",
]
