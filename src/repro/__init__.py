"""repro — a full reproduction of *ABCD: Eliminating Array Bounds Checks
on Demand* (Bodík, Gupta, Sarkar; PLDI 2000).

The package contains everything the paper's system needs, built from
scratch:

* ``repro.frontend`` — MiniJ, a small Java-like source language;
* ``repro.ir`` — a three-address CFG IR with explicit bounds checks;
* ``repro.analysis`` / ``repro.ssa`` — dominance and loops, and the
  paper's extended SSA (π-nodes) built in one walk over the CFG;
* ``repro.opt`` — the standard pre-pass suite (copy propagation, constant
  folding, DCE, GVN);
* ``repro.core`` — the ABCD algorithm itself: inequality graph, the
  demand-driven Figure-5 solver, PRE of partially redundant checks, and
  the exhaustive baseline;
* ``repro.runtime`` — a profiling VM that measures dynamic check counts
  and models check cost;
* ``repro.baselines`` — value-range analysis, the classic full-redundancy
  competitor;
* ``repro.passes`` — the pass-manager layer: compilation sessions, the
  cached analysis manager, and the unified pass registry every driver
  shares;
* ``repro.bench`` — the benchmark corpus and the harness regenerating the
  paper's evaluation.

Quick start::

    from repro import CompilationSession, run

    session = CompilationSession()
    program = session.compile(open("prog.mj").read())
    report = session.optimize(program)
    print(report.eliminated_count("upper"), "upper checks removed")
    print(session.stats.format_table())   # per-pass timing + cache stats
    print(run(program, "main").value)

The one-shot helpers remain::

    from repro import compile_source, abcd, run

    program = compile_source(open("prog.mj").read())
    report = abcd(program)
"""

from repro.core.abcd import ABCDConfig, ABCDReport
from repro.passes.session import CompilationSession
from repro.pipeline import abcd, clone_program, compile_source, profile, run

__version__ = "1.0.0"

__all__ = [
    "CompilationSession",
    "compile_source",
    "clone_program",
    "profile",
    "abcd",
    "run",
    "ABCDConfig",
    "ABCDReport",
    "__version__",
]
