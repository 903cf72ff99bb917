#!/usr/bin/env python3
"""The paper's running example, step by step (Figures 1, 3, 4, 5).

Shows, for the bidirectional bubble sort fragment:

1. the e-SSA form (compare with the paper's Figure 3);
2. the inequality graph (Figure 4), optionally exported to Graphviz;
3. each bounds check's demandProve query, its verdict, and step count;
4. the headline result: all checks of the sort are eliminated.

Run:  python examples/bubblesort_walkthrough.py [--dot out_dir]
"""

import argparse
import pathlib

from repro.bench.corpus import get
from repro.core.abcd import ABCDConfig
from repro.core.constraints import build_graphs
from repro.core.graph import const_node, len_node, var_node
from repro.core.solver import DemandProver
from repro.ir.instructions import CheckLower, CheckUpper, Var
from repro.ir.printer import format_function
from repro.pipeline import abcd, clone_program, compile_source, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dot", metavar="DIR", help="write Graphviz files here")
    args = parser.parse_args()

    program = compile_source(get("biDirBubbleSort").source())
    baseline = clone_program(program)
    sort_fn = program.function("sort")

    print("=" * 72)
    print("1. e-SSA form of sort() — compare with the paper's Figure 3")
    print("=" * 72)
    print(format_function(sort_fn))

    print()
    print("=" * 72)
    print("2. The inequality graph (Figure 4)")
    print("=" * 72)
    bundle = build_graphs(sort_fn)
    print(f"upper graph: {bundle.upper!r}")
    print(f"lower graph: {bundle.lower!r}")
    print("sample upper-bound constraints (edge u -> v / w means v <= u + w):")
    for edge in list(bundle.upper.edges())[:12]:
        print(f"  {edge}")
    if args.dot:
        out = pathlib.Path(args.dot)
        out.mkdir(parents=True, exist_ok=True)
        (out / "inequality_upper.dot").write_text(bundle.upper.to_dot())
        (out / "inequality_lower.dot").write_text(bundle.lower.to_dot())
        from repro.ir.dot import cfg_to_dot

        (out / "sort_cfg.dot").write_text(cfg_to_dot(sort_fn))
        print(f"(wrote Graphviz files to {out}/)")

    print()
    print("=" * 72)
    print("3. demandProve per check (Figure 5)")
    print("=" * 72)
    for label in sort_fn.reachable_blocks():
        for instr in sort_fn.blocks[label].body:
            if isinstance(instr, CheckUpper) and isinstance(instr.index, Var):
                graph = bundle.upper
                source = len_node(instr.array)
                target = var_node(instr.index.name)
                budget = -1
                query = f"{target} - len <= -1"
            elif isinstance(instr, CheckLower) and isinstance(instr.index, Var):
                graph = bundle.lower
                source = const_node(0)
                target = var_node(instr.index.name)
                budget = 0
                query = f"{target} >= 0"
            else:
                continue
            prover = DemandProver(graph)
            outcome = prover.demand_prove(source, target, budget)
            print(
                f"  check #{instr.check_id:<3} {query:<22} -> "
                f"{outcome.result.name:<8} in {outcome.steps} steps"
            )

    print()
    print("=" * 72)
    print("4. Elimination and execution")
    print("=" * 72)
    report = abcd(program, ABCDConfig())
    sort_checks = [a for a in report.analyses if a.function == "sort"]
    print(
        f"sort(): {sum(a.eliminated for a in sort_checks)}"
        f"/{len(sort_checks)} checks eliminated"
    )
    base = run(baseline, "main")
    opt = run(program, "main")
    assert base.value == opt.value
    print(f"dynamic checks: {base.stats.total_checks} -> {opt.stats.total_checks}")
    print(f"result unchanged: {opt.value}")


if __name__ == "__main__":
    main()
