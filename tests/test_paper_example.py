"""The paper's running example, end to end (Figures 1, 3, 4 and Section 6).

The headline claim: "ABCD can eliminate all four bound checks in this
example" — the four checks of the bidirectional bubble sort's scan loops
(the paper presents one loop; both directions are covered by the corpus
program).  These tests pin the claim, the e-SSA shape of Figure 3, the
inequality-graph shape of Figure 4, and the Section-6 partially redundant
variant obtained by deleting ``limit := A.length``.
"""

import pytest

from repro.core.abcd import ABCDConfig
from repro.core.constraints import build_graphs
from repro.core.graph import len_node
from repro.core.solver import demand_prove
from repro.ir.instructions import CheckLower, CheckUpper, Phi, Pi
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.runtime.profiler import collect_profile
from repro.ssa.construct import base_name

#: Figure 1's fragment (first inner loop), verbatim modulo syntax.
FIGURE1_SRC = """
fn sort(a: int[]): void {
  let limit: int = len(a);
  let st: int = 0 - 1;
  while (st < limit) {
    st = st + 1;
    limit = limit - 1;
    for (let j: int = st; j < limit; j = j + 1) {
      if (a[j] > a[j + 1]) {
        let t: int = a[j];
        a[j] = a[j + 1];
        a[j + 1] = t;
      }
    }
  }
}
fn main(): int {
  let a: int[] = new int[24];
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = (i * 37 + 11) % 50;
  }
  sort(a);
  let bad: int = 0;
  for (let i: int = 0; i < len(a) - 1; i = i + 1) {
    if (a[i] > a[i + 1]) {
      bad = bad + 1;
    }
  }
  return bad;
}
"""


def compiled():
    return compile_source(FIGURE1_SRC)


class TestESSAShape:
    """Figure 3: φs at the two loop headers, πs at the branch exits and
    after every check."""

    def test_phis_for_loop_variables(self):
        fn = compiled().function("sort")
        merged = {
            base_name(i.dest)
            for i in fn.all_instructions()
            if isinstance(i, Phi)
        }
        assert {"st", "limit", "j"} <= merged

    def test_pis_after_every_check(self):
        fn = compiled().function("sort")
        for label in fn.reachable_blocks():
            body = fn.blocks[label].body
            for position, instr in enumerate(body):
                if isinstance(instr, (CheckLower, CheckUpper)):
                    follower = body[position + 1]
                    assert isinstance(follower, Pi), (
                        f"check at {label}:{position} not followed by π"
                    )

    def test_branch_pis_on_loop_conditions(self):
        fn = compiled().function("sort")
        branch_pis = [
            i
            for i in fn.all_instructions()
            if isinstance(i, Pi) and i.predicate.arraylen_of is None
            and i.predicate.other is not None
        ]
        # st<limit and j<limit each produce πs for both operands on both
        # edges, plus the a[j] > a[j+1] comparison πs.
        assert len(branch_pis) >= 8


class TestFigure4Graph:
    def test_j_check_distance_is_minus_two(self):
        """Paper: "The distance between A.length and j2 is -2"."""
        fn = compiled().function("sort")
        bundle = build_graphs(fn)
        check = next(
            i
            for label in fn.reachable_blocks()
            for i in fn.blocks[label].body
            if isinstance(i, CheckUpper) and base_name(i.index.name) == "j"
        )
        source = len_node(check.array)
        from repro.core.graph import var_node

        target = var_node(check.index.name)
        assert demand_prove(bundle.upper, source, target, -2).proven
        assert not demand_prove(bundle.upper, source, target, -3).proven

    def test_graph_has_max_vertices_for_phis(self):
        fn = compiled().function("sort")
        bundle = build_graphs(fn)
        phi_bases = {base_name(n.name) for n in bundle.upper.phi_nodes}
        assert {"st", "limit", "j"} <= phi_bases


class TestHeadlineClaim:
    def test_all_sort_checks_eliminated(self):
        program = compiled()
        base = clone_program(program)
        report = abcd(program, ABCDConfig())
        sort_checks = [a for a in report.analyses if a.function == "sort"]
        assert sort_checks, "no checks analyzed in sort"
        assert all(a.eliminated for a in sort_checks)
        # Not a single dynamic check left in sort's loops.
        fn = program.function("sort")
        assert not any(
            isinstance(i, (CheckLower, CheckUpper)) for i in fn.all_instructions()
        )
        # (The Figure-1 fragment keeps only the forward scan, so the array
        # is not fully sorted — behaviour equality is the invariant.)
        assert run(program, "main").value == run(base, "main").value

    def test_first_access_checks_need_global_reasoning(self):
        """The a[j] checks of the first access in the loop body can only be
        proven through the loop φ/π chains — global scope.  (Later
        accesses to the same index in the same block are *locally*
        subsumed by the first one's C5 π, which Figure 6 counts as local.)
        """
        program = compiled()
        report = abcd(program, ABCDConfig())
        sort_uppers = [
            a
            for a in report.analyses
            if a.function == "sort" and a.kind == "upper" and a.eliminated
        ]
        assert sort_uppers
        first_per_block = {}
        for analysis in sort_uppers:
            first_per_block.setdefault(analysis.block, analysis)
        assert all(a.scope == "global" for a in first_per_block.values())
        # And local subsumption does occur for the repeated accesses.
        assert any(a.scope == "local" for a in sort_uppers)

    def test_steps_are_modest(self):
        program = compiled()
        report = abcd(program, ABCDConfig())
        assert report.mean_steps < 60  # sparse representation, no blowup


class TestSection6PartialRedundancy:
    """Removing ``limit := len(a)`` (the paper's device) disconnects
    ``limit0`` from ``A.length``: the j-loop checks become loop-invariant
    partially redundant, and PRE makes them fully redundant by inserting a
    compensating check."""

    SRC = """
fn scan(a: int[], limit: int): int {
  let s: int = 0;
  for (let j: int = 0; j < limit; j = j + 1) {
    s = s + a[j];
  }
  return s;
}
fn main(): int {
  let a: int[] = new int[24];
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i;
  }
  return scan(a, len(a));
}
"""

    def test_full_redundancy_fails_without_the_length_link(self):
        program = compile_source(self.SRC)
        report = abcd(program, ABCDConfig())
        failing = [
            a
            for a in report.analyses
            if a.function == "scan" and a.kind == "upper" and not a.eliminated
        ]
        assert failing

    def test_pre_recovers_the_check(self):
        program = compile_source(self.SRC)
        base = clone_program(program)
        profile = collect_profile(program, "main")
        report = abcd(program, ABCDConfig(pre=True), profile)
        pre_applied = [a for a in report.analyses if a.pre_applied]
        assert pre_applied
        base_run = run(base, "main")
        opt_run = run(program, "main")
        assert base_run.value == opt_run.value
        survived = opt_run.stats.total_checks + opt_run.stats.speculative_checks
        assert survived < base_run.stats.total_checks / 4
