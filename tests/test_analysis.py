"""Dominance, loop, and CFG-utility tests."""

import pytest

from repro.analysis.cfg_utils import critical_edges, split_critical_edges, split_edge
from repro.analysis.dominance import DominatorTree
from repro.analysis.loops import find_natural_loops, loop_depths
from repro.frontend.types import VOID
from repro.ir.function import Function
from repro.ir.instructions import Branch, Const, Jump, Phi, Return, Var


def diamond() -> Function:
    """entry -> (left|right) -> join."""
    fn = Function("d", ["c"], [], VOID)
    entry = fn.new_block("entry")
    left = fn.new_block("left")
    right = fn.new_block("right")
    join = fn.new_block("join")
    fn.entry = entry.label
    entry.terminator = Branch(Var("c"), left.label, right.label)
    left.terminator = Jump(join.label)
    right.terminator = Jump(join.label)
    join.terminator = Return(None)
    return fn


def loop_cfg() -> Function:
    """entry -> header <-> body; header -> exit."""
    fn = Function("l", ["c"], [], VOID)
    entry = fn.new_block("entry")
    header = fn.new_block("header")
    body = fn.new_block("body")
    exit_ = fn.new_block("exit")
    fn.entry = entry.label
    entry.terminator = Jump(header.label)
    header.terminator = Branch(Var("c"), body.label, exit_.label)
    body.terminator = Jump(header.label)
    exit_.terminator = Return(None)
    return fn


class TestDominators:
    def test_entry_dominates_everything(self):
        fn = diamond()
        domtree = DominatorTree.compute(fn)
        for label in fn.blocks:
            assert domtree.dominates(fn.entry, label)

    def test_dominance_is_reflexive(self):
        fn = diamond()
        domtree = DominatorTree.compute(fn)
        for label in fn.blocks:
            assert domtree.dominates(label, label)

    def test_branch_arms_do_not_dominate_join(self):
        fn = diamond()
        domtree = DominatorTree.compute(fn)
        assert not domtree.dominates("left1", "join3")
        assert not domtree.dominates("right2", "join3")

    def test_idom_of_join_is_entry(self):
        fn = diamond()
        domtree = DominatorTree.compute(fn)
        assert domtree.immediate_dominator("join3") == fn.entry

    def test_idom_of_entry_is_none(self):
        domtree = DominatorTree.compute(diamond())
        assert domtree.immediate_dominator("entry0") is None

    def test_loop_header_dominates_body(self):
        fn = loop_cfg()
        domtree = DominatorTree.compute(fn)
        assert domtree.dominates("header1", "body2")
        assert not domtree.dominates("body2", "header1")

    def test_strict_dominance(self):
        domtree = DominatorTree.compute(diamond())
        assert domtree.strictly_dominates("entry0", "join3")
        assert not domtree.strictly_dominates("join3", "join3")

    def test_preorder_parents_first(self):
        domtree = DominatorTree.compute(loop_cfg())
        order = domtree.preorder()
        assert order.index("entry0") < order.index("header1")
        assert order.index("header1") < order.index("body2")

    def test_depths(self):
        domtree = DominatorTree.compute(loop_cfg())
        assert domtree.depth("entry0") == 0
        assert domtree.depth("header1") == 1


class TestLoops:
    def test_natural_loop_found(self):
        loops = find_natural_loops(loop_cfg())
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header == "header1"
        assert loop.body == {"header1", "body2"}

    def test_no_loops_in_diamond(self):
        assert find_natural_loops(diamond()) == []

    def test_loop_depths(self):
        depths = loop_depths(loop_cfg())
        assert depths["body2"] == 1
        assert depths["entry0"] == 0


class TestEdgeSplitting:
    def test_critical_edge_detection(self):
        fn = Function("c", ["c"], [], VOID)
        a = fn.new_block("a")
        b = fn.new_block("b")
        join = fn.new_block("join")
        fn.entry = a.label
        a.terminator = Branch(Var("c"), b.label, join.label)
        b.terminator = Jump(join.label)
        join.terminator = Return(None)
        edges = critical_edges(fn)
        assert (a.label, join.label) in edges

    def test_split_critical_edges_removes_them(self):
        fn = Function("c", ["c"], [], VOID)
        a = fn.new_block("a")
        b = fn.new_block("b")
        join = fn.new_block("join")
        fn.entry = a.label
        a.terminator = Branch(Var("c"), b.label, join.label)
        b.terminator = Jump(join.label)
        join.terminator = Return(None)
        count = split_critical_edges(fn)
        assert count == 1
        assert critical_edges(fn) == []

    def test_split_edge_rewrites_phis(self):
        fn = diamond()
        fn.blocks["join3"].phis.append(
            Phi("v", {"left1": Const(1), "right2": Const(2)})
        )
        middle = split_edge(fn, "left1", "join3")
        phi = fn.blocks["join3"].phis[0]
        assert middle.label in phi.incomings
        assert "left1" not in phi.incomings

    def test_split_edge_preserves_execution(self):
        from repro.ir.function import Program
        from repro.runtime.interpreter import run_program

        fn = diamond()
        fn.blocks["join3"].terminator = Return(Var("c"))
        split_edge(fn, "left1", "join3")
        program = Program()
        program.add_function(fn)
        assert run_program(program, "d", [1]).value == 1
