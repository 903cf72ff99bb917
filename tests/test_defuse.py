"""Def-use chain index: unit behaviour and whole-pipeline invariants.

The index (:mod:`repro.ir.defuse`) is built once at lowering and maintained
incrementally by the Function mutator API.  ``assert_consistent`` compares
the live index against a from-scratch rebuild, so the property tests here
reduce to: after any sequence of chain-maintaining passes, the live index
must equal the rebuilt one.
"""

import random

import pytest

import repro.opt as opt
from repro.bench.corpus import get, names
from repro.errors import DefUseIntegrityError
from repro.ir import format_function
from repro.ir.defuse import DefUseChains
from repro.ir.instructions import BinOp, CheckUpper, Const, Copy, Phi, Var
from repro.ir.verifier import verify_def_use
from repro.passes.session import CompilationSession
from repro.pipeline import compile_source

SMALL_SRC = """
fn first(a: int[]): int {
  let i: int = 0;
  let x: int = a[i];
  return x;
}
fn main(): int {
  let a: int[] = new int[4];
  a[0] = 7;
  return first(a);
}
"""


def small_program(standard_opts=False):
    return compile_source(SMALL_SRC, standard_opts=standard_opts)


# ----------------------------------------------------------------------
# Unit behaviour.
# ----------------------------------------------------------------------


class TestQueries:
    def test_index_matches_function_contents(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        manual = list(fn.all_instructions())
        assert chains.instruction_count() == len(manual)
        for instr in manual:
            assert chains.contains(instr)

    def test_type_index_matches_scan(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        scanned = [
            i for i in fn.all_instructions() if isinstance(i, CheckUpper)
        ]
        assert chains.instrs_of_type(CheckUpper) == scanned

    def test_def_block_of_covers_params(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        for param in fn.params:
            assert chains.def_block_of(param) == fn.entry

    def test_every_def_is_indexed(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        for instr in fn.all_instructions():
            dest = instr.defs()
            if dest is not None:
                assert instr in chains.defs_of(dest)


class TestMaintenance:
    def test_append_and_remove_roundtrip(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        label = fn.entry
        extra = Copy("defuse_tmp", Const(3))
        fn.append_instr(label, extra)
        assert chains.contains(extra)
        assert chains.def_of("defuse_tmp") is extra
        fn.remove_instr(label, extra)
        assert not chains.contains(extra)
        assert chains.def_of("defuse_tmp") is None
        chains.assert_consistent("append/remove roundtrip")

    def test_double_register_rejected(self):
        fn = small_program().function("first")
        fn.def_use()
        extra = Copy("defuse_tmp2", Const(1))
        fn.append_instr(fn.entry, extra)
        with pytest.raises(ValueError):
            fn.def_use().register(extra, fn.entry)

    def test_update_uses_tracks_occurrences(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        source = Copy("du_src", Const(1))
        fn.append_instr(fn.entry, source)
        twice = BinOp("du_sum", "add", Var("du_src"), Var("du_src"))
        fn.append_instr(fn.entry, twice)
        assert chains.use_count("du_src") == 2

        def rewrite():
            twice.rhs = Const(0)

        assert chains.update_uses(twice, rewrite)
        assert chains.use_count("du_src") == 1
        chains.assert_consistent("update_uses occurrence diff")

    def test_on_use_removed_hook_fires(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        source = Copy("hook_src", Const(1))
        fn.append_instr(fn.entry, source)
        user = Copy("hook_user", Var("hook_src"))
        fn.append_instr(fn.entry, user)
        dropped = []
        chains.on_use_removed = dropped.append
        try:
            fn.remove_instr(fn.entry, user)
        finally:
            chains.on_use_removed = None
        assert dropped == ["hook_src"]

    def test_set_terminator_swaps_registration(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        label = fn.entry
        old_term = fn.blocks[label].terminator
        fn.set_terminator(label, old_term.clone())
        assert not chains.contains(old_term)
        chains.assert_consistent("set_terminator swap")


class TestIntegrityChecking:
    def test_bypassing_mutators_is_detected(self):
        fn = small_program().function("first")
        chains = fn.def_use()
        fn.blocks[fn.entry].body.append(Copy("sneaky", Const(9)))
        with pytest.raises(DefUseIntegrityError):
            chains.assert_consistent("tampered body")
        fn.rebuild_def_use().assert_consistent("after rebuild")

    def test_verify_def_use_skips_unindexed_functions(self):
        fn = small_program().function("first")
        fn.invalidate_def_use()
        verify_def_use(fn, "no index")  # must not raise (nothing to check)

    def test_verify_def_use_checks_dominance(self):
        fn = small_program().function("first")
        verify_def_use(fn, "clean function")  # full index + dominance pass

    def test_stale_phi_incoming_is_detected(self):
        program = compile_source(
            get("bubbleSort").source(), standard_opts=False
        )
        for fn in program.functions.values():
            chains = fn.def_use()
            phis = chains.instrs_of_type(Phi)
            if not phis:
                continue
            phi = phis[0]
            pred = next(iter(phi.incomings))
            phi.incomings[pred] = Var("no_such_value")  # bypasses update_uses
            with pytest.raises(DefUseIntegrityError):
                chains.assert_consistent("stale φ incoming")
            return
        pytest.skip("corpus program without φs")


# ----------------------------------------------------------------------
# Property: random pass pipelines keep the live index equal to a rebuild.
# ----------------------------------------------------------------------


def _apply_step(step: str, program, fn) -> None:
    if step == "worklist":
        opt.optimize_worklist(fn)
    elif step == "abcd":
        CompilationSession(strict=True).optimize(program, functions=[fn.name])
    elif step == "legacy-dense":
        # Legacy dense passes invalidate the index up front; the next
        # def_use() must transparently rebuild a consistent one.
        opt.run_standard_pipeline(fn)
    else:  # pragma: no cover
        raise AssertionError(step)


@pytest.mark.parametrize("name", names())
def test_random_pipelines_keep_chains_consistent(name):
    rng = random.Random(f"defuse-{name}")
    for trial in range(2):
        program = compile_source(get(name).source(), standard_opts=False)
        steps = [
            rng.choice(["worklist", "abcd", "legacy-dense"])
            for _ in range(rng.randint(1, 4))
        ]
        for step_index, step in enumerate(steps):
            for fn in program.functions.values():
                _apply_step(step, program, fn)
                context = f"{name} trial {trial} step {step_index} ({step})"
                fn.def_use().assert_consistent(context)
                verify_def_use(fn, context)


@pytest.mark.parametrize("name", names())
def test_default_pipeline_leaves_consistent_chains(name):
    program = compile_source(get(name).source(), inline=True)
    for fn in program.functions.values():
        chains = fn.def_use()
        chains.assert_consistent(f"{name} after default pipeline")
        rebuilt = DefUseChains.build(fn)
        assert chains.instruction_count() == rebuilt.instruction_count()


def test_chains_survive_formatting():
    """Formatting must not perturb the index (pure read)."""
    program = compile_source(get("bubbleSort").source(), inline=True)
    for fn in program.functions.values():
        before = fn.def_use().instruction_count()
        format_function(fn)
        assert fn.def_use().instruction_count() == before
        fn.def_use().assert_consistent("after formatting")
