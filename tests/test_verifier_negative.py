"""IR verifier negative paths: every mutation of well-formed IR below must
be rejected with a message that names the offending instruction or variable.

These invariants are what the pass-guard layer (``repro.robustness.guard``)
relies on to detect a transformation that completed without raising but
left malformed IR behind — so each one needs a test proving the verifier
actually fires.
"""

import pytest

from repro.errors import IRVerificationError
from repro.ir.instructions import Phi, Pi
from repro.ir.parser import parse_ir_program
from repro.ir.printer import format_program
from repro.ir.verifier import verify_function, verify_program
from repro.pipeline import compile_source

SRC = """
fn main(): int {
  let a: int[] = new int[8];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""


@pytest.fixture
def fn():
    function = compile_source(SRC).function("main")
    verify_function(function)  # sanity: well-formed before mutation
    return function


def _find_phi(fn):
    for label in fn.blocks:
        for phi in fn.blocks[label].phis:
            return label, phi
    raise AssertionError("test program has no φ")


def _find_pi(fn):
    for label in fn.blocks:
        for instr in fn.blocks[label].body:
            if isinstance(instr, Pi):
                return label, instr
    raise AssertionError("test program has no π")


class TestPhiInvariants:
    def test_phi_arity_mismatch(self, fn):
        label, phi = _find_phi(fn)
        dropped = next(iter(phi.incomings))
        del phi.incomings[dropped]
        with pytest.raises(IRVerificationError, match=rf"φ {phi.dest}"):
            verify_function(fn)

    def test_phi_outside_block_head(self, fn):
        label, phi = _find_phi(fn)
        block = fn.blocks[label]
        block.phis.remove(phi)
        block.body.append(phi)
        with pytest.raises(IRVerificationError, match="outside the block head"):
            verify_function(fn)

    def test_phi_operand_undefined(self, fn):
        label, phi = _find_phi(fn)
        pred = next(iter(phi.incomings))
        from repro.ir.instructions import Var

        phi.incomings[pred] = Var("ghost0")
        with pytest.raises(IRVerificationError, match=r"'ghost0'.*undefined"):
            verify_function(fn)


class TestSSAInvariants:
    def test_use_of_undefined_variable(self, fn):
        # Retarget some instruction's used variable to a name with no
        # definition anywhere in the function.
        for label in fn.blocks:
            for instr in fn.blocks[label].body:
                if hasattr(instr, "src") and isinstance(instr.src, str):
                    instr.src = "phantom9"
                    with pytest.raises(
                        IRVerificationError,
                        match=r"undefined variable 'phantom9'",
                    ):
                        verify_function(fn)
                    return
        raise AssertionError("no mutable instruction found")

    def test_use_before_definition_in_block(self, fn):
        # Move a defining instruction after a use of it inside one block.
        for label in fn.blocks:
            body = fn.blocks[label].body
            for position, instr in enumerate(body):
                dest = instr.defs()
                if dest is None:
                    continue
                later_users = [
                    (j, other)
                    for j, other in enumerate(body[position + 1 :], position + 1)
                    if dest in other.used_vars()
                ]
                if not later_users:
                    continue
                j, _user = later_users[-1]
                body.insert(j + 1, body.pop(position))
                with pytest.raises(
                    IRVerificationError,
                    match=rf"'{dest}' used before its definition",
                ):
                    verify_function(fn)
                return
        raise AssertionError("no def-use pair within a block")

    def test_duplicate_ssa_definition(self, fn):
        # Re-append an existing defining instruction: two static defs of
        # the same SSA name.
        for label in fn.blocks:
            for instr in fn.blocks[label].body:
                dest = instr.defs()
                if dest is not None:
                    fn.blocks[label].body.append(instr)
                    with pytest.raises(
                        IRVerificationError,
                        match=rf"'{dest}' defined more than once",
                    ):
                        verify_function(fn)
                    return
        raise AssertionError("no defining instruction found")


class TestESSAInvariants:
    def test_dangling_pi_source(self, fn):
        label, pi = _find_pi(fn)
        pi.src = "vanished3"
        with pytest.raises(
            IRVerificationError, match=r"'vanished3'"
        ):
            verify_function(fn)

    def test_duplicate_pi_destination(self, fn):
        label, pi = _find_pi(fn)
        fn.blocks[label].body.append(
            Pi(dest=pi.dest, src=pi.src, predicate=pi.predicate)
        )
        with pytest.raises(
            IRVerificationError,
            match=rf"'{pi.dest}' defined more than once",
        ):
            verify_function(fn)


class TestStructuralInvariants:
    def test_missing_terminator(self, fn):
        label = next(iter(fn.blocks))
        fn.blocks[label].terminator = None
        with pytest.raises(IRVerificationError, match="missing terminator"):
            verify_function(fn)

    def test_jump_to_unknown_block(self, fn):
        for label in fn.blocks:
            block = fn.blocks[label]
            if block.successors():
                block.replace_successor(block.successors()[0], "nowhere")
                with pytest.raises(
                    IRVerificationError, match=r"unknown block 'nowhere'"
                ):
                    verify_function(fn)
                return
        raise AssertionError("no block with successors")


TWO_FUNCTION_SRC = """
fn helper(x: int): int { return x + 1; }
fn main(): int { return helper(41); }
"""


class TestProgramInvariants:
    def test_call_to_unknown_function(self):
        # IR text is how the store and the serve worker admit programs.
        text = format_program(compile_source(TWO_FUNCTION_SRC))
        program = parse_ir_program(text.replace("call helper", "call nothere"))
        with pytest.raises(
            IRVerificationError, match=r"main/entry0: call to unknown function 'nothere'"
        ):
            verify_program(program)
