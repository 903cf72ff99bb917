"""IR well-formedness and SSA-invariant verifier.

Run after construction and after every transformation in tests; it enforces:

* structural invariants — every block has exactly one terminator, all jump
  targets exist, the entry block exists and has no φs;
* φ invariants — in SSA form, each φ has one incoming operand per CFG
  predecessor, and φs only appear at block heads;
* SSA invariants — each variable has at most one definition, and every use
  is dominated by its definition (φ uses are checked at the end of the
  corresponding predecessor);
* e-SSA invariants — every π's predicate mentions only visible values;
* call targets — every call names a function of the program (checked by
  :func:`verify_program`, which sees the whole program).
"""

from __future__ import annotations

from typing import Collection, Dict, List

from repro.errors import IRVerificationError
from repro.ir.function import Function, Program
from repro.ir.instructions import Call, Phi, Var


def verify_function(fn: Function) -> None:
    """Raise :class:`IRVerificationError` on the first violated invariant."""
    preds = _verify_structure(fn)
    if fn.ssa_form in ("ssa", "essa"):
        _verify_ssa(fn, preds)


def verify_program(program: Program, verified: Collection[str] = ()) -> None:
    """Verify every function and every call target.  A function named in
    ``verified`` was verified after its last change (the pass manager
    keeps that record) and gets only the call-target check."""
    for fn in program.functions.values():
        if fn.name not in verified:
            verify_function(fn)
        _verify_callees(fn, program)


def _verify_callees(fn: Function, program: Program) -> None:
    for label, block in fn.blocks.items():
        for instr in block.body:
            if isinstance(instr, Call) and instr.callee not in program.functions:
                raise IRVerificationError(
                    f"{fn.name}/{label}: call to unknown function {instr.callee!r}"
                )


def verify_def_use(fn: Function, context: str = "") -> None:
    """Check the materialized def-use index against the actual IR.

    Enforces (debug mode, after every pass):

    * no dangling uses — every indexed instruction is still in the
      function, in the block the index says;
    * no stale entries — every instruction in the function is indexed,
      and each name's def list / use-occurrence list matches a fresh
      rebuild;
    * def dominates use — for (e-)SSA functions, every recorded use of a
      name is dominated by its recorded definition (φ uses checked at the
      end of the corresponding predecessor, as in :func:`verify_function`).

    A function without a materialized index passes trivially (nothing to
    be out of sync).  Raises :class:`~repro.errors.DefUseIntegrityError`.
    A debug :class:`~repro.passes.session.CompilationSession` runs this
    after every pass.
    """
    if not fn.has_def_use():
        return
    chains = fn.def_use()
    chains.assert_consistent(context)
    if fn.ssa_form in ("ssa", "essa"):
        _verify_chain_dominance(fn, chains, context)


def _verify_chain_dominance(fn: Function, chains, context: str) -> None:
    from repro.analysis.dominance import DominatorTree
    from repro.errors import DefUseIntegrityError

    where = f" after {context}" if context else ""
    domtree = DominatorTree.compute(fn)
    reachable = set(fn.reachable_blocks())
    positions: Dict[int, int] = {}
    for label in reachable:
        for position, instr in enumerate(fn.blocks[label].instructions()):
            positions[id(instr)] = position
    for name, info in chains.values.items():
        def_instr = info.def_instr
        if def_instr is None:
            continue
        def_label = chains.block_of(def_instr)
        if def_label not in reachable:
            continue
        for user in info.uses:
            use_label = chains.block_of(user)
            if use_label not in reachable:
                continue
            if isinstance(user, Phi):
                # A φ use is live at the end of the predecessor block(s)
                # that route this name in.
                for pred, operand in user.incomings.items():
                    if not (isinstance(operand, Var) and operand.name == name):
                        continue
                    if pred not in reachable:
                        continue
                    if def_label != pred and not domtree.dominates(def_label, pred):
                        raise DefUseIntegrityError(
                            f"{fn.name}: φ use of {name!r} from {pred!r} not "
                            f"dominated by its definition in {def_label!r}"
                            f"{where}"
                        )
                continue
            if use_label == def_label:
                if positions[id(def_instr)] >= positions[id(user)]:
                    raise DefUseIntegrityError(
                        f"{fn.name}/{use_label}: {name!r} used before its "
                        f"definition{where}"
                    )
            elif not domtree.dominates(def_label, use_label):
                raise DefUseIntegrityError(
                    f"{fn.name}/{use_label}: use of {name!r} not dominated "
                    f"by its definition in {def_label!r}{where}"
                )


# ----------------------------------------------------------------------
# Structure.
# ----------------------------------------------------------------------


def _verify_structure(fn: Function) -> Dict[str, List[str]]:
    """Check the CFG's shape; returns its predecessor map."""
    if fn.entry not in fn.blocks:
        raise IRVerificationError(f"{fn.name}: entry block {fn.entry!r} missing")
    # Successor targets must exist before any predecessor/reachability
    # computation can be trusted.
    for label, block in fn.blocks.items():
        for succ in block.successors():
            if succ not in fn.blocks:
                raise IRVerificationError(
                    f"{fn.name}/{label}: jump to unknown block {succ!r}"
                )
    preds = fn.predecessors()
    for label, block in fn.blocks.items():
        if block.label != label:
            raise IRVerificationError(
                f"{fn.name}: block registered as {label!r} is labelled "
                f"{block.label!r}"
            )
        if block.terminator is None:
            raise IRVerificationError(f"{fn.name}/{label}: missing terminator")
        if not block.terminator.is_terminator:
            raise IRVerificationError(
                f"{fn.name}/{label}: terminator slot holds non-terminator "
                f"{block.terminator}"
            )
        for instr in block.body:
            if instr.is_terminator:
                raise IRVerificationError(
                    f"{fn.name}/{label}: terminator {instr} in block body"
                )
            if isinstance(instr, Phi):
                raise IRVerificationError(
                    f"{fn.name}/{label}: φ {instr} outside the block head"
                )
        for succ in block.successors():
            if succ not in fn.blocks:
                raise IRVerificationError(
                    f"{fn.name}/{label}: jump to unknown block {succ!r}"
                )
        for phi in block.phis:
            incoming = set(phi.incomings)
            expected = set(preds[label])
            if fn.ssa_form in ("ssa", "essa") and incoming != expected:
                raise IRVerificationError(
                    f"{fn.name}/{label}: φ {phi.dest} has incoming "
                    f"{sorted(incoming)} but predecessors are {sorted(expected)}"
                )
    entry_block = fn.blocks[fn.entry]
    if entry_block.phis:
        raise IRVerificationError(f"{fn.name}: entry block has φ instructions")
    if preds[fn.entry]:
        raise IRVerificationError(
            f"{fn.name}: entry block has predecessors {preds[fn.entry]}"
        )
    return preds


# ----------------------------------------------------------------------
# SSA.
# ----------------------------------------------------------------------


def _verify_ssa(fn: Function, preds: Dict[str, List[str]]) -> None:
    """One walk over the reachable blocks: definitions first, then uses.

    The dominator tree is built from this walk and ``preds``, never read
    from an analysis cache: it is part of what the verifier checks.  A
    π needs no rule of its own: its source is a use and its destination
    a definition.
    """
    from repro.analysis.dominance import DominatorTree

    rpo = fn.reachable_blocks()
    blocks = [(label, list(fn.blocks[label].instructions())) for label in rpo]
    definitions: Dict[str, str] = {}  # var -> defining block label
    # Position of each definition within its block for intra-block ordering.
    def_positions: Dict[str, int] = {}
    for param in fn.params:
        definitions[param] = fn.entry
    for label, instrs in blocks:
        for position, instr in enumerate(instrs):
            dest = instr.defs()
            if dest is None:
                continue
            if dest in definitions:
                raise IRVerificationError(
                    f"{fn.name}: variable {dest!r} defined more than once"
                )
            definitions[dest] = label
            def_positions[dest] = position
    for param in fn.params:
        def_positions[param] = -1

    domtree = DominatorTree.from_cfg(fn.entry, rpo, preds)

    for label, instrs in blocks:
        for position, instr in enumerate(instrs):
            if isinstance(instr, Phi):
                for pred_label, operand in instr.incomings.items():
                    if isinstance(operand, Var):
                        _check_reaches_block_end(
                            fn, domtree, definitions, operand.name, pred_label
                        )
                continue
            for name in instr.used_vars():
                def_label = definitions.get(name)
                if def_label is None:
                    raise IRVerificationError(
                        f"{fn.name}/{label}: use of undefined variable {name!r} "
                        f"in {instr}"
                    )
                if def_label == label:
                    if def_positions[name] >= position:
                        raise IRVerificationError(
                            f"{fn.name}/{label}: {name!r} used before its "
                            f"definition in {instr}"
                        )
                elif not domtree.dominates(def_label, label):
                    raise IRVerificationError(
                        f"{fn.name}/{label}: use of {name!r} not dominated by "
                        f"its definition in {def_label!r}"
                    )


def _check_reaches_block_end(
    fn: Function,
    domtree,
    definitions: Dict[str, str],
    name: str,
    pred_label: str,
) -> None:
    def_label = definitions.get(name)
    if def_label is None:
        raise IRVerificationError(
            f"{fn.name}: φ operand {name!r} (from {pred_label!r}) is undefined"
        )
    if def_label != pred_label and not domtree.dominates(def_label, pred_label):
        raise IRVerificationError(
            f"{fn.name}: φ operand {name!r} from {pred_label!r} not dominated "
            f"by its definition in {def_label!r}"
        )
