"""Extended SSA (e-SSA) construction — paper Section 3.

e-SSA splits variable live ranges at the two places where the paper's
constraint classes C4 and C5 come to life:

* **C4 — conditional branches.**  On each out-edge of a branch whose
  condition is a comparison, every variable operand of the comparison gets
  a π-assignment carrying the relation that holds on that edge (the
  comparison itself on the true edge, its negation on the false edge).
* **C5 — bounds checks.**  Immediately after each ``checklower`` /
  ``checkupper``, the index variable gets a π-assignment carrying the
  invariant the successful check established (``x >= 0`` resp.
  ``x < len(A)``).

Construction is one walk over the CFG, after critical edges are split so
each branch out-edge has a dedicated single-predecessor target block.  The
walk visits the reachable blocks in reverse postorder and, per block,
emits the C4 πs of its incoming edge, renames the body (placing a C5 π
after each check) and renames the terminator.  A π is an ordinary
definition ``v := π(v)``, so every later use is threaded through its fresh
name — the paper's renaming discipline ("the constraint C5 must be
expressed on the new name i2, rather than on i1").

Renaming follows Braun et al., "Simple and Efficient Construction of
Static Single Assignment Form" (CC 2013): a use looks up its variable's
current definition in the block, then in a single predecessor, and
otherwise creates a φ on demand.  A loop header is *sealed* once every
predecessor has been filled; until then its φs are incomplete.  Trivial
φs (every operand the same value or the φ itself) are removed, which on
MiniJ's reducible CFGs leaves pruned, minimal SSA — no dominance
frontiers or liveness needed.  A last pass numbers the versions
``base.N``: the parameters first, then the blocks in reverse postorder,
each block's φs sorted by base name before its body.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg_utils import split_critical_edges
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    CheckLower,
    CheckUpper,
    Cmp,
    Const,
    Instr,
    Operand,
    Phi,
    Pi,
    PiPredicate,
    Var,
)
from repro.limits import recursion_headroom

#: Negation of each comparison relation (for the false edge).
NEGATED_REL = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}

#: Relation as seen from the right operand: ``a REL b`` == ``b SWAP(REL) a``.
SWAPPED_REL = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq", "ne": "ne"}

#: A branch's comparison as ``(op, lhs, rhs)``, operands in pre-SSA names.
Comparison = Tuple[str, Operand, Operand]


def base_name(versioned: str) -> str:
    """Strip the SSA version suffix: ``st.2`` -> ``st``."""
    dot = versioned.rfind(".")
    if dot == -1:
        return versioned
    suffix = versioned[dot + 1 :]
    return versioned[:dot] if suffix.isdigit() else versioned


def construct_essa(fn: Function) -> Function:
    """Convert a non-SSA function into e-SSA form in place and return it."""
    if fn.ssa_form != "none":
        raise ValueError(f"{fn.name} is already in {fn.ssa_form} form")
    split_critical_edges(fn)
    # A lookup recurses once per join it passes; long straight-line
    # functions need headroom beyond the default limit.
    with recursion_headroom(len(fn.blocks) + 1000):
        _EssaBuilder(fn).run()
    fn.ssa_form = "essa"
    # The walk rewrote every name behind the def-use index; rebuild it once
    # on the final names so downstream passes inherit a consistent index.
    fn.rebuild_def_use()
    return fn


class _EssaBuilder:
    """One reverse-postorder walk: πs, renaming and on-demand φs."""

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.order = fn.reachable_blocks()
        #: Every CFG predecessor, for the C4 single-predecessor rule.
        self.all_preds = fn.predecessors()
        #: Reachable predecessors in reverse postorder (φ incoming order).
        self.preds: Dict[str, List[str]] = {label: [] for label in self.order}
        for label in self.order:
            for succ in dict.fromkeys(fn.blocks[label].successors()):
                self.preds[succ].append(label)
        #: A block is sealed once every reachable predecessor is filled.
        self.unfilled = {label: len(preds) for label, preds in self.preds.items()}
        self.sealed = {label for label, count in self.unfilled.items() if not count}
        #: Current definition of each variable at the end of each block
        #: (so far), as a provisional SSA name.
        self.defs: Dict[str, Dict[str, str]] = {label: {} for label in self.order}
        self.incomplete: Dict[str, List[Tuple[str, Phi]]] = {}
        self.comparisons: Dict[str, Comparison] = {}
        #: φ name -> the φs that read it (re-checked when it is removed).
        self.phi_users: Dict[str, List[Phi]] = {}
        #: Removed trivial φ -> the value that replaces it.
        self.forward: Dict[str, str] = {}
        self.versions = 0

    def run(self) -> None:
        fn = self.fn
        fn.invalidate_def_use()
        entry_defs = self.defs[fn.entry]
        fn.params = [self._define(param, entry_defs) for param in fn.params]
        for label in self.order:
            self._fill(label)
        self._number()

    # ------------------------------------------------------------------
    # The walk.
    # ------------------------------------------------------------------

    def _fill(self, label: str) -> None:
        block = self.fn.blocks[label]
        stream = self._edge_pis(label)
        for instr in block.body:
            stream.append(instr)
            if isinstance(instr, (CheckLower, CheckUpper)) and isinstance(instr.index, Var):
                stream.append(_check_pi(instr))
        comparison = _branch_comparison(stream, block.terminator)
        if comparison is not None:
            self.comparisons[label] = comparison
        defs = self.defs[label]
        for instr in stream:
            self._rename_uses(instr, label)
            dest = instr.defs()
            if dest is not None:
                instr.dest = self._define(dest, defs)
        block.body = stream
        if block.terminator is not None:
            self._rename_uses(block.terminator, label)
        for succ in dict.fromkeys(block.successors()):
            self.unfilled[succ] -= 1
            if self.unfilled[succ] == 0:
                self._seal(succ)

    def _edge_pis(self, label: str) -> List[Instr]:
        """The C4 πs of the edge into ``label``, in pre-SSA names."""
        preds = self.all_preds[label]
        comparison = self.comparisons.get(preds[0]) if len(preds) == 1 else None
        if comparison is None:
            # A multi-predecessor target would leak the constraint onto
            # other paths; critical-edge splitting leaves such a target
            # only when the other predecessor is unreachable.
            return []
        op, lhs, rhs = comparison
        branch = self.fn.blocks[preds[0]].terminator
        rel = op if label == branch.true_target else NEGATED_REL[op]
        if rel == "ne":
            # x != y carries no difference constraint.
            return []
        return _pis_for_edge(lhs, rel, rhs)

    def _seal(self, label: str) -> None:
        # Only a loop header has incomplete φs: it was filled before its
        # latch.  Its current definitions are its end values, so a φ that
        # turns out trivial is reached through ``forward``, not a write.
        self.sealed.add(label)
        for var, phi in self.incomplete.pop(label, ()):
            self._add_operands(var, phi, label)

    def _define(self, var: str, defs: Dict[str, str]) -> str:
        name = self._fresh(var)
        defs[var] = name
        return name

    def _fresh(self, var: str) -> str:
        self.versions += 1
        return f"{var}.{self.versions}"

    def _rename_uses(self, instr: Instr, label: str) -> None:
        used = instr.used_vars()
        if used:
            instr.rename_uses({name: self._read(name, label) for name in used})

    # ------------------------------------------------------------------
    # Lookup and trivial-φ removal (Braun et al.).
    # ------------------------------------------------------------------

    def _read(self, var: str, label: str) -> str:
        """The value of ``var`` at the end of ``label`` (so far)."""
        passed = []
        while True:
            value = self.defs[label].get(var)
            if value is not None:
                value = self._resolve(value)
                break
            preds = self.preds[label]
            if label in self.sealed and len(preds) == 1:
                passed.append(label)
                label = preds[0]
                continue
            if not preds:
                raise RuntimeError(
                    f"{self.fn.name}: no reaching definition for {var!r} during "
                    "SSA renaming (frontend should have rejected this program)"
                )
            # A join, or a loop header not sealed yet: a φ at its head.
            phi = Phi(self._fresh(var), {})
            self.fn.blocks[label].phis.append(phi)
            self.phi_users[phi.dest] = []
            self.defs[label][var] = value = phi.dest
            if label in self.sealed:
                value = self.defs[label][var] = self._add_operands(var, phi, label)
            else:
                self.incomplete.setdefault(label, []).append((var, phi))
            break
        for label in passed:
            self.defs[label][var] = value
        return value

    def _add_operands(self, var: str, phi: Phi, label: str) -> str:
        for pred in self.preds[label]:
            value = self._read(var, pred)
            phi.incomings[pred] = Var(value)
            users = self.phi_users.get(value)
            if users is not None:
                users.append(phi)
        return self._remove_trivial(phi)

    def _remove_trivial(self, phi: Phi) -> str:
        """Remove ``phi`` if it is trivial, then every φ user that becomes
        trivial in turn; returns the value that stands for ``phi``."""
        worklist = [phi]
        while worklist:
            current = worklist.pop()
            if current.dest in self.forward:
                continue
            same = self._trivial_value(current)
            if same is None:
                continue
            self.forward[current.dest] = same
            users = self.phi_users.pop(current.dest)
            if same in self.phi_users:
                self.phi_users[same].extend(users)
            worklist.extend(users)
        return self._resolve(phi.dest)

    def _trivial_value(self, phi: Phi) -> Optional[str]:
        """The one value ``phi`` merges besides itself, or ``None``."""
        same = None
        for operand in phi.incomings.values():
            value = self._resolve(operand.name)
            if value == same or value == phi.dest:
                continue
            if same is not None:
                return None
            same = value
        return same

    def _resolve(self, name: str) -> str:
        """Follow removed trivial φs to the value that replaced them."""
        forward = self.forward
        root = name
        while root in forward:
            root = forward[root]
        while name != root:
            forward[name], name = root, forward[name]
        return root

    # ------------------------------------------------------------------
    # Final numbering.
    # ------------------------------------------------------------------

    def _number(self) -> None:
        """Rename every provisional name to ``base.N`` in definition order."""
        fn = self.fn
        final: Dict[str, str] = {}
        counts: Dict[str, int] = {}

        def number(name: str) -> str:
            base = base_name(name)
            count = counts.get(base, 0)
            counts[base] = count + 1
            final[name] = f"{base}.{count}"
            return final[name]

        fn.params = [number(param) for param in fn.params]
        blocks = [fn.blocks[label] for label in self.order]
        for block in blocks:
            live = [phi for phi in block.phis if phi.dest not in self.forward]
            block.phis = sorted(live, key=lambda phi: base_name(phi.dest))
            for phi in block.phis:
                phi.dest = number(phi.dest)
            for instr in block.body:
                dest = instr.defs()
                if dest is not None:
                    instr.dest = number(dest)
        for name in self.forward:
            final[name] = final[self._resolve(name)]
        for block in blocks:
            for instr in block.instructions():
                instr.rename_uses(final)


# ----------------------------------------------------------------------
# π construction.
# ----------------------------------------------------------------------


def _check_pi(check: Instr) -> Pi:
    """The C5 π after a bounds check whose index is a variable."""
    name = check.index.name
    if isinstance(check, CheckLower):
        return Pi(name, name, PiPredicate("ge", other=Const(0)))
    return Pi(name, name, PiPredicate("lt", arraylen_of=check.array))


def _branch_comparison(body: List[Instr], term: Optional[Instr]) -> Optional[Comparison]:
    """The comparison feeding a block's branch, if it is safe to attach π
    constraints to its out-edges.

    The comparison must define the branch condition within the same block,
    and neither of its variable operands may be redefined between the
    comparison and the branch (otherwise the predicate would reference a
    stale value).  ``body`` already holds the block's C5 πs.
    """
    if not isinstance(term, Branch) or not isinstance(term.cond, Var):
        return None
    if term.true_target == term.false_target:
        return None
    for position in range(len(body) - 1, -1, -1):
        if body[position].defs() == term.cond.name:
            break
    else:
        return None
    cmp = body[position]
    if not isinstance(cmp, Cmp):
        return None
    operand_names = {op.name for op in (cmp.lhs, cmp.rhs) if isinstance(op, Var)}
    for instr in body[position + 1 :]:
        if instr.defs() in operand_names:
            return None
    return cmp.op, cmp.lhs, cmp.rhs


def _pis_for_edge(lhs: Operand, rel: str, rhs: Operand) -> List[Instr]:
    """Build the π-assignments for one branch out-edge.

    For ``a REL b``: ``a`` gets predicate ``REL b`` and ``b`` gets the
    swapped predicate ``SWAP(REL) a``.  Like the paper's Table 1, each π of
    the pair ends up referring to the other π'd name after renaming when
    both operands are variables (the second π's predicate names the first
    π's destination, and the first π's predicate names the version
    reaching the edge — both encode the same difference constraint and are
    individually sound).
    """
    pis: List[Instr] = []
    for subject, relation, other in ((lhs, rel, rhs), (rhs, SWAPPED_REL[rel], lhs)):
        if isinstance(subject, Var):
            predicate = PiPredicate(relation, other=other)
            pis.append(Pi(subject.name, subject.name, predicate))
    return pis


def pi_assignments(fn: Function) -> Dict[str, Pi]:
    """All π-assignments of an e-SSA function keyed by destination.

    Served from the def-use type index — O(πs) instead of a function scan.
    """
    chains = fn.def_use()
    found: Dict[str, Pi] = {}
    for instr in chains.instrs_of_type(Pi):
        assert isinstance(instr, Pi)
        found[instr.dest] = instr
    return found
