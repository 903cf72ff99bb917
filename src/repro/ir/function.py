"""Basic blocks, functions, and programs.

A :class:`Function` is a control-flow graph of :class:`BasicBlock`\\ s.
Each block keeps its φ-instructions separately from its straight-line body
(standard for SSA-era IRs) and always ends in exactly one terminator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.frontend.types import Type
from repro.ir.instructions import Branch, Instr, Jump, Phi, Return

if TYPE_CHECKING:
    from repro.ir.defuse import DefUseChains


class BasicBlock:
    """A labelled basic block: ``phis`` then ``body`` then ``terminator``."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.phis: List[Phi] = []
        self.body: List[Instr] = []
        self.terminator: Optional[Instr] = None

    def successors(self) -> List[str]:
        """Labels of CFG successors, in terminator order."""
        term = self.terminator
        if isinstance(term, Jump):
            return [term.target]
        if isinstance(term, Branch):
            return [term.true_target, term.false_target]
        return []

    def instructions(self) -> Iterator[Instr]:
        """All instructions in execution order (φs, body, terminator)."""
        yield from self.phis
        yield from self.body
        if self.terminator is not None:
            yield self.terminator

    def replace_successor(self, old: str, new: str) -> None:
        """Retarget this block's terminator from ``old`` to ``new``."""
        term = self.terminator
        if isinstance(term, Jump):
            if term.target == old:
                term.target = new
        elif isinstance(term, Branch):
            if term.true_target == old:
                term.true_target = new
            if term.false_target == old:
                term.false_target = new

    def clone(self) -> "BasicBlock":
        """Structural copy: fresh instruction objects, shared operands."""
        block = BasicBlock(self.label)
        block.phis = [phi.clone() for phi in self.phis]
        block.body = [instr.clone() for instr in self.body]
        if self.terminator is not None:
            block.terminator = self.terminator.clone()
        return block

    def __repr__(self) -> str:
        return f"BasicBlock({self.label!r}, {len(self.body)} instrs)"


class Function:
    """A MiniJ function lowered to a CFG.

    ``param_types`` and ``return_type`` carry frontend types through the IR
    so the interpreter can validate call sites.  ``ssa_form`` records which
    representation the function currently uses (``"none"``, ``"ssa"``, or
    ``"essa"``) so passes can assert their preconditions.
    """

    def __init__(
        self,
        name: str,
        params: List[str],
        param_types: List[Type],
        return_type: Type,
    ) -> None:
        self.name = name
        self.params = params
        self.param_types = param_types
        self.return_type = return_type
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry: str = ""
        self.ssa_form: str = "none"
        self._next_label = 0
        self._next_temp = 0
        #: Lazily built def-use index (see :mod:`repro.ir.defuse`).
        self._defuse: Optional["DefUseChains"] = None

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    def new_block(self, hint: str = "bb") -> BasicBlock:
        """Create a fresh, uniquely labelled block and register it."""
        label = f"{hint}{self._next_label}"
        self._next_label += 1
        block = BasicBlock(label)
        self.blocks[label] = block
        return block

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Register an externally created block (label must be unique)."""
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label!r}")
        self.blocks[block.label] = block
        return block

    def new_temp(self, hint: str = "t") -> str:
        """Return a fresh temporary variable name."""
        name = f"%{hint}{self._next_temp}"
        self._next_temp += 1
        return name

    # ------------------------------------------------------------------
    # Def-use chains.
    # ------------------------------------------------------------------

    def def_use(self) -> "DefUseChains":
        """The function's def-use index, built lazily and kept current by
        the mutator methods below.  Passes that mutate the IR without
        going through those mutators must call :meth:`invalidate_def_use`
        first (debug mode verifies this after every pass)."""
        if self._defuse is None:
            from repro.ir.defuse import DefUseChains

            self._defuse = DefUseChains.build(self)
        return self._defuse

    def has_def_use(self) -> bool:
        """Whether a def-use index is currently materialized."""
        return self._defuse is not None

    def invalidate_def_use(self) -> None:
        """Drop the def-use index (the next :meth:`def_use` rebuilds)."""
        self._defuse = None

    def rebuild_def_use(self) -> "DefUseChains":
        """Force a fresh build of the def-use index and return it."""
        self._defuse = None
        return self.def_use()

    # ------------------------------------------------------------------
    # Chain-maintaining mutators.
    #
    # Each of these performs the structural edit *and* keeps the def-use
    # index in sync when one is materialized.  They are the only supported
    # way to edit an indexed function in place.
    # ------------------------------------------------------------------

    def append_instr(self, label: str, instr: Instr) -> None:
        """Append ``instr`` to the body of ``label``."""
        self.blocks[label].body.append(instr)
        if self._defuse is not None:
            self._defuse.register(instr, label)

    def remove_instr(self, label: str, instr: Instr) -> None:
        """Remove ``instr`` (identity match) from the body of ``label``."""
        body = self.blocks[label].body
        for position in range(len(body)):
            if body[position] is instr:
                del body[position]
                break
        else:
            raise ValueError(f"{self.name}/{label}: {instr} not in body")
        if self._defuse is not None:
            self._defuse.unregister(instr)

    def replace_instr(self, label: str, old: Instr, new: Instr) -> None:
        """Swap ``old`` for ``new`` at the same body position."""
        body = self.blocks[label].body
        for position in range(len(body)):
            if body[position] is old:
                body[position] = new
                break
        else:
            raise ValueError(f"{self.name}/{label}: {old} not in body")
        if self._defuse is not None:
            self._defuse.unregister(old)
            self._defuse.register(new, label)

    def remove_phi(self, label: str, phi: Phi) -> None:
        """Remove a φ (identity match) from the head of ``label``."""
        phis = self.blocks[label].phis
        for position in range(len(phis)):
            if phis[position] is phi:
                del phis[position]
                break
        else:
            raise ValueError(f"{self.name}/{label}: {phi} not in phis")
        if self._defuse is not None:
            self._defuse.unregister(phi)

    def set_terminator(self, label: str, instr: Instr) -> None:
        """Replace the terminator of ``label`` (``instr`` may be None)."""
        block = self.blocks[label]
        if self._defuse is not None and block.terminator is not None:
            self._defuse.unregister(block.terminator)
        block.terminator = instr
        if self._defuse is not None and instr is not None:
            self._defuse.register(instr, label)

    # ------------------------------------------------------------------
    # CFG queries.
    # ------------------------------------------------------------------

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    def entry_block(self) -> BasicBlock:
        return self.blocks[self.entry]

    def predecessors(self) -> Dict[str, List[str]]:
        """Map each block label to the labels of its CFG predecessors."""
        preds: Dict[str, List[str]] = {label: [] for label in self.blocks}
        for label, block in self.blocks.items():
            for succ in block.successors():
                preds[succ].append(label)
        return preds

    def reachable_blocks(self) -> List[str]:
        """Labels reachable from the entry, in reverse postorder."""
        # Iterative depth-first search: long CFG chains need no recursion.
        visited = {self.entry}
        order: List[str] = []
        stack: List[tuple] = [(self.entry, iter(self.blocks[self.entry].successors()))]
        while stack:
            label, succ_iter = stack[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(self.blocks[succ].successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(label)
                stack.pop()
        order.reverse()
        return order

    def remove_unreachable_blocks(self) -> List[str]:
        """Drop blocks not reachable from the entry; returns removed labels.

        φ-operands flowing from removed predecessors are pruned as well.
        """
        reachable = set(self.reachable_blocks())
        removed = [label for label in self.blocks if label not in reachable]
        for label in removed:
            block = self.blocks.pop(label)
            if self._defuse is not None:
                for instr in block.instructions():
                    self._defuse.unregister(instr)
        if removed:
            gone = set(removed)
            for block in self.blocks.values():
                for phi in block.phis:
                    if not gone & set(phi.incomings):
                        continue

                    def prune(phi=phi):
                        phi.incomings = {
                            pred: op
                            for pred, op in phi.incomings.items()
                            if pred not in gone
                        }

                    if self._defuse is not None:
                        self._defuse.update_uses(phi, prune)
                    else:
                        prune()
        return removed

    def all_instructions(self) -> Iterator[Instr]:
        """Iterate over every instruction of every block."""
        for block in self.blocks.values():
            yield from block.instructions()

    def variables(self) -> List[str]:
        """All variable names defined or used anywhere in the function."""
        names = set(self.params)
        for instr in self.all_instructions():
            names.update(instr.used_vars())
            dest = instr.defs()
            if dest is not None:
                names.add(dest)
        return sorted(names)

    def checks(self) -> List[Instr]:
        """All bounds-check instructions, in block order."""
        from repro.ir.instructions import CheckLower, CheckUpper

        found = []
        for label in self.reachable_blocks():
            for instr in self.blocks[label].instructions():
                if isinstance(instr, (CheckLower, CheckUpper)):
                    found.append(instr)
        return found

    def clone(self) -> "Function":
        """Structural copy of the whole CFG.

        Replaces ``copy.deepcopy`` for guard snapshots and program
        cloning: instruction objects are duplicated, immutable pieces
        (types, operand objects, label strings) are shared.
        """
        fn = Function(self.name, list(self.params), list(self.param_types), self.return_type)
        fn.entry = self.entry
        fn.ssa_form = self.ssa_form
        fn._next_label = self._next_label
        fn._next_temp = self._next_temp
        fn.blocks = {label: block.clone() for label, block in self.blocks.items()}
        return fn

    def __repr__(self) -> str:
        return f"Function({self.name!r}, {len(self.blocks)} blocks)"


class Program:
    """A compiled MiniJ program: a set of functions plus global counters."""

    def __init__(self) -> None:
        self.functions: Dict[str, Function] = {}
        self._next_check_id = 0
        self._next_guard_group = 0

    def add_function(self, fn: Function) -> None:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn

    def function(self, name: str) -> Function:
        return self.functions[name]

    def new_check_id(self) -> int:
        check_id = self._next_check_id
        self._next_check_id += 1
        return check_id

    def new_guard_group(self) -> int:
        group = self._next_guard_group
        self._next_guard_group += 1
        return group

    def all_checks(self) -> List[Instr]:
        """Every bounds check in the program, grouped by function order."""
        found = []
        for fn in self.functions.values():
            found.extend(fn.checks())
        return found

    def clone(self) -> "Program":
        """Structural copy of every function plus the global counters."""
        program = Program()
        program.functions = {name: fn.clone() for name, fn in self.functions.items()}
        program._next_check_id = self._next_check_id
        program._next_guard_group = self._next_guard_group
        return program

    def __repr__(self) -> str:
        return f"Program({sorted(self.functions)})"
