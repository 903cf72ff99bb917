"""Three-address IR instructions.

The IR models the level at which a JIT such as Jalapeño runs ABCD:

* scalar arithmetic over (unbounded) integers, with booleans as 0/1;
* explicit array instructions (``new``, ``len``, ``load``, ``store``);
* **explicit bounds-check instructions** ``checklower`` / ``checkupper``
  emitted by the lowering in front of every array access — these are the
  objects ABCD removes;
* SSA-era instructions: ``phi`` (control-flow merge) and ``pi``
  (e-SSA renaming at branch exits and after checks, Section 3 of the paper).

Operands are either :class:`Var` (a named virtual register) or
:class:`Const` (an integer literal).  Keeping constants in operand position
makes the paper's constraint classes C2 (``x := c``) and C3 (``x := y + c``)
directly recognizable in the IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


# ----------------------------------------------------------------------
# Operands.
# ----------------------------------------------------------------------


class Operand:
    """Base class for instruction operands."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Operand):
    """A virtual register, identified by name.

    After SSA renaming, names carry a version suffix (``i.2``); before SSA
    they are the raw frontend names or lowering temporaries (``%t3``).
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Operand):
    """An integer constant operand (booleans are 0/1)."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


# ----------------------------------------------------------------------
# Instruction base.
# ----------------------------------------------------------------------


class Instr:
    """Base class of all IR instructions.

    Subclasses implement :meth:`uses` / :meth:`defs` so that generic passes
    (SSA renaming, copy propagation, DCE) need no per-instruction
    knowledge beyond this protocol.
    """

    __slots__ = ()

    def uses(self) -> List[Operand]:
        """All operands read by this instruction (constants included)."""
        raise NotImplementedError

    def used_vars(self) -> List[str]:
        """Names of all variables read by this instruction."""
        return [op.name for op in self.uses() if isinstance(op, Var)]

    def defs(self) -> Optional[str]:
        """The variable defined by this instruction, if any."""
        return None

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        """Rename used variables in place according to ``mapping``.

        Names missing from ``mapping`` are left untouched.
        """
        raise NotImplementedError

    @property
    def is_terminator(self) -> bool:
        return False

    def clone(self) -> "Instr":
        """Structural copy of this instruction.

        Operands (:class:`Var`/:class:`Const`) are frozen and shared;
        mutable containers (φ incomings, call argument lists, π
        predicates) are copied so the clone can be rewritten without
        aliasing the original.  Much cheaper than ``copy.deepcopy``.
        """
        raise NotImplementedError


def _rename_operand(op: Operand, mapping: Dict[str, str]) -> Operand:
    if isinstance(op, Var) and op.name in mapping:
        return Var(mapping[op.name])
    return op


# ----------------------------------------------------------------------
# Scalar instructions.
# ----------------------------------------------------------------------

#: Binary arithmetic opcodes.
ARITH_OPS = ("add", "sub", "mul", "div", "mod")

#: Comparison opcodes (produce 0/1).
CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")


@dataclass
class Copy(Instr):
    """``dest := src`` — also the encoding of constant assignment (C2)."""

    dest: str
    src: Operand

    def uses(self) -> List[Operand]:
        return [self.src]

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.src = _rename_operand(self.src, mapping)

    def clone(self) -> "Copy":
        return Copy(self.dest, self.src)

    def __str__(self) -> str:
        return f"{self.dest} := {self.src}"


@dataclass
class BinOp(Instr):
    """``dest := lhs op rhs`` for ``op`` in :data:`ARITH_OPS`.

    ``x := y + c`` / ``x := y - c`` are the paper's constraint class C3.
    """

    dest: str
    op: str
    lhs: Operand
    rhs: Operand

    def uses(self) -> List[Operand]:
        return [self.lhs, self.rhs]

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.lhs = _rename_operand(self.lhs, mapping)
        self.rhs = _rename_operand(self.rhs, mapping)

    def clone(self) -> "BinOp":
        return BinOp(self.dest, self.op, self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"{self.dest} := {self.op} {self.lhs}, {self.rhs}"


@dataclass
class Cmp(Instr):
    """``dest := lhs op rhs`` for ``op`` in :data:`CMP_OPS`; result is 0/1.

    When a :class:`Branch` tests a ``Cmp`` result, the comparison is the
    source of the paper's C4 constraints.
    """

    dest: str
    op: str
    lhs: Operand
    rhs: Operand

    def uses(self) -> List[Operand]:
        return [self.lhs, self.rhs]

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.lhs = _rename_operand(self.lhs, mapping)
        self.rhs = _rename_operand(self.rhs, mapping)

    def clone(self) -> "Cmp":
        return Cmp(self.dest, self.op, self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"{self.dest} := cmp.{self.op} {self.lhs}, {self.rhs}"


# ----------------------------------------------------------------------
# Array instructions.
# ----------------------------------------------------------------------


@dataclass
class ArrayNew(Instr):
    """``dest := new int[length]``."""

    dest: str
    length: Operand

    def uses(self) -> List[Operand]:
        return [self.length]

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.length = _rename_operand(self.length, mapping)

    def clone(self) -> "ArrayNew":
        return ArrayNew(self.dest, self.length)

    def __str__(self) -> str:
        return f"{self.dest} := newarray {self.length}"


@dataclass
class ArrayLen(Instr):
    """``dest := len(array)`` — the paper's constraint class C1."""

    dest: str
    array: str

    def uses(self) -> List[Operand]:
        return [Var(self.array)]

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.array = mapping.get(self.array, self.array)

    def clone(self) -> "ArrayLen":
        return ArrayLen(self.dest, self.array)

    def __str__(self) -> str:
        return f"{self.dest} := arraylen {self.array}"


@dataclass
class ArrayLoad(Instr):
    """``dest := array[index]`` (checks are separate instructions)."""

    dest: str
    array: str
    index: Operand

    def uses(self) -> List[Operand]:
        return [Var(self.array), self.index]

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.array = mapping.get(self.array, self.array)
        self.index = _rename_operand(self.index, mapping)

    def clone(self) -> "ArrayLoad":
        return ArrayLoad(self.dest, self.array, self.index)

    def __str__(self) -> str:
        return f"{self.dest} := load {self.array}[{self.index}]"


@dataclass
class ArrayStore(Instr):
    """``array[index] := value`` (checks are separate instructions)."""

    array: str
    index: Operand
    value: Operand

    def uses(self) -> List[Operand]:
        return [Var(self.array), self.index, self.value]

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.array = mapping.get(self.array, self.array)
        self.index = _rename_operand(self.index, mapping)
        self.value = _rename_operand(self.value, mapping)

    def clone(self) -> "ArrayStore":
        return ArrayStore(self.array, self.index, self.value)

    def __str__(self) -> str:
        return f"store {self.array}[{self.index}] := {self.value}"


# ----------------------------------------------------------------------
# Bounds checks.
# ----------------------------------------------------------------------


@dataclass
class CheckLower(Instr):
    """``checklower index`` — raises unless ``index >= 0``.

    ``check_id`` is a program-unique identifier used for dynamic counting
    and for the demand-driven (hot check) interface.  ``guard_group`` is
    set by the PRE transformation: when not ``None``, the check only
    executes if the named speculation guard flag has been raised (see
    Section 6.2 of the paper and ``repro.core.pre``).
    """

    index: Operand
    check_id: int
    guard_group: Optional[int] = None

    def uses(self) -> List[Operand]:
        return [self.index]

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.index = _rename_operand(self.index, mapping)

    def clone(self) -> "CheckLower":
        return CheckLower(self.index, self.check_id, self.guard_group)

    def __str__(self) -> str:
        guard = f" guard={self.guard_group}" if self.guard_group is not None else ""
        return f"checklower #{self.check_id} {self.index}{guard}"


@dataclass
class CheckUpper(Instr):
    """``checkupper array, index`` — raises unless ``index < len(array)``."""

    array: str
    index: Operand
    check_id: int
    guard_group: Optional[int] = None

    def uses(self) -> List[Operand]:
        return [Var(self.array), self.index]

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.array = mapping.get(self.array, self.array)
        self.index = _rename_operand(self.index, mapping)

    def clone(self) -> "CheckUpper":
        return CheckUpper(self.array, self.index, self.check_id, self.guard_group)

    def __str__(self) -> str:
        guard = f" guard={self.guard_group}" if self.guard_group is not None else ""
        return f"checkupper #{self.check_id} {self.array}[{self.index}]{guard}"


@dataclass
class CheckUnsigned(Instr):
    """A merged lower+upper check (paper, Section 7.2).

    "The merged check is performed as an unsigned comparison, thanks to
    which a negative value of the array index is transformed into a large
    positive value ... the upper-bound check on the unsigned value is
    equivalent to performing a (lower-bound) check for a negative value as
    well as the upper-bound check on the signed value."

    ``lower_id``/``upper_id`` keep the original check identities so a
    failure raises with the same check id as the unmerged program would.
    Costs one length load plus one compare in the VM's cycle model (vs.
    three for the split pair).
    """

    array: str
    index: Operand
    lower_id: int
    upper_id: int
    guard_group: Optional[int] = None

    def uses(self) -> List[Operand]:
        return [Var(self.array), self.index]

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.array = mapping.get(self.array, self.array)
        self.index = _rename_operand(self.index, mapping)

    def clone(self) -> "CheckUnsigned":
        return CheckUnsigned(
            self.array, self.index, self.lower_id, self.upper_id, self.guard_group
        )

    def __str__(self) -> str:
        guard = f" guard={self.guard_group}" if self.guard_group is not None else ""
        return (
            f"checkunsigned #{self.lower_id}+#{self.upper_id} "
            f"{self.array}[{self.index}]{guard}"
        )


@dataclass
class SpeculativeCheck(Instr):
    """A PRE compensating check inserted by ABCD (Section 6).

    Semantics: evaluate the same predicate as the original check, but on
    failure *set the guard flag* ``guard_group`` instead of trapping.  The
    original (partially redundant) check is rewritten to a guarded check
    that only runs when the flag is set, reproducing the paper's
    "fall back to the unoptimized loop" recovery protocol at instruction
    granularity.

    ``kind`` is ``"upper"`` or ``"lower"``; for upper checks ``array`` names
    the array whose length bounds the index.
    """

    kind: str
    index: Operand
    guard_group: int
    check_id: int
    array: Optional[str] = None

    def uses(self) -> List[Operand]:
        ops: List[Operand] = [self.index]
        if self.array is not None:
            ops.append(Var(self.array))
        return ops

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.index = _rename_operand(self.index, mapping)
        if self.array is not None:
            self.array = mapping.get(self.array, self.array)

    def clone(self) -> "SpeculativeCheck":
        return SpeculativeCheck(
            self.kind, self.index, self.guard_group, self.check_id, self.array
        )

    def __str__(self) -> str:
        target = f"{self.array}[{self.index}]" if self.array else f"[{self.index}]"
        return (
            f"speculate.{self.kind} #{self.check_id} {target} "
            f"-> guard {self.guard_group}"
        )


# ----------------------------------------------------------------------
# Calls and control flow.
# ----------------------------------------------------------------------


@dataclass
class Call(Instr):
    """``dest := call callee(args)``; ``dest`` is ``None`` for void calls."""

    dest: Optional[str]
    callee: str
    args: List[Operand]

    def uses(self) -> List[Operand]:
        return list(self.args)

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.args = [_rename_operand(arg, mapping) for arg in self.args]

    def clone(self) -> "Call":
        return Call(self.dest, self.callee, list(self.args))

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dest} := " if self.dest is not None else ""
        return f"{prefix}call {self.callee}({args})"


@dataclass
class Jump(Instr):
    """Unconditional jump to ``target``."""

    target: str

    def uses(self) -> List[Operand]:
        return []

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        pass

    @property
    def is_terminator(self) -> bool:
        return True

    def clone(self) -> "Jump":
        return Jump(self.target)

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass
class Branch(Instr):
    """Conditional branch: if ``cond`` is non-zero go to ``true_target``,
    else ``false_target``."""

    cond: Operand
    true_target: str
    false_target: str

    def uses(self) -> List[Operand]:
        return [self.cond]

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.cond = _rename_operand(self.cond, mapping)

    @property
    def is_terminator(self) -> bool:
        return True

    def clone(self) -> "Branch":
        return Branch(self.cond, self.true_target, self.false_target)

    def __str__(self) -> str:
        return f"branch {self.cond} ? {self.true_target} : {self.false_target}"


@dataclass
class Return(Instr):
    """Return from the function, optionally with a value."""

    value: Optional[Operand] = None

    def uses(self) -> List[Operand]:
        return [] if self.value is None else [self.value]

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        if self.value is not None:
            self.value = _rename_operand(self.value, mapping)

    @property
    def is_terminator(self) -> bool:
        return True

    def clone(self) -> "Return":
        return Return(self.value)

    def __str__(self) -> str:
        return f"return {self.value}" if self.value is not None else "return"


# ----------------------------------------------------------------------
# SSA instructions.
# ----------------------------------------------------------------------


@dataclass
class Phi(Instr):
    """``dest := phi(label1: v1, label2: v2, ...)``.

    φ-defined variables are the *max* vertices of the inequality graph
    (set ``V_φ`` in the paper): across control-flow paths a variable is
    bounded by the **weakest** incoming constraint.
    """

    dest: str
    incomings: Dict[str, Operand] = field(default_factory=dict)

    def uses(self) -> List[Operand]:
        return list(self.incomings.values())

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.incomings = {
            label: _rename_operand(op, mapping)
            for label, op in self.incomings.items()
        }

    def clone(self) -> "Phi":
        return Phi(self.dest, dict(self.incomings))

    def __str__(self) -> str:
        inc = ", ".join(f"{label}: {op}" for label, op in sorted(self.incomings.items()))
        return f"{self.dest} := phi({inc})"


@dataclass
class PiPredicate:
    """The invariant attached to a π-assignment.

    The π's destination ``d`` satisfies ``d REL bound`` where the bound is
    one of:

    * a variable or constant operand (``other``), from a conditional
      branch — constraint class C4;
    * the length of the array named by ``arraylen_of``, from a successful
      upper-bounds check — constraint class C5 (``d < len(A)``).

    ``rel`` is one of ``lt, le, gt, ge, eq``.
    """

    rel: str
    other: Optional[Operand] = None
    arraylen_of: Optional[str] = None

    def rename(self, mapping: Dict[str, str]) -> None:
        if self.other is not None:
            self.other = _rename_operand(self.other, mapping)
        if self.arraylen_of is not None:
            self.arraylen_of = mapping.get(self.arraylen_of, self.arraylen_of)

    def clone(self) -> "PiPredicate":
        return PiPredicate(self.rel, self.other, self.arraylen_of)

    def __str__(self) -> str:
        if self.arraylen_of is not None:
            return f"{self.rel} len({self.arraylen_of})"
        return f"{self.rel} {self.other}"


@dataclass
class Pi(Instr):
    """``dest := pi(src) [predicate]`` — an e-SSA renaming assignment.

    At run time a π is a plain copy; its value is the attached
    :class:`PiPredicate`, which gives the constraint system a fresh name
    valid exactly where the predicate holds (paper, Section 3).
    """

    dest: str
    src: str
    predicate: PiPredicate

    def uses(self) -> List[Operand]:
        ops: List[Operand] = [Var(self.src)]
        if self.predicate.other is not None:
            ops.append(self.predicate.other)
        if self.predicate.arraylen_of is not None:
            ops.append(Var(self.predicate.arraylen_of))
        return ops

    def defs(self) -> Optional[str]:
        return self.dest

    def rename_uses(self, mapping: Dict[str, str]) -> None:
        self.src = mapping.get(self.src, self.src)
        self.predicate.rename(mapping)

    def clone(self) -> "Pi":
        return Pi(self.dest, self.src, self.predicate.clone())

    def __str__(self) -> str:
        return f"{self.dest} := pi({self.src}) [{self.predicate}]"


#: Instructions that define a value.
DEFINING_INSTRS = (Copy, BinOp, Cmp, ArrayNew, ArrayLen, ArrayLoad, Call, Phi, Pi)
