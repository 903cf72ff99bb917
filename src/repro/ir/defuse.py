"""Explicit def-use chains over the IR (the sparse backbone).

ABCD's selling point is *sparseness*: a demand-driven traversal of a
program-point-independent constraint system instead of a dense sweep.  The
host IR used to be the opposite — values were bare strings and every
optimization pass rediscovered uses by rescanning the whole function.
This module gives each value name a :class:`ValueInfo` — its defining
instruction(s) and an ordered use list — maintained incrementally by
:class:`~repro.ir.function.Function`'s mutator API, so passes can ask
"who uses ``x``?" in O(users) instead of O(function).

Design points:

* **Occurrence-level use lists.**  An instruction that reads ``x`` twice
  (``x + x``) appears twice in ``uses``; replacing one occurrence keeps
  the bookkeeping exact.  ``users_of`` deduplicates for callers that
  iterate instructions.
* **Pre-SSA tolerance.**  Before SSA renaming a name may have several
  defining instructions; ``defs`` is a list.  In (e-)SSA form it has at
  most one element (parameters have none), which :meth:`ValueInfo.
  def_instr` exposes directly.
* **Type index.**  ``instrs_of_type`` answers "all calls" / "all πs" /
  "all checks" without a function scan — consumed by inlining, e-SSA
  helpers, and the sparse array-variable closure.
* **Change notification.**  The worklist optimizer registers an
  ``on_use_removed`` hook; whenever a use occurrence disappears (operand
  rewritten, instruction deleted, block unreachable) the owning pass
  learns which value may have just become dead — the DCE cascade without
  any rescanning.

Consistency with the actual IR is checked by :meth:`assert_consistent`
(rebuild from scratch, compare), which the pass manager runs after every
pass in debug mode and the property-based tests run over random pass
pipelines.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Type

from repro.ir.instructions import Instr


class ValueInfo:
    """Def/use record of one value name."""

    __slots__ = ("name", "defs", "uses")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Defining instructions (SSA: at most one; parameters: none).
        self.defs: List[Instr] = []
        #: Using instructions, one entry per use *occurrence*.
        self.uses: List[Instr] = []

    @property
    def def_instr(self) -> Optional[Instr]:
        """The unique defining instruction (SSA), or ``None``."""
        return self.defs[0] if len(self.defs) == 1 else None

    @property
    def use_count(self) -> int:
        return len(self.uses)

    def __repr__(self) -> str:
        return (
            f"ValueInfo({self.name!r}, defs={len(self.defs)}, "
            f"uses={len(self.uses)})"
        )


class DefUseChains:
    """Sparse def-use index of one :class:`~repro.ir.function.Function`.

    Built once (at lowering / after SSA renaming) and maintained
    incrementally through the function's mutator API.  Passes that mutate
    the IR behind its back must call ``fn.invalidate_def_use()`` — the
    next ``fn.def_use()`` rebuilds lazily, and debug mode catches
    violations via :meth:`assert_consistent`.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.values: Dict[str, ValueInfo] = {}
        self._block_of: Dict[int, str] = {}
        self._alive: Dict[int, Instr] = {}
        self._by_type: Dict[Type[Instr], Dict[int, Instr]] = {}
        #: Optional hook fired with a value name each time one of its use
        #: occurrences disappears (see module docstring).
        self.on_use_removed: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, fn) -> "DefUseChains":
        """Scan ``fn`` once and index every instruction."""
        chains = cls(fn)
        for name in fn.params:
            chains._ensure(name)
        for label, block in fn.blocks.items():
            for instr in block.instructions():
                chains.register(instr, label)
        return chains

    def _ensure(self, name: str) -> ValueInfo:
        info = self.values.get(name)
        if info is None:
            info = self.values[name] = ValueInfo(name)
        return info

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def info(self, name: str) -> Optional[ValueInfo]:
        return self.values.get(name)

    def def_of(self, name: str) -> Optional[Instr]:
        info = self.values.get(name)
        return info.def_instr if info is not None else None

    def defs_of(self, name: str) -> List[Instr]:
        info = self.values.get(name)
        return list(info.defs) if info is not None else []

    def def_block_of(self, name: str) -> Optional[str]:
        """Label of the unique def's block; parameters live in the entry."""
        instr = self.def_of(name)
        if instr is not None:
            return self._block_of.get(id(instr))
        if name in self.fn.params:
            return self.fn.entry
        return None

    def users_of(self, name: str) -> List[Instr]:
        """Distinct using instructions, in first-use order."""
        info = self.values.get(name)
        if info is None:
            return []
        seen: Dict[int, Instr] = {}
        for instr in info.uses:
            seen.setdefault(id(instr), instr)
        return list(seen.values())

    def use_count(self, name: str) -> int:
        info = self.values.get(name)
        return len(info.uses) if info is not None else 0

    def contains(self, instr: Instr) -> bool:
        return id(instr) in self._alive

    def block_of(self, instr: Instr) -> str:
        return self._block_of[id(instr)]

    def instrs_of_type(self, instr_type: Type[Instr]) -> List[Instr]:
        """All live instructions of exactly ``instr_type``, in registration
        order (block order right after a build)."""
        return list(self._by_type.get(instr_type, {}).values())

    def instruction_count(self) -> int:
        return len(self._alive)

    # ------------------------------------------------------------------
    # Incremental maintenance.
    # ------------------------------------------------------------------

    def register(self, instr: Instr, block_label: str) -> None:
        """Index one instruction placed in ``block_label``."""
        key = id(instr)
        if key in self._alive:
            raise ValueError(f"instruction already registered: {instr}")
        self._alive[key] = instr
        self._block_of[key] = block_label
        self._by_type.setdefault(type(instr), {})[key] = instr
        dest = instr.defs()
        if dest is not None:
            self._ensure(dest).defs.append(instr)
        for name in instr.used_vars():
            self._ensure(name).uses.append(instr)

    def unregister(self, instr: Instr) -> None:
        """Drop one instruction from the index (it left the function)."""
        key = id(instr)
        if key not in self._alive:
            raise ValueError(f"instruction not registered: {instr}")
        del self._alive[key]
        del self._block_of[key]
        self._by_type[type(instr)].pop(key, None)
        dest = instr.defs()
        if dest is not None:
            info = self._ensure(dest)
            info.defs = [d for d in info.defs if d is not instr]
        for name in set(instr.used_vars()):
            info = self._ensure(name)
            before = len(info.uses)
            info.uses = [u for u in info.uses if u is not instr]
            removed = before - len(info.uses)
            if removed and self.on_use_removed is not None:
                self.on_use_removed(name)

    def update_uses(self, instr: Instr, mutate: Callable[[], None]) -> bool:
        """Apply ``mutate()`` (which rewrites ``instr``'s operands) and
        reconcile the use lists by occurrence diff.  Returns whether the
        use multiset actually changed."""
        before = Counter(instr.used_vars())
        mutate()
        after = Counter(instr.used_vars())
        if before == after:
            return False
        for name, count in (before - after).items():
            info = self._ensure(name)
            for _ in range(count):
                for position in range(len(info.uses) - 1, -1, -1):
                    if info.uses[position] is instr:
                        del info.uses[position]
                        break
            if self.on_use_removed is not None:
                self.on_use_removed(name)
        for name, count in (after - before).items():
            info = self._ensure(name)
            for _ in range(count):
                info.uses.append(instr)
        return True

    # ------------------------------------------------------------------
    # Integrity.
    # ------------------------------------------------------------------

    def assert_consistent(self, context: str = "") -> None:
        """Rebuild from scratch and compare against the live index.

        Raises :class:`~repro.errors.DefUseIntegrityError` on any dangling
        use (an indexed instruction no longer in the function), stale
        entry, or missing registration.
        """
        from repro.errors import DefUseIntegrityError

        where = f" after {context}" if context else ""
        fn = self.fn
        actual: Dict[int, str] = {}
        for label, block in fn.blocks.items():
            for instr in block.instructions():
                actual[id(instr)] = label
        for key, instr in self._alive.items():
            if key not in actual:
                raise DefUseIntegrityError(
                    f"{fn.name}: stale index entry{where}: {instr} is no "
                    "longer in the function"
                )
            if self._block_of[key] != actual[key]:
                raise DefUseIntegrityError(
                    f"{fn.name}: {instr} indexed in block "
                    f"{self._block_of[key]!r} but lives in {actual[key]!r}"
                    f"{where}"
                )
        for key in actual:
            if key not in self._alive:
                raise DefUseIntegrityError(
                    f"{fn.name}: unregistered instruction{where} in block "
                    f"{actual[key]!r}"
                )
        fresh = DefUseChains.build(fn)
        names = set(self.values) | set(fresh.values)
        for name in names:
            live = self.values.get(name)
            want = fresh.values.get(name)
            live_defs = Counter(id(d) for d in live.defs) if live else Counter()
            want_defs = Counter(id(d) for d in want.defs) if want else Counter()
            if live_defs != want_defs:
                raise DefUseIntegrityError(
                    f"{fn.name}: def list of {name!r} out of sync{where} "
                    f"(have {len(live_defs)} defs, expected {len(want_defs)})"
                )
            live_uses = Counter(id(u) for u in live.uses) if live else Counter()
            want_uses = Counter(id(u) for u in want.uses) if want else Counter()
            if live_uses != want_uses:
                raise DefUseIntegrityError(
                    f"{fn.name}: use list of {name!r} out of sync{where} "
                    f"(have {sum(live_uses.values())} occurrences, expected "
                    f"{sum(want_uses.values())})"
                )

    def __repr__(self) -> str:
        return (
            f"DefUseChains({self.fn.name!r}, {len(self.values)} values, "
            f"{len(self._alive)} instrs)"
        )
