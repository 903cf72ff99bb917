"""Capture of a compilation's storable result, from inside the pipeline.

The ``store-capture`` pass hands each function to a :class:`StoreCapture`
at the only moment the store can use it: after ``certify`` (every
surviving elimination carries an accepted certificate) and before
``check-removal`` (the checks are still in the IR, so the inequality
graphs rebuilt at load time still contain the edges the certificates
traverse).

A capture is *all-or-nothing* per compilation unit: any function whose
eliminations cannot be certified-and-serialized (certification disabled,
a missing witness, a pass failure upstream) marks the whole capture
uncacheable — a partial entry would make the warm path diverge from the
cold path, which is exactly what the store must never do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.certify.witness import WitnessTable
from repro.store.entry import Elimination, StoreEntry


class StoreCapture:
    """Accumulates per-function pre-removal IR + certified eliminations
    during one ``CompilationSession.optimize`` run."""

    def __init__(self) -> None:
        self.ir_by_function: Dict[str, str] = {}
        self.eliminations: Dict[str, List[Elimination]] = {}
        #: One table for the unit, so rows shared across functions are
        #: stored once.
        self.table = WitnessTable()
        self.cacheable = True
        self.reason: Optional[str] = None

    def mark_uncacheable(self, reason: str) -> None:
        if self.cacheable:
            self.cacheable = False
            self.reason = reason

    # ------------------------------------------------------------------
    # Called by the store-capture pass.
    # ------------------------------------------------------------------

    def add_function(self, fn, state) -> None:
        """Snapshot one function's pre-removal IR and its eliminations
        (``state`` is the post-certify :class:`~repro.core.abcd.AbcdState`)."""
        from repro.ir.printer import format_function

        records = {a.check_id: a for a in state.analyses}
        elims: List[Elimination] = []
        for site in state.to_remove:
            record = records.get(site.instr.check_id)
            if not self._certified(record):
                self.mark_uncacheable(
                    f"{fn.name}: elimination #{site.instr.check_id} "
                    "lacks an accepted certificate"
                )
                return
            elims.append(self._elimination(site, record, pre=False))
        for site, record in state.pre_candidates:
            if not getattr(record, "pre_applied", False) or not record.eliminated:
                continue
            if not self._certified(record) or site.instr.guard_group is None:
                self.mark_uncacheable(
                    f"{fn.name}: PRE elimination #{site.instr.check_id} "
                    "lacks an accepted certificate"
                )
                return
            elims.append(self._elimination(site, record, pre=True))
        self.ir_by_function[fn.name] = format_function(fn)
        self.eliminations[fn.name] = elims

    @staticmethod
    def _certified(record) -> bool:
        return (
            record is not None
            and record.witness is not None
            and record.certificate == "accepted"
        )

    def _elimination(self, site, record, pre: bool) -> Elimination:
        return Elimination(
            check_id=site.instr.check_id,
            kind=site.kind,
            array=site.array,
            target=self.table.vertex(site.target),
            witness=self.table.witness(record.witness),
            cert_source=(
                self.table.vertex(record.cert_source)
                if record.cert_source is not None
                else None
            ),
            pre=pre,
        )

    # ------------------------------------------------------------------
    # Assembly.
    # ------------------------------------------------------------------

    def build_entry(self, fingerprint: str, program) -> Optional[StoreEntry]:
        """Assemble the durable entry, or ``None`` when not cacheable.

        ``program`` fixes the function order and completeness: a function
        the capture never saw (analysis failed, e-SSA rolled back) makes
        the capture uncacheable rather than producing an entry that hides
        the function.  So do certificates that expand past the load
        ladder's bound: every load would reject and quarantine the entry.
        """
        from repro.store.store import MAX_WITNESS_NODES

        if not self.cacheable:
            return None
        missing = [
            name for name in program.functions if name not in self.ir_by_function
        ]
        if missing:
            self.mark_uncacheable(f"functions never captured: {missing}")
            return None
        expanded = sum(
            self.table.sizes[elim.witness]
            for elims in self.eliminations.values()
            for elim in elims
        )
        if expanded > MAX_WITNESS_NODES:
            self.mark_uncacheable(
                f"witnesses expand past {MAX_WITNESS_NODES} nodes"
            )
            return None
        ir = "\n\n".join(
            self.ir_by_function[name] for name in program.functions
        )
        eliminated = sum(len(v) for v in self.eliminations.values())
        return StoreEntry(
            fingerprint=fingerprint,
            ir=ir,
            eliminations={k: list(v) for k, v in self.eliminations.items()},
            vertices=self.table.vertices,
            witnesses=self.table.rows,
            meta={"eliminated": eliminated, "functions": len(self.ir_by_function)},
        )
