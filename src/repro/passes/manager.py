"""The pass manager: one declarative driver for every transformation.

A :class:`Pass` declares its ``name``, whether it ``mutates`` the
function, and how it wants to be sandboxed (``snapshot``/``verify``).
The :class:`PassManager` is the one pass sandbox — snapshot → run →
verify → rollback — and hands every contained failure to the context's
:class:`~repro.robustness.guard.PassGuard`, the failure sink.  It also
keeps the analysis cache honest with one rule: a run that can change
its function (:meth:`Pass.may_change`) drops every cached analysis of
it, whether it succeeds or rolls back.  A run that cannot change its
function takes no snapshot and no verify.

The manager records which functions were verified after their last
change (:attr:`PassManager.verified`; a rollback restores the record
its snapshot had), so ``CompilationSession.compile`` re-verifies only
the functions no pass verified since they last changed.
``pipeline.py``, the CLI, the differential gate, and the bench harness
all drive the same pass list through
:class:`~repro.passes.session.CompilationSession`.  Per-pass wall time,
invocation counts, rollbacks, and the analysis cache's hit/miss counters
land in :class:`SessionStats`.

:class:`FixpointGroup` iterates its member passes to a bounded fixpoint
with *one* snapshot and *one* verification per round; an exception is
attributed to the member that raised, a verification failure to
``<group>-verify``, and either way the round rolls back and iteration
stops at the last-known-good state.  No default pipeline uses a group
(the sparse ``standard-pipeline`` worklist replaced the dense fixpoint
suite); :meth:`PassManager.run_group` stays because the end-to-end
benchmark's tracer (``benchmarks/e2e/spans.py``) wraps it by name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.abcd import ABCDConfig, ABCDReport
from repro.ir.function import Function, Program
from repro.ir.verifier import verify_def_use, verify_function
from repro.passes.analysis import AnalysisManager
from repro.robustness.guard import PassGuard, _restore_in_place
from repro.runtime.profiler import Profile


class Pass:
    """Base class of registered passes.

    Class attributes (overridable per subclass):

    * ``name`` — registry key and failure-attribution label;
    * ``scope`` — ``"function"`` or ``"program"``;
    * ``mutates`` — after a mutating pass the manager drops every cached
      analysis of the function; pure analysis passes set this ``False``
      and keep the cache;
    * ``snapshot``/``verify`` — whether the manager clones before the run
      and re-verifies the IR after it (self-guarded passes opt out).
    """

    name: str = "<pass>"
    scope: str = "function"
    mutates: bool = True
    snapshot: bool = True
    verify: bool = True

    def should_run(self, fn: Optional[Function], ctx: "PassContext") -> bool:
        return True

    def may_change(self, fn: Optional[Function], ctx: "PassContext") -> bool:
        """Whether this run can change the IR.  Only such a run is
        snapshotted and verified (as ``snapshot``/``verify`` ask) and drops
        the function's analyses; by default every run of a mutating pass
        is one."""
        return self.mutates

    def run(self, fn: Optional[Function], ctx: "PassContext") -> Optional[int]:
        """Apply the pass; returns a change count when meaningful."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class FixpointGroup:
    """A bounded-fixpoint group of function passes (see module docstring)."""

    scope = "function"

    def __init__(self, name: str, members: Sequence[Pass], max_rounds: int = 4) -> None:
        self.name = name
        self.members = list(members)
        self.max_rounds = max_rounds

    def should_run(self, fn: Function, ctx: "PassContext") -> bool:
        return all(member.should_run(fn, ctx) for member in self.members)

    def __repr__(self) -> str:
        return f"FixpointGroup({self.name!r}, {self.members!r})"


# ----------------------------------------------------------------------
# Stats.
# ----------------------------------------------------------------------


@dataclass
class PassStats:
    """Accumulated telemetry of one pass across a session."""

    name: str
    invocations: int = 0
    changes: int = 0
    rollbacks: int = 0
    seconds: float = 0.0
    #: Worklist sparseness counters (worklist-driven passes only):
    #: instructions popped and processed, and how many of those pops
    #: revisited an instruction already processed once.  A dense
    #: fixpoint re-scan would count every instruction once per member
    #: per round; the gap between that and these numbers is the
    #: measured sparseness win.
    instructions_visited: int = 0
    worklist_revisits: int = 0


class SessionStats:
    """Per-pass timing/rollback counters plus the analysis cache stats.

    Surfaced on :class:`~repro.core.abcd.ABCDReport`, by ``repro optimize
    --time-passes``, and inside benchmark JSON.
    """

    def __init__(self, analysis: Optional[AnalysisManager] = None) -> None:
        self.passes: Dict[str, PassStats] = {}
        self.analysis = analysis
        #: Free-form campaign counters (the fuzz driver folds its
        #: per-classification tallies in here as ``fuzz.<name>``).
        self.counters: Dict[str, int] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a free-form session counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def bump_peak(self, name: str, value: int) -> None:
        """Record a high-water-mark counter (max, not sum).

        Peak counters carry a ``_peak`` name suffix by convention so
        :meth:`merge` folds them with max semantics too.
        """
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def merge(self, other: "SessionStats") -> None:
        """Fold another session's counters into this one (used by the
        fuzz campaign, which runs one short-lived session per program but
        reports one aggregate)."""
        for name, entry in other.passes.items():
            mine = self.passes.get(name)
            if mine is None:
                mine = self.passes[name] = PassStats(name)
            mine.invocations += entry.invocations
            mine.changes += entry.changes
            mine.rollbacks += entry.rollbacks
            mine.seconds += entry.seconds
            mine.instructions_visited += entry.instructions_visited
            mine.worklist_revisits += entry.worklist_revisits
        for name, value in other.counters.items():
            if name.endswith("_peak"):
                self.bump_peak(name, value)
            else:
                self.bump(name, value)

    def record(
        self, name: str, seconds: float, changed: int = 0, rollback: bool = False
    ) -> None:
        entry = self.passes.get(name)
        if entry is None:
            entry = self.passes[name] = PassStats(name)
        entry.invocations += 1
        entry.seconds += seconds
        entry.changes += changed
        if rollback:
            entry.rollbacks += 1

    def count_worklist(self, name: str, visited: int, revisits: int) -> None:
        """Fold one worklist run's sparseness counters into ``name``."""
        entry = self.passes.get(name)
        if entry is None:
            entry = self.passes[name] = PassStats(name)
        entry.instructions_visited += visited
        entry.worklist_revisits += revisits

    @property
    def total_seconds(self) -> float:
        return sum(entry.seconds for entry in self.passes.values())

    @property
    def rollback_count(self) -> int:
        return sum(entry.rollbacks for entry in self.passes.values())

    def format_table(self) -> str:
        sparse = any(entry.instructions_visited for entry in self.passes.values())
        header = f"{'pass':<24}{'runs':>6}{'changes':>9}{'rollbacks':>11}{'seconds':>10}"
        if sparse:
            header += f"{'visited':>9}{'revisits':>10}"
        lines = [header]
        for entry in self.passes.values():
            line = (
                f"{entry.name:<24}{entry.invocations:>6}{entry.changes:>9}"
                f"{entry.rollbacks:>11}{entry.seconds:>10.4f}"
            )
            if sparse:
                if entry.instructions_visited:
                    line += (
                        f"{entry.instructions_visited:>9}"
                        f"{entry.worklist_revisits:>10}"
                    )
                else:
                    line += f"{'-':>9}{'-':>10}"
            lines.append(line)
        lines.append(f"{'total':<24}{'':>6}{'':>9}{'':>11}{self.total_seconds:>10.4f}")
        if self.counters:
            lines.append("")
            lines.append(f"{'counter':<32}{'value':>12}")
            for name, value in sorted(self.counters.items()):
                lines.append(f"{name:<32}{value:>12}")
        if self.analysis is not None:
            lines.append("")
            lines.append(f"{'analysis cache':<24}{'hits':>6}{'misses':>9}{'seconds':>10}")
            names = sorted(set(self.analysis.hits) | set(self.analysis.misses))
            for name in names:
                lines.append(
                    f"{name:<24}{self.analysis.hits.get(name, 0):>6}"
                    f"{self.analysis.misses.get(name, 0):>9}"
                    f"{self.analysis.seconds.get(name, 0.0):>10.4f}"
                )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "passes": [
                {
                    "name": entry.name,
                    "invocations": entry.invocations,
                    "changes": entry.changes,
                    "rollbacks": entry.rollbacks,
                    "seconds": entry.seconds,
                    "instructions_visited": entry.instructions_visited,
                    "worklist_revisits": entry.worklist_revisits,
                }
                for entry in self.passes.values()
            ],
            "total_seconds": self.total_seconds,
            "counters": dict(sorted(self.counters.items())),
            "analysis": self.analysis.stats() if self.analysis is not None else {},
        }


# ----------------------------------------------------------------------
# Context and manager.
# ----------------------------------------------------------------------


@dataclass
class PassContext:
    """Everything a pass may consult, threaded through every invocation."""

    program: Optional[Program]
    analysis: AnalysisManager
    guard: PassGuard
    stats: SessionStats
    config: Optional[ABCDConfig] = None
    profile: Optional[Profile] = None
    report: ABCDReport = field(default_factory=ABCDReport)
    #: Cross-pass scratch space (e.g. ABCD's analysis state consumed by
    #: the PRE and check-removal passes), keyed by ``(pass_name, id(fn))``.
    state: Dict[Tuple[str, int], Any] = field(default_factory=dict)
    #: Persistent-store capture hook (a :class:`repro.store.capture.
    #: StoreCapture`); when set, the ``store-capture`` pass snapshots each
    #: function's pre-removal IR + certified eliminations into it.
    store_capture: Optional[Any] = None


class PassManager:
    """Runs registered passes over functions with the uniform guard
    protocol, dropping a function's analyses after a mutating pass."""

    def __init__(self, ctx: PassContext) -> None:
        self.ctx = ctx
        #: Names of the functions whose IR was verified after its last
        #: change.
        self.verified: Set[str] = set()

    # ------------------------------------------------------------------
    # Drivers.
    # ------------------------------------------------------------------

    def run(self, passes: Sequence, functions: Optional[Sequence[str]] = None) -> None:
        """Run a pass list over the context's program.

        Function-scope passes visit every (or the named) functions;
        program-scope passes run once.
        """
        for p in passes:
            if isinstance(p, FixpointGroup):
                for fn in self._selected(functions):
                    self.run_group(p, fn)
            elif p.scope == "program":
                self.run_program_pass(p)
            else:
                for fn in self._selected(functions):
                    self.run_function_pass(p, fn)

    def _selected(self, functions: Optional[Sequence[str]]) -> List[Function]:
        program = self.ctx.program
        assert program is not None, "function passes need a program in context"
        names = list(functions) if functions is not None else list(program.functions)
        return [program.functions[name] for name in names]

    # ------------------------------------------------------------------
    # One function pass.
    # ------------------------------------------------------------------

    def run_function_pass(self, p: Pass, fn: Function) -> Optional[Any]:
        ctx = self.ctx
        if not p.should_run(fn, ctx):
            return None
        started = time.perf_counter()
        can_change = p.may_change(fn, ctx)
        was_verified = fn.name in self.verified
        snapshot = fn.clone() if can_change and p.snapshot else None
        try:
            result = p.run(fn, ctx)
            if can_change and p.verify:
                verify_function(fn)
        except Exception as exc:
            if snapshot is not None:
                _restore_in_place(fn, snapshot)
            if can_change:
                # A pass may have (re)computed analyses mid-flight against
                # intermediate CFG states; after a rollback those cached
                # entries no longer describe the restored function.
                ctx.analysis.invalidate(fn)
                # Restored IR is as verified as its snapshot was; IR left
                # as the failed run had it is not.
                self._mark(fn, was_verified and snapshot is not None)
            ctx.stats.record(p.name, time.perf_counter() - started, rollback=True)
            ctx.guard.contain(p.name, fn.name, exc)
            return None
        if can_change:
            ctx.analysis.invalidate(fn)
            self._mark(fn, p.verify)
        if ctx.analysis.debug:
            verify_def_use(fn, p.name)
        ctx.stats.record(
            p.name,
            time.perf_counter() - started,
            changed=result if isinstance(result, int) else 0,
        )
        return result

    # ------------------------------------------------------------------
    # One program pass.
    # ------------------------------------------------------------------

    def run_program_pass(self, p: Pass) -> Optional[Any]:
        ctx = self.ctx
        program = ctx.program
        assert program is not None
        if not p.should_run(None, ctx):
            return None
        started = time.perf_counter()
        can_change = p.may_change(None, ctx)
        was_verified = set(self.verified)
        snapshot = program.clone() if can_change and p.snapshot else None
        try:
            result = p.run(None, ctx)
            if can_change and p.verify:
                for fn in program.functions.values():
                    verify_function(fn)
        except Exception as exc:
            if snapshot is not None:
                _restore_in_place(program, snapshot)
            if can_change:
                self.verified = was_verified if snapshot is not None else set()
            ctx.stats.record(p.name, time.perf_counter() - started, rollback=True)
            ctx.guard.contain(p.name, "<program>", exc)
            return None
        if can_change:
            # A program transform may touch any function; drop everything.
            ctx.analysis.invalidate_all()
            self.verified = set(program.functions) if p.verify else set()
        if ctx.analysis.debug:
            for fn in program.functions.values():
                verify_def_use(fn, p.name)
        ctx.stats.record(
            p.name,
            time.perf_counter() - started,
            changed=result if isinstance(result, int) else 0,
        )
        return result

    def _mark(self, fn: Function, verified: bool) -> None:
        if verified:
            self.verified.add(fn.name)
        else:
            self.verified.discard(fn.name)

    # ------------------------------------------------------------------
    # Fixpoint groups.
    # ------------------------------------------------------------------

    def run_group(self, group: FixpointGroup, fn: Function) -> int:
        ctx = self.ctx
        if not group.should_run(fn, ctx):
            return 0
        total = 0
        for _ in range(group.max_rounds):
            was_verified = fn.name in self.verified
            snapshot = fn.clone()
            pass_name = group.name
            round_changes = 0
            member_stats: List[Tuple[str, float, int]] = []
            try:
                for member in group.members:
                    pass_name = member.name
                    member_started = time.perf_counter()
                    changed = member.run(fn, ctx) or 0
                    member_stats.append(
                        (member.name, time.perf_counter() - member_started, changed)
                    )
                    round_changes += changed
                pass_name = f"{group.name}-verify"
                verify_function(fn)
            except Exception as exc:
                _restore_in_place(fn, snapshot)
                ctx.analysis.invalidate(fn)
                self._mark(fn, was_verified)
                ctx.stats.record(pass_name, 0.0, rollback=True)
                ctx.guard.contain(pass_name, fn.name, exc)
                break
            self._mark(fn, True)
            for name, seconds, changed in member_stats:
                ctx.stats.record(name, seconds, changed=changed)
            if round_changes:
                ctx.analysis.invalidate(fn)
            if ctx.analysis.debug:
                verify_def_use(fn, group.name)
            total += round_changes
            if round_changes == 0:
                break
        return total
