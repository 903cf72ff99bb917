"""Adversarial fault injection: corrupt the optimizer, prove the net holds.

Each registered fault deliberately breaks one layer of the system the way
a real bug would — wrong inequality-graph edge weights, poisoned solver
memo entries, a PRE transformation that forgets its compensating check, an
opt pass that raises or emits malformed IR.  The harness then runs the
full fail-safe pipeline under the fault and reports how the safety net
responded.

Every fault carries its *expected containment*:

* ``"rollback"`` — the pass guard must detect it (exception or verifier
  failure) and roll the function back;
* ``"gate"`` — the corruption produces well-formed but *unsound* IR; only
  the differential soundness gate can catch it, by observing divergent
  behavior and reverting to the unoptimized program;
* ``"harmless"`` — the corruption is provably conservative (it can only
  prevent eliminations, never enable wrong ones), so behavior is
  preserved with no intervention;
* ``"revoke"`` — the corruption forges or mangles a proof witness; the
  independent certificate checker (:mod:`repro.certify`) must reject it
  and the revocation ladder keep the affected checks in place, with no
  crash and no behavioral change.

``tests/test_fault_injection.py`` asserts every fault lands in its
expected bucket and that no fault ever crashes the pipeline or lets a
behavioral divergence escape.

Three tables for three injection shapes: :data:`FAULTS` wraps a compile
in a context manager, :data:`CHAOS_FAULTS` is a call a service worker
makes on itself, :data:`DISK_FAULTS` rewrites a store entry file or wraps
the atomic writer.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.abcd import ABCDConfig, ABCDReport
from repro.core.graph import len_node
from repro.core.lattice import ProofResult
from repro.core.solver import ProveOutcome


@contextlib.contextmanager
def _patched(obj, name: str, replacement) -> Iterator[None]:
    """Temporarily replace ``obj.name`` (module attribute or class
    method); always restored, even when the body raises."""
    original = getattr(obj, name)
    setattr(obj, name, replacement)
    try:
        yield
    finally:
        setattr(obj, name, original)


# ----------------------------------------------------------------------
# Graph-construction faults (corrupt the bundle ``build_graphs`` returns).
# ----------------------------------------------------------------------


def _corrupting_build_graphs(mutator: Callable) -> contextlib.AbstractContextManager:
    import repro.core.abcd as abcd_module
    import repro.core.constraints as constraints_module

    real = constraints_module.build_graphs

    def wrapper(fn, **kwargs):
        bundle = real(fn, **kwargs)
        mutator(bundle)
        return bundle

    # ``abcd`` imported the builder by name, so patch its binding.
    return _patched(abcd_module, "build_graphs", wrapper)


def _tighten_all_weights(bundle) -> None:
    """Every constraint claims one more than the program guarantees."""
    for graph in (bundle.upper, bundle.lower):
        for target, edges in graph._in_edges.items():
            graph._in_edges[target] = [
                edge._replace(weight=edge.weight - 1) for edge in edges
            ]


def _drop_min_vertex_edges(bundle) -> None:
    """Drop one in-edge of every min vertex.

    Min vertices join over alternatives (any constraint suffices), so
    removing constraints can only *prevent* proofs — provably harmless.
    """
    for graph in (bundle.upper, bundle.lower):
        for target in list(graph._in_edges):
            if graph.is_phi(target):
                continue
            edges = graph._in_edges[target]
            if len(edges) > 1:
                graph._in_edges[target] = edges[1:]


def _drop_phi_variant_edges(bundle) -> None:
    """Keep only constant in-edges of φ vertices.

    φ vertices meet over all control-flow paths; hiding the loop-carried
    (variable) path makes an induction variable look like its initial
    constant — a classically unsound graph bug.
    """
    for graph in (bundle.upper, bundle.lower):
        for target in list(graph._in_edges):
            if not graph.is_phi(target):
                continue
            edges = graph._in_edges[target]
            consts = [edge for edge in edges if edge.source.kind == "const"]
            if consts and len(consts) < len(edges):
                graph._in_edges[target] = consts


def _spurious_length_edges(bundle) -> None:
    """Claim every variable is strictly below the first array's length."""
    if not bundle.array_vars:
        return
    source = len_node(sorted(bundle.array_vars)[0])
    graph = bundle.upper
    for node in list(graph.nodes()):
        if node.kind == "var":
            graph.add_edge(source, node, -1, None)


# ----------------------------------------------------------------------
# Solver faults (memoization poisoning, lattice corruption).
# ----------------------------------------------------------------------


def _memo_lookup_poisoned_true() -> contextlib.AbstractContextManager:
    from repro.core.solver import _Memo

    def poisoned(self, budget):
        return ProofResult.TRUE

    return _patched(_Memo, "lookup", poisoned)


def _memo_lookup_poisoned_false() -> contextlib.AbstractContextManager:
    from repro.core.solver import _Memo

    def poisoned(self, budget):
        return ProofResult.FALSE

    return _patched(_Memo, "lookup", poisoned)


def _solver_always_true() -> contextlib.AbstractContextManager:
    import repro.core.abcd as abcd_module

    class AlwaysTrueProver:
        def __init__(self, graph, edge_filter=None, **kwargs):
            self.steps = 0
            self.budget_exhausted = False

        def demand_prove(self, source, target, budget, direction=None):
            self.steps += 1
            return ProveOutcome(ProofResult.TRUE, self.steps)

    return _patched(abcd_module, "DemandProver", AlwaysTrueProver)


# ----------------------------------------------------------------------
# PRE faults (corrupt the compensating-check transformation).
# ----------------------------------------------------------------------


def _pre_skip_insertion() -> contextlib.AbstractContextManager:
    import repro.core.pre as pre_module

    def skipped(fn, program, site, point, guard_group):
        return None  # guard flag can now never be raised

    return _patched(pre_module, "_insert_compensating_check", skipped)


def _pre_weaken_offset() -> contextlib.AbstractContextManager:
    import repro.core.pre as pre_module

    real = pre_module._insert_compensating_check

    def weakened(fn, program, site, point, guard_group):
        weaker = dataclasses.replace(point, offset=point.offset - 2)
        return real(fn, program, site, weaker, guard_group)

    return _patched(pre_module, "_insert_compensating_check", weakened)


# ----------------------------------------------------------------------
# Certificate faults (corrupt the emitted proof witnesses; the
# independent checker must reject them and the ladder revoke the
# eliminations — behavior unchanged, no crash).
# ----------------------------------------------------------------------


def _rewrite_first(witness, predicate, rewrite):
    """Rewrite the first (pre-order) witness node matching ``predicate``;
    returns the original tree when nothing matches."""
    from repro.certify.witness import EdgeWitness, PhiWitness

    if predicate(witness):
        return rewrite(witness)
    if isinstance(witness, EdgeWitness):
        sub = _rewrite_first(witness.sub, predicate, rewrite)
        if sub is not witness.sub:
            return dataclasses.replace(witness, sub=sub)
        return witness
    if isinstance(witness, PhiWitness):
        branches = list(witness.branches)
        for position, (source, weight, sub) in enumerate(branches):
            new = _rewrite_first(sub, predicate, rewrite)
            if new is not sub:
                branches[position] = (source, weight, new)
                return dataclasses.replace(witness, branches=tuple(branches))
    return witness


def _corrupting_witnesses(mutator: Callable) -> contextlib.AbstractContextManager:
    """Wrap ``DemandProver.demand_prove`` to corrupt every emitted witness
    (the producer lies; the independent checker must not believe it)."""
    from repro.core.solver import DemandProver

    real = DemandProver.demand_prove

    def wrapper(self, source, target, budget, direction=None):
        outcome = real(self, source, target, budget, direction=direction)
        if outcome.witness is not None:
            outcome.witness = mutator(outcome.witness)
        return outcome

    return _patched(DemandProver, "demand_prove", wrapper)


def _witness_tighten_edge(witness):
    """Claim an inequality edge 1 tighter than the graph justifies."""
    from repro.certify.witness import EdgeWitness

    return _rewrite_first(
        witness,
        lambda w: isinstance(w, EdgeWitness),
        lambda w: dataclasses.replace(w, weight=w.weight - 1),
    )


def _witness_drop_phi_branch(witness):
    """Silently skip one control-flow path of a φ obligation."""
    from repro.certify.witness import PhiWitness

    return _rewrite_first(
        witness,
        lambda w: isinstance(w, PhiWitness) and len(w.branches) > 1,
        lambda w: dataclasses.replace(w, branches=w.branches[:-1]),
    )


def _witness_forge_cycle(witness):
    """Replace the whole derivation with a forged harmless-cycle leaf."""
    from repro.certify.witness import CycleWitness

    return CycleWitness(witness.vertex)


# ----------------------------------------------------------------------
# Opt-pass faults (exceptions mid-flight, malformed IR).
# ----------------------------------------------------------------------


def _opt_pass_raises() -> contextlib.AbstractContextManager:
    import repro.opt as opt_module

    def crashing(fn):
        raise RuntimeError("injected fault: worklist pass crashed mid-flight")

    return _patched(opt_module, "optimize_worklist", crashing)


def _opt_pass_malformed_ir() -> contextlib.AbstractContextManager:
    import repro.opt as opt_module

    real = opt_module.optimize_worklist

    def corrupting(fn):
        result = real(fn)
        for label in fn.reachable_blocks():
            fn.blocks[label].terminator = None  # verifier must reject this
            break
        return dataclasses.replace(result, changes=result.changes + 1)

    return _patched(opt_module, "optimize_worklist", corrupting)


def _abcd_raises() -> contextlib.AbstractContextManager:
    import repro.core.abcd as abcd_module

    def crashing(fn, **kwargs):
        raise RuntimeError("injected fault: graph construction crashed")

    return _patched(abcd_module, "build_graphs", crashing)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One registered fault kind."""

    name: str
    #: "graph" | "solver" | "pre" | "pass" | "certificate"
    category: str
    description: str
    #: "rollback" | "gate" | "harmless" | "revoke" — expected containment.
    expect: str
    #: Scenario key (see :data:`SCENARIOS`).
    scenario: str
    inject: Callable[[], contextlib.AbstractContextManager]
    #: The trial must run in certify mode (witness emission + checker).
    certify: bool = False


FAULTS: Dict[str, FaultSpec] = {
    spec.name: spec
    for spec in [
        FaultSpec(
            "graph-tighten-weights", "graph",
            "every inequality edge claims 1 more slack than the program has",
            "gate", "off_by_one",
            lambda: _corrupting_build_graphs(_tighten_all_weights),
        ),
        FaultSpec(
            "graph-drop-min-edges", "graph",
            "one constraint dropped from every min vertex (conservative)",
            "harmless", "off_by_one",
            lambda: _corrupting_build_graphs(_drop_min_vertex_edges),
        ),
        FaultSpec(
            "graph-drop-phi-variant-edges", "graph",
            "loop-carried in-edges of phi vertices hidden",
            "gate", "off_by_one",
            lambda: _corrupting_build_graphs(_drop_phi_variant_edges),
        ),
        FaultSpec(
            "graph-spurious-length-edge", "graph",
            "every variable spuriously bounded below the array length",
            "gate", "off_by_one",
            lambda: _corrupting_build_graphs(_spurious_length_edges),
        ),
        FaultSpec(
            "solver-memo-poison-true", "solver",
            "memo lookups answer True regardless of the recorded result",
            "gate", "diamond",
            _memo_lookup_poisoned_true,
        ),
        FaultSpec(
            "solver-memo-poison-false", "solver",
            "memo lookups answer False regardless of the recorded result",
            "harmless", "off_by_one",
            _memo_lookup_poisoned_false,
        ),
        FaultSpec(
            "solver-always-true", "solver",
            "the prover claims every query holds",
            "gate", "off_by_one",
            _solver_always_true,
        ),
        FaultSpec(
            "pre-skip-insertion", "pre",
            "PRE guards the original check but never inserts the "
            "compensating check",
            "gate", "pre_trap",
            _pre_skip_insertion,
        ),
        FaultSpec(
            "pre-weaken-offset", "pre",
            "compensating checks probe a smaller index than required",
            "gate", "pre_trap",
            _pre_weaken_offset,
        ),
        FaultSpec(
            "cert-corrupt-edge-weight", "certificate",
            "emitted witnesses claim an inequality edge 1 tighter than "
            "the graph has",
            "revoke", "off_by_one",
            lambda: _corrupting_witnesses(_witness_tighten_edge),
            certify=True,
        ),
        FaultSpec(
            "cert-drop-phi-branch", "certificate",
            "emitted witnesses omit one control-flow path of a phi "
            "obligation",
            "revoke", "off_by_one",
            lambda: _corrupting_witnesses(_witness_drop_phi_branch),
            certify=True,
        ),
        FaultSpec(
            "cert-forge-cycle", "certificate",
            "emitted witnesses are replaced by a forged harmless-cycle leaf",
            "revoke", "off_by_one",
            lambda: _corrupting_witnesses(_witness_forge_cycle),
            certify=True,
        ),
        FaultSpec(
            "opt-pass-raises", "pass",
            "the standard worklist pass raises mid-flight",
            "rollback", "off_by_one",
            _opt_pass_raises,
        ),
        FaultSpec(
            "opt-pass-malformed-ir", "pass",
            "the standard worklist pass deletes a block terminator",
            "rollback", "off_by_one",
            _opt_pass_malformed_ir,
        ),
        FaultSpec(
            "abcd-raises", "pass",
            "inequality-graph construction raises inside the abcd analysis pass",
            "rollback", "off_by_one",
            _abcd_raises,
        ),
    ]
}


# ----------------------------------------------------------------------
# Trial scenarios: small programs whose behavior exposes the corruption.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A trial program plus the inputs the differential gate replays."""

    source: str
    pre: bool = False
    inputs: Sequence[Sequence] = ((),)


SCENARIOS: Dict[str, Scenario] = {
    # Off-by-one loop: the final iteration's upper check MUST fire, so any
    # unsound elimination changes observable behavior.
    "off_by_one": Scenario(
        source="""
fn main(): int {
  let a: int[] = new int[4];
  let s: int = 0;
  let i: int = 0;
  while (i <= len(a)) {
    a[i] = i;
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
"""
    ),
    # Reconvergent inequality-graph diamond: the π vertex for ``a[t]`` has
    # two in-edges (the source ``t`` and the predicate variable ``u``) and
    # both paths reach the merge vertex ``t`` — so whichever edge the
    # solver tries second re-queries ``t`` through the memo, which a
    # poisoned lookup flips from a recorded False to True, unsoundly
    # eliminating a check that must trap (a[7], length 3).
    "diamond": Scenario(
        source="""
fn pick(q: int, n: int): int {
  let a: int[] = new int[n];
  let t: int = q + 1;
  let u: int = t + 5;
  let s: int = 0;
  if (t < u) {
    s = a[t];
  }
  return s;
}

fn main(): int {
  return pick(6, 3);
}
"""
    ),
    # Loop-invariant check, hot enough for PRE; the second call traps, so
    # a corrupted compensating check misses a mandatory bounds error.
    "pre_trap": Scenario(
        source="""
fn kernel(a: int[], k: int, n: int): int {
  let s: int = 0;
  let r: int = 0;
  while (r < n) {
    s = s + a[k];
    r = r + 1;
  }
  return s;
}
fn main(): int {
  let a: int[] = new int[8];
  let warm: int = kernel(a, 3, 40);
  return warm + kernel(a, 8, 5);
}
""",
        pre=True,
    ),
}


# ----------------------------------------------------------------------
# Trial driver.
# ----------------------------------------------------------------------


@dataclass
class FaultTrial:
    """Everything observed while running one fault through the net."""

    fault: FaultSpec
    crashed: bool = False
    crash_message: str = ""
    report: Optional[ABCDReport] = None
    compile_rollbacks: int = 0
    gate_reverted: bool = False
    #: Final program behaves identically to a clean (fault-free) compile.
    final_matched: bool = False
    final_detail: str = ""

    @property
    def rollbacks(self) -> int:
        contained = self.compile_rollbacks
        if self.report is not None:
            contained += self.report.rollback_count
        return contained

    @property
    def revocations(self) -> int:
        """Eliminations the certificate checker revoked (certify mode)."""
        return self.report.revoked_count if self.report is not None else 0

    @property
    def contained(self) -> bool:
        """The net held: no crash, and the final program is sound."""
        return not self.crashed and self.final_matched


def run_trial(
    fault_name: str,
    config: Optional[ABCDConfig] = None,
    fuel: int = 50_000_000,
) -> FaultTrial:
    """Run one fault through compile → guarded ABCD → differential gate.

    The fault is active for the whole compile-and-optimize span.  The
    final program (post-gate) is then differentially executed against a
    clean compile of the same scenario — the ground truth the net must
    preserve.
    """
    from repro.pipeline import compile_source
    from repro.robustness.differential import compare_programs, gated_optimize
    from repro.robustness.guard import PassGuard
    from repro.runtime.profiler import collect_profile

    fault = FAULTS[fault_name]
    scenario = SCENARIOS[fault.scenario]
    trial = FaultTrial(fault=fault)

    clean = compile_source(scenario.source)

    try:
        with fault.inject():
            guard = PassGuard()
            program = compile_source(scenario.source, guard=guard)
            trial.compile_rollbacks = guard.rollback_count

            cfg = dataclasses.replace(config) if config is not None else ABCDConfig()
            if fault.certify:
                cfg.certify = True
            profile = None
            if scenario.pre:
                cfg.pre = True
                profile = collect_profile(
                    program, "main", fuel=fuel, on_trap="partial"
                )
            gated = gated_optimize(
                program,
                cfg,
                profile,
                entry="main",
                inputs=scenario.inputs,
                fuel=fuel,
            )
            trial.report = gated.report
            trial.gate_reverted = gated.reverted
    except Exception as exc:  # the net failed: a fault escaped as a crash
        trial.crashed = True
        trial.crash_message = f"{type(exc).__name__}: {exc}"
        return trial

    final = compare_programs(clean, program, "main", scenario.inputs[0], fuel)
    trial.final_matched = final.matched
    trial.final_detail = final.explain()
    return trial


def run_all_trials(
    names: Optional[Sequence[str]] = None,
) -> List[FaultTrial]:
    """Run every registered fault (or the named subset)."""
    selected = names if names is not None else list(FAULTS)
    return [run_trial(name) for name in selected]


# ----------------------------------------------------------------------
# Process-level chaos faults (the compile-service failure model).
#
# The faults above corrupt the optimizer *logically* and are contained
# in-process (guard / gate / checker).  The compile service adds a second
# failure domain: the worker subprocess itself can die, hang, run out of
# memory, or scribble on its response pipe.  Each chaos fault below
# executes *inside a worker* at the optimization injection point
# (see :mod:`repro.serve.worker`) when a request names it and the
# worker's supervisor armed chaos (``ServeConfig.chaos``); the worker
# imports this module only then.  The supervisor must recover via its
# deadline / retry / circuit-breaker / degradation machinery, never by
# dying.  ``tests/test_serve.py`` and the ``repro storm`` harness assert
# exactly that.
# ----------------------------------------------------------------------


@dataclass
class ChaosContext:
    """What a chaos fault may touch inside the worker.

    ``raw_write`` bypasses the framing layer and writes bytes straight to
    the response pipe — the only way to produce the truncated/corrupt
    frames the supervisor's protocol validation must survive.
    """

    raw_write: Callable[[bytes], None]
    #: How long a hang sleeps — far past any supervisor deadline, so the
    #: supervisor-side timer (not the worker) must end it.
    hang_seconds: float = 3600.0
    #: How long a slow-but-honest response stalls (must stay well inside
    #: the deadline: the request should still succeed).
    slow_seconds: float = 0.05
    #: Whether ``resource.setrlimit`` actually capped this worker; the
    #: OOM fault only allocates for real under a cap.
    mem_cap_applied: bool = False


def _chaos_crash(ctx: ChaosContext) -> None:
    import os
    import signal as signal_module

    os.kill(os.getpid(), signal_module.SIGKILL)


def _chaos_hang(ctx: ChaosContext) -> None:
    import time

    time.sleep(ctx.hang_seconds)


def _chaos_oom(ctx: ChaosContext) -> None:
    if not ctx.mem_cap_applied:
        # No rlimit on this platform: allocating for real could drive the
        # host into swap, which is the exact failure the cap prevents.
        raise MemoryError("simulated allocation blowup (no RLIMIT_AS)")
    hoard = []
    while True:  # raises MemoryError when the address-space cap fires
        hoard.append(bytearray(16 * 1024 * 1024))


def _chaos_truncated_frame(ctx: ChaosContext) -> None:
    import os

    ctx.raw_write(b'{"status":"ok","value":42,"id"')  # no newline, no end
    os._exit(1)


def _chaos_corrupt_frame(ctx: ChaosContext) -> None:
    import os

    ctx.raw_write(b"\x00\xffnot json at all{{{\n")
    os._exit(1)


def _chaos_slow_response(ctx: ChaosContext) -> None:
    import time

    time.sleep(ctx.slow_seconds)


@dataclass(frozen=True)
class ChaosFaultSpec:
    """One process-level fault a worker can self-inject mid-compile."""

    name: str
    description: str
    #: "fatal" — the optimized attempt cannot produce a response (the
    #: supervisor must deadline-kill / respawn / retry / degrade);
    #: "benign" — the response still arrives correct and within deadline.
    severity: str
    inject: Callable[[ChaosContext], None]


CHAOS_FAULTS: Dict[str, ChaosFaultSpec] = {
    spec.name: spec
    for spec in [
        ChaosFaultSpec(
            "worker-crash",
            "the worker SIGKILLs itself mid-compile (segfault stand-in)",
            "fatal",
            _chaos_crash,
        ),
        ChaosFaultSpec(
            "worker-hang",
            "the worker sleeps far past the request deadline",
            "fatal",
            _chaos_hang,
        ),
        ChaosFaultSpec(
            "worker-oom",
            "the worker allocates until the RLIMIT_AS memory cap fires",
            "fatal",
            _chaos_oom,
        ),
        ChaosFaultSpec(
            "frame-truncated",
            "the worker emits half a response frame and exits",
            "fatal",
            _chaos_truncated_frame,
        ),
        ChaosFaultSpec(
            "frame-corrupt",
            "the worker emits non-JSON bytes as its response and exits",
            "fatal",
            _chaos_corrupt_frame,
        ),
        ChaosFaultSpec(
            "slow-response",
            "the worker stalls briefly but answers correctly in time",
            "benign",
            _chaos_slow_response,
        ),
    ]
}

#: The fault names whose optimized attempt can never succeed.
FATAL_CHAOS_FAULTS = tuple(
    name for name, spec in CHAOS_FAULTS.items() if spec.severity == "fatal"
)


# ----------------------------------------------------------------------
# Disk faults (the persistent certificate store's failure model).
#
# Two shapes.  **At-rest** faults corrupt the bytes of one committed
# entry the way real storage fails — torn writes, flipped bits, stale
# formats, or a deliberate forgery — and carry the load-ladder reason the
# store must answer with (``None`` means the entry must still load: the
# fault exercises recovery machinery, not rejection).  **Write-time**
# faults wrap the store's atomic writer (ENOSPC, EACCES, a concurrent
# writer racing on the same entry); the store must degrade to "uncached"
# — counters tick, no exception escapes, and the objects directory stays
# consistent.  The forged-certificate fault is the critical one: it
# survives every envelope rung (its checksum is valid, its JSON well
# formed) and must be caught *only* by certificate replay — the rung that
# makes the whole store zero-trust.
# ----------------------------------------------------------------------


def _entry_root(entry_path) -> "object":
    """objects/<shard>/<fp>.entry → the store root."""
    return entry_path.parents[2]


def _disk_truncate(entry_path) -> None:
    data = entry_path.read_bytes()
    entry_path.write_bytes(data[: max(1, int(len(data) * 0.6))])


def _disk_flip_payload_byte(entry_path) -> None:
    data = bytearray(entry_path.read_bytes())
    mark = bytes(data).rfind(b"\n#sha256:")
    position = mark // 2 if mark > 0 else 0
    data[position] ^= 0x20
    entry_path.write_bytes(bytes(data))


def _disk_flip_footer_byte(entry_path) -> None:
    data = bytearray(entry_path.read_bytes())
    mark = bytes(data).rfind(b"\n#sha256:")
    position = mark + len(b"\n#sha256:") + 10  # inside the 64 hex chars
    data[position] = ord("1") if data[position] != ord("1") else ord("2")
    entry_path.write_bytes(bytes(data))


def _rewrite_valid_envelope(entry_path, mutate) -> None:
    """Decode the payload, apply ``mutate(obj)``, re-encode with a
    *correct* checksum: the result clears every envelope rung."""
    import hashlib
    import json

    data = entry_path.read_bytes()
    mark = data.rfind(b"\n#sha256:")
    obj = json.loads(data[:mark].decode("utf-8"))
    mutate(obj)
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    entry_path.write_bytes(payload + b"\n#sha256:" + digest + b"\n")


def _disk_stale_schema(entry_path) -> None:
    _rewrite_valid_envelope(entry_path, lambda obj: obj.__setitem__("schema", 0))


def _forge_witness(obj) -> None:
    """Tamper the stored certificates: tighten the first edge row's
    weight, or, for a table with no edge rows, point the first
    elimination's target at an added forged vertex."""
    for row in obj.get("witnesses", []):
        if row[0] == "edge":
            row[3] -= 1
            return
    vertices = obj.get("vertices", [])
    for elims in obj.get("eliminations", {}).values():
        for elim in elims:
            elim["target"] = len(vertices)
            vertices.append(["var", "__forged__"])
            return


def _disk_forged_certificate(entry_path) -> None:
    _rewrite_valid_envelope(entry_path, _forge_witness)


def _disk_stray_tmp(entry_path) -> None:
    """Plant a half-written temporary (a SIGKILL mid-write): the entry
    itself stays valid and the next store open must clean the stray."""
    tmp_dir = _entry_root(entry_path) / "tmp"
    (tmp_dir / "stray-killed-writer.tmp").write_bytes(b'{"half":')


def _disk_write_errno(code: int, message: str) -> contextlib.AbstractContextManager:
    import repro.store.atomic as atomic_module

    def failing(path, data, tmp_dir=None):
        raise OSError(code, message)

    return _patched(atomic_module, "atomic_write_bytes", failing)


def _disk_enospc() -> contextlib.AbstractContextManager:
    import errno

    return _disk_write_errno(errno.ENOSPC, "injected fault: no space left on device")


def _disk_eacces() -> contextlib.AbstractContextManager:
    import errno

    return _disk_write_errno(errno.EACCES, "injected fault: permission denied")


def _disk_concurrent_writer() -> contextlib.AbstractContextManager:
    """Two writers race on one entry.  Entries are content-addressed and
    deterministically encoded, so true racers carry identical bytes; the
    rename protocol makes the last one win wholesale and the entry must
    stay valid."""
    import repro.store.atomic as atomic_module

    real = atomic_module.atomic_write_bytes

    def racing(path, data, tmp_dir=None):
        real(path, data, tmp_dir=tmp_dir)  # the competitor lands first
        real(path, data, tmp_dir=tmp_dir)  # then this writer replaces it

    return _patched(atomic_module, "atomic_write_bytes", racing)


@dataclass(frozen=True)
class DiskFaultSpec:
    """One registered store fault."""

    name: str
    description: str
    #: "at-rest" corrupts a committed entry file; "write" wraps the
    #: store's atomic writer for the duration of the context.
    mode: str
    #: at-rest only: prefix of the load-ladder reason the store must
    #: report (``None`` — the entry must still load as a hit).
    expect_reason: Optional[str] = None
    corrupt: Optional[Callable] = None
    inject: Optional[Callable[[], contextlib.AbstractContextManager]] = None
    #: write only: "uncached" (put returns False) | "benign" (put works).
    expect_write: Optional[str] = None


DISK_FAULTS: Dict[str, DiskFaultSpec] = {
    spec.name: spec
    for spec in [
        DiskFaultSpec(
            "disk-torn-write", "entry truncated mid-payload (torn write)",
            "at-rest", expect_reason="truncated", corrupt=_disk_truncate,
        ),
        DiskFaultSpec(
            "disk-flip-payload-byte", "one payload byte flipped at rest",
            "at-rest", expect_reason="checksum", corrupt=_disk_flip_payload_byte,
        ),
        DiskFaultSpec(
            "disk-flip-footer-byte", "one checksum-footer byte flipped at rest",
            "at-rest", expect_reason="checksum", corrupt=_disk_flip_footer_byte,
        ),
        DiskFaultSpec(
            "disk-stale-schema",
            "valid envelope carrying a foreign schema version",
            "at-rest", expect_reason="schema", corrupt=_disk_stale_schema,
        ),
        DiskFaultSpec(
            "disk-forged-certificate",
            "forged certificate inside a perfectly valid envelope — only "
            "certificate replay can catch it",
            "at-rest", expect_reason="certificate", corrupt=_disk_forged_certificate,
        ),
        DiskFaultSpec(
            "disk-stray-tmp",
            "half-written temporary left by a SIGKILLed writer; the entry "
            "itself must still serve and the next open must clean up",
            "at-rest", expect_reason=None, corrupt=_disk_stray_tmp,
        ),
        DiskFaultSpec(
            "disk-enospc", "every store write fails with ENOSPC",
            "write", inject=_disk_enospc, expect_write="uncached",
        ),
        DiskFaultSpec(
            "disk-eacces", "every store write fails with EACCES",
            "write", inject=_disk_eacces, expect_write="uncached",
        ),
        DiskFaultSpec(
            "disk-concurrent-writer",
            "a competing writer lands the same entry first",
            "write", inject=_disk_concurrent_writer, expect_write="benign",
        ),
    ]
}

#: At-rest fault names that must *reject* (quarantine or replay-reject).
CORRUPTING_DISK_FAULTS = tuple(
    name
    for name, spec in DISK_FAULTS.items()
    if spec.mode == "at-rest" and spec.expect_reason is not None
)

