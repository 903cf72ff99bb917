"""Layer spans recorded from the benchmark's own files.

The traced run calls the same public entry points as the untraced run
(``CompilationSession``, ``run_benchmark``, the serve supervisor).
:func:`instrument` wraps, for its duration, the functions those entry
points call into each layer -- at the name the caller looks up, so the
program's own code runs unchanged:

    frontend  tokenize, Parser.parse_program, check_program
    ir        lower_program, verify_program, parse_ir_program, Function.clone
    passes    PassManager.run_function_pass / run_program_pass / run_group
              (one span per pass, named by :data:`PASS_SPANS`), the guard's
              Function.clone and verify_function inside them, and every
              registered analysis (``passes.analysis.ANALYSES``)
    core      build_graphs (inside the ABCD pass span)
    certify   replay_elimination (store loads; the certify pass is a pass span)
    runtime   collect_profile and run_program of the harness, the worker's
              execution of a request
    robustness  compare_programs, the differential gate
    store     store_fingerprint, CertStore.load, CertStore.put

A span is ``(name, start, duration, parent, unit)``; spans stay in memory
and are summarized once, at the end.  Only spans inside a unit are kept.
A span's layer is its name up to the first dot; its self time is its
duration minus its children's.  Counting (instructions, session
counters) happens outside the unit's time.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Pass registry name -> span name (layer.stage).  A pass added later
#: without an entry here is still attributed, to the passes layer.
PASS_SPANS = {
    "inline": "opt.inline",
    "essa": "ssa.essa",
    "standard-pipeline": "opt.worklist",
    "abcd": "core.solve",
    "pre": "core.pre",
    "certify": "certify.replay",
    "store-capture": "store.capture",
    "check-removal": "core.remove",
}

#: Layers of the matrix, in pipeline order; "unattributed" is unit time
#: no layer span covers.
LAYERS = ("frontend", "ir", "ssa", "opt", "passes", "core", "certify",
          "runtime", "robustness", "store", "serve", "unattributed")


class Tracer:
    """In-memory span recorder plus counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.pass_spans = set()
        self._stack: List[int] = []
        self._unit = -1
        self._excluded = 0.0
        self._unit_calls: Dict[str, int] = {}
        self._sessions: List = []
        self._reports: List = []

    @property
    def innermost(self) -> Optional[int]:
        """Index of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def track(self, session=None, report=None) -> None:
        """Fold a compilation session's stats, or an optimize call's
        report, into the counters when the current unit ends."""
        if self._stack:
            if session is not None:
                self._sessions.append(session)
            if report is not None:
                self._reports.append(report)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a child of the innermost open span;
        yields the span's index (``None`` outside a unit: not recorded)."""
        if not self._stack:
            yield None
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], self._unit])
        self._stack.append(index)
        excluded = self._excluded
        try:
            yield index
        finally:
            self._stack.pop()
            entry = self.spans[index]
            entry[2] = time.perf_counter() - entry[1] - (self._excluded - excluded)

    @contextmanager
    def unit(self):
        """One unit of work; yields its span index.  Counters of the
        compilation sessions it created are folded in when it ends."""
        self._unit += 1
        self._unit_calls = {}
        index = len(self.spans)
        self.spans.append(["unit", time.perf_counter(), 0.0, None, self._unit])
        self._stack.append(index)
        excluded = self._excluded
        try:
            yield index
        finally:
            entry = self.spans[index]
            entry[2] = time.perf_counter() - entry[1] - (self._excluded - excluded)
            for session in self._sessions:
                session_counters(self, session.stats)
            for report in self._reports:
                report_counters(self, report)
            self._sessions, self._reports = [], []
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self._stack:
            self.counters[name] = self.counters.get(name, 0) + value

    def count_with(self, name: str, fn) -> None:
        """Add ``fn()`` to a counter, excluding the counting itself from
        every open span's duration."""
        if not self._stack:
            return
        start = time.perf_counter()
        self.count(name, fn())
        self._excluded += time.perf_counter() - start

    def call_number(self, name: str) -> int:
        """How many times ``name`` was called before in the current unit."""
        seen = self._unit_calls.get(name, 0)
        self._unit_calls[name] = seen + 1
        return seen

    def summary(self) -> Dict:
        """Per-stage and per-layer count, total, self time and p50 (ms)."""
        child_time = [0.0] * len(self.spans)
        for _, _, duration, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += duration
        stages: Dict[str, Dict] = {}
        layers: Dict[str, Dict] = {}
        durations: Dict[str, List[float]] = {}
        for i, (name, _, duration, _, _) in enumerate(self.spans):
            self_ms = max(0.0, duration - child_time[i]) * 1000
            layer = "unattributed" if name == "unit" else name.split(".", 1)[0]
            for key, table in ((name, stages), (layer, layers)):
                entry = table.setdefault(key, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
                entry["count"] += 1
                entry["total_ms"] += duration * 1000
                entry["self_ms"] += self_ms
                durations.setdefault(key, []).append(duration * 1000)
        for table in (stages, layers):
            for key, entry in table.items():
                entry["p50_ms"] = statistics.median(durations[key])
        units_ms = [s[2] * 1000 for s in self.spans if s[0] == "unit"]
        # "unattributed"'s total is the unit time itself: report its self.
        if "unattributed" in layers:
            layers["unattributed"]["total_ms"] = layers["unattributed"]["self_ms"]
        return {"units": len(units_ms), "unit_total_ms": sum(units_ms),
                "stages": stages, "layers": layers, "counters": dict(self.counters)}


def instruction_count(program) -> int:
    return sum(1 for fn in program.functions.values() for _ in fn.all_instructions())


def session_counters(tracer: Tracer, stats) -> None:
    """Fold one session's deterministic ``SessionStats`` counters in."""
    tracer.count("opt.instructions_visited", sum(
        p.instructions_visited for p in stats.passes.values()))
    tracer.count("passes.analysis_hits", stats.analysis.total_hits)
    tracer.count("passes.analysis_misses", stats.analysis.total_misses)
    tracer.count("core.solver_steps", stats.counters.get("solver.steps.upper", 0)
                 + stats.counters.get("solver.steps.lower", 0))


def report_counters(tracer: Tracer, report) -> None:
    """Fold one ``ABCDReport`` (one optimize call) in."""
    tracer.count("core.checks_analyzed", report.analyzed)
    tracer.count("core.checks_eliminated", report.eliminated_count())
    tracer.count("core.budget_exhausted", report.budget_exhausted_count)
    tracer.count("certify.accepted", report.certificates_accepted)
    tracer.count("certify.rejected", report.certificates_rejected)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points (see the module docstring) for the
    duration of the block; every wrapper is removed on exit."""
    from repro.bench import harness
    from repro.certify import driver as certify_driver
    from repro.core import abcd
    from repro.frontend import parser
    from repro.ir import parser as ir_parser
    from repro.ir import verifier
    from repro.ir.function import Function
    from repro.passes import analysis as analysis_module
    from repro.passes import manager, session
    from repro.robustness import differential
    from repro.serve import worker
    from repro.store import fingerprint
    from repro.store.store import CertStore

    patched = []

    def wrap(owner, attr, make):
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def spanned(name, after=None):
        """A wrapper that records ``name`` around the call and then lets
        ``after(result)`` count, outside the span."""
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            return wrapper
        return make

    def pass_spanned(original):
        def wrapper(self, p, *args, **kwargs):
            with tracer.span(PASS_SPANS.get(p.name, f"passes.{p.name}")) as index:
                if index is not None:
                    tracer.pass_spans.add(index)
                return original(self, p, *args, **kwargs)
        return wrapper

    def clone_spanned(original):
        # A clone taken directly inside a pass span is the guard's
        # snapshot; any other is an IR clone (e.g. ``clone_program``).
        def wrapper(self):
            guard = tracer.innermost in tracer.pass_spans
            with tracer.span("passes.guard_clone" if guard else "ir.clone"):
                return original(self)
        return wrapper

    def harness_run(original):
        # run_benchmark runs the unoptimized program first, then the
        # optimized clone.
        def wrapper(*args, **kwargs):
            first = tracer.call_number("run_program") == 0
            with tracer.span("runtime.base_exec" if first else "runtime.exec"):
                result = original(*args, **kwargs)
            tracer.count("runtime.instrs", result.stats.instructions)
            if not first:
                tracer.count("runtime.checks_executed", result.stats.total_checks)
            return result
        return wrapper

    def count_executed(outcome):
        tracer.count("runtime.instrs", outcome["instructions"])
        tracer.count("runtime.checks_executed", outcome["checks"]["total"])

    def session_init(original):
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            tracer.track(session=self)
        return wrapper

    def session_compile(original):
        def wrapper(self, *args, **kwargs):
            program = original(self, *args, **kwargs)
            tracer.count_with("ssa.instrs_essa", lambda: instruction_count(program))
            return program
        return wrapper

    def session_optimize(original):
        def wrapper(self, *args, **kwargs):
            report = original(self, *args, **kwargs)
            tracer.track(report=report)
            return report
        return wrapper

    def analysis_spec(spec):
        def compute(fn, get):
            with tracer.span("passes.analysis"):
                return spec.compute(fn, get)
        return dataclasses.replace(spec, compute=compute)

    analyses = dict(analysis_module.ANALYSES)
    try:
        wrap(parser, "tokenize", spanned(
            "frontend.lex", lambda tokens: tracer.count("frontend.tokens", len(tokens))))
        wrap(parser.Parser, "parse_program", spanned("frontend.parse"))
        wrap(session, "check_program", spanned("frontend.sema"))
        wrap(session, "lower_program", spanned("ir.lower", lambda program: tracer.count_with(
            "ir.instrs_lowered", lambda: instruction_count(program))))
        wrap(session, "verify_program", spanned("ir.verify"))
        wrap(verifier, "verify_program", spanned("ir.verify"))
        wrap(ir_parser, "parse_ir_program", spanned("ir.parse"))
        wrap(Function, "clone", clone_spanned)
        for method in ("run_function_pass", "run_program_pass", "run_group"):
            wrap(manager.PassManager, method, pass_spanned)
        wrap(manager, "verify_function", spanned("passes.guard_verify"))
        wrap(session.CompilationSession, "__init__", session_init)
        wrap(session.CompilationSession, "compile", session_compile)
        wrap(session.CompilationSession, "optimize", session_optimize)
        wrap(abcd, "build_graphs", spanned("core.graph"))
        wrap(certify_driver, "replay_elimination", spanned("certify.replay"))
        wrap(harness, "collect_profile", spanned("runtime.profile"))
        wrap(harness, "run_program", harness_run)
        wrap(worker, "_execute", spanned("runtime.exec", count_executed))
        wrap(differential, "compare_programs", spanned("robustness.gate"))
        wrap(fingerprint, "store_fingerprint", spanned("store.fingerprint"))
        wrap(CertStore, "load", spanned("store.load"))
        wrap(CertStore, "put", spanned("store.put"))
        analysis_module.ANALYSES.update({name: analysis_spec(spec)
                                         for name, spec in analyses.items()})
        yield tracer
    finally:
        analysis_module.ANALYSES.update(analyses)
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


class InProcessWorker:
    """Stands in for the supervisor's worker-subprocess handle: the
    worker's own request handler runs in this process, with every frame
    still encoded and decoded on the way in and out."""

    def __init__(self, config) -> None:
        self.served = 0
        self.pid = os.getpid()
        self._response = None

    def alive(self) -> bool:
        return True

    def send(self, frame: Dict) -> None:
        from repro.serve import protocol, worker

        if frame.get("op") == "shutdown":
            return
        frame = protocol.decode_frame(protocol.encode_frame(frame))
        self._response = worker._serve_request(frame, None, False, self.served + 1)

    def read_frame(self, timeout: float, clock=None) -> Dict:
        from repro.serve import protocol

        return protocol.decode_frame(protocol.encode_frame(self._response))

    def kill(self) -> None:
        pass

    def shutdown(self, grace: float = 1.0) -> None:
        pass


@contextmanager
def in_process_workers():
    """Supervisors created in the block serve through :class:`InProcessWorker`."""
    from repro.serve import supervisor

    original = supervisor.WorkerHandle
    supervisor.WorkerHandle = InProcessWorker
    try:
        yield
    finally:
        supervisor.WorkerHandle = original


def layer_matrix(summary: Dict, extra_layer_ms: Optional[Dict[str, float]] = None,
                 scale: float = 1.0) -> Dict[str, float]:
    """Share (%) of traced unit time per layer.  ``extra_layer_ms`` adds
    time measured outside the spans (the serve layer); ``scale`` rescales
    span time (serve removes the tracing overhead with it)."""
    layer_ms = {layer: summary["layers"].get(layer, {}).get("self_ms", 0.0) * scale
                for layer in LAYERS}
    for layer, ms in (extra_layer_ms or {}).items():
        layer_ms[layer] += ms
    total = sum(layer_ms.values())
    return {layer: (100.0 * ms / total if total else 0.0) for layer, ms in layer_ms.items()}
