"""The storm harness: drive the compile service under injected faults and
verify its hard guarantees.

Three storms share one harness: one report type (one JSON shape, one
text form), one ground-truth verifier, one supervisor lifecycle, and one
closed-loop driver beside the burst storm's open-loop one.  Faults are
named per request: a request's ``"chaos"`` field names a
:data:`~repro.robustness.faults.CHAOS_FAULTS` entry, which workers run
only under a supervisor with ``ServeConfig.chaos`` armed.

For every request the harness knows the ground truth *before* the service
answers: each template is compiled unoptimized and executed in the
harness process (the same checked-baseline path a degraded worker runs).
The service may then answer a request in exactly two acceptable ways:

* **optimized-and-gated** — behaviorally identical outcome (value, trap
  class, and failing check identity all equal to the baseline); or
* **degraded-but-correct** — additionally byte-identical dynamic check
  and instruction counters, because degraded compilation *is* the
  baseline.

A storm fails on any lost request (no response), any incorrect response,
any fatally-faulted request that still claims optimized service, or any
exception escaping the supervisor (supervisor death).  A ``shed``
response is an explicit answer — overload backpressure — and is never
classified as lost.  ``repro storm`` runs :func:`run_storm` (CI
chaos-smoke), ``--burst`` :func:`run_burst_storm` (overload-smoke) and
``--corrupt`` :func:`run_corruption_storm` (cache-smoke).

**Time is virtual** in the chaos and burst storms: a
:class:`VirtualClock` is the supervisor clock, advanced by a fixed cost
per worker dispatch (:data:`SERVICE_TICK`; a timeout costs the full
deadline), so queue latencies, ladder transitions, and the p50/p95/p99
summaries are pure functions of the seeded schedule — byte-identical
across runs and machines, which is what lets CI gate on them.  Only the
worker *pipe* deadline stays on the real clock (a hung worker must be
killed in real seconds).
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import (
    Any, Callable, ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.robustness.faults import CHAOS_FAULTS, FATAL_CHAOS_FAULTS
from repro.serve.overload import (
    LEVEL_FULL,
    LEVEL_UNOPTIMIZED,
    VirtualClock,
    latency_summary,
)
from repro.serve.supervisor import ServeConfig, Supervisor

#: Virtual seconds one worker dispatch costs in a storm simulation.  The
#: storm's notion of "service time" is this constant, not wall time —
#: that is the whole determinism trick.  A dispatch that *times out*
#: costs the configured deadline instead.
SERVICE_TICK = 0.05

# ----------------------------------------------------------------------
# Request templates.  Each template instantiates to MiniJ source whose
# expected behavior the harness derives by running the checked baseline.
# ----------------------------------------------------------------------


def _template_sum_loop(n: int) -> str:
    """Clean counted loop — fully optimizable, returns a value."""
    return f"""
fn main(): int {{
  let a: int[] = new int[{n}];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {{
    a[i] = i;
    s = s + a[i];
  }}
  return s;
}}
"""


def _template_trap(n: int, idx: int) -> str:
    """Reads ``a[idx]`` with ``len(a) == n`` — traps when ``idx >= n``."""
    return f"""
fn main(): int {{
  let a: int[] = new int[{n}];
  let j: int = {idx};
  return a[j];
}}
"""


def _template_off_by_one(n: int) -> str:
    """``i <= len(a)`` loop: the final iteration's check must fire."""
    return f"""
fn main(): int {{
  let a: int[] = new int[{n}];
  let s: int = 0;
  let i: int = 0;
  while (i <= len(a)) {{
    a[i] = i;
    s = s + a[i];
    i = i + 1;
  }}
  return s;
}}
"""


_USER_ERROR_SOURCE = """
fn main(): int {
  let a: int[] = new int[4];
  return a + 1;
}
"""


def _instantiate(rng: random.Random) -> Dict[str, Any]:
    """Draw one request: source plus what class of answer is expected."""
    roll = rng.random()
    if roll < 0.45:
        return {"source": _template_sum_loop(rng.randrange(2, 12)), "expect": "ok"}
    if roll < 0.70:
        n = rng.randrange(2, 8)
        idx = rng.randrange(0, n + 3)  # may or may not trap
        return {"source": _template_trap(n, idx), "expect": "ok"}
    if roll < 0.92:
        return {"source": _template_off_by_one(rng.randrange(2, 8)), "expect": "ok"}
    return {"source": _USER_ERROR_SOURCE, "expect": "error"}


# ----------------------------------------------------------------------
# The shared harness: report, verifier, supervisor lifecycle, drivers.
# ----------------------------------------------------------------------


@dataclass
class StormReport:
    """What every storm reports, in one JSON shape and one text form.

    :meth:`to_json` emits every dataclass field except those in
    ``hidden`` (dicts key-sorted), plus the ``derived`` properties.
    """

    requests: int = 0
    seed: int = 0
    responses: int = 0
    violations: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    supervisor_alive: bool = True

    title: ClassVar[str] = "storm"
    derived: ClassVar[Tuple[str, ...]] = ("lost", "passed")
    hidden: ClassVar[Tuple[str, ...]] = ()

    @property
    def lost(self) -> int:
        return self.requests - self.responses

    @property
    def passed(self) -> bool:
        return self.supervisor_alive and self.lost == 0 and not self.violations

    def tally(self, classes: Iterable[str]) -> None:
        """Count the answer classes :func:`_verify_response` returned
        that this report has a field for."""
        for name in classes:
            if name in self.__dataclass_fields__:
                setattr(self, name, getattr(self, name) + 1)

    def to_json(self) -> Dict[str, Any]:
        names = [f.name for f in fields(self) if f.name not in self.hidden]
        payload: Dict[str, Any] = {}
        for name in names + list(self.derived):
            value = getattr(self, name)
            payload[name] = (
                dict(sorted(value.items())) if isinstance(value, dict) else value
            )
        return payload


def format_report(report: StormReport) -> str:
    """The text form of any storm report: the verdict, then the JSON
    values one per line (dicts indented below their key), then the
    violations."""
    payload = report.to_json()
    lines = [f"{report.title}: {'PASS' if report.passed else 'FAIL'}"]
    # Scalars first in field order, then the dict blocks, counters last.
    order = sorted(
        payload.items(), key=lambda kv: (isinstance(kv[1], dict), kv[0] == "counters")
    )
    for name, value in order:
        if name in ("violations", "passed"):
            continue
        if isinstance(value, dict):
            lines.append(f"  {name}:" + ("" if value else " none"))
            lines.extend(f"    {key}: {item}" for key, item in value.items())
        else:
            lines.append(f"  {name}: {value}")
    if report.violations:
        lines.append(f"  VIOLATIONS ({len(report.violations)}):")
        lines.extend(f"    {violation}" for violation in report.violations)
    else:
        lines.append("  no violations")
    return "\n".join(lines)


# The fields an optimized answer must reproduce exactly (the gate's
# contract), and the extra fields a degraded answer must also match (the
# degraded compile IS the baseline, counters included).
_OUTCOME_FIELDS = ("value", "trap", "kind", "index", "length", "check_id")
_BASELINE_FIELDS = ("checks", "instructions")


def _baseline(source: str, cache: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Ground truth: the worker's own degraded path, run in-process."""
    from repro.serve import worker as worker_module

    cached = cache.get(source)
    if cached is None:
        cached = cache[source] = worker_module._serve_request(
            {"op": "run", "id": "baseline", "source": source,
             "fn": "main", "args": [], "mode": "degraded"},
            None, False, 0,
        )
    return cached


def _verify_response(
    violations: List[str],
    position: int,
    request: Dict[str, Any],
    response: Dict[str, Any],
    baseline_cache: Dict[str, Dict[str, Any]],
    leg: str = "",
) -> Tuple[str, ...]:
    """Check one response against ground truth.

    Appends one violation per broken contract to ``violations`` and
    returns the answer classes the response counts under, named as report
    fields: ``shed``, ``errors``, ``optimized`` or ``degraded``, and
    ``breaker_open_served`` for degraded service through an open breaker.
    """
    def violate(message: str) -> None:
        violations.append(f"{leg}request {position}: {message}")

    status = response.get("status")
    if status == "shed":
        # Overload backpressure is an explicit, well-formed answer — by
        # contract never a violation and never lost — whatever answer
        # class the request would otherwise have earned.
        if response.get("reason") not in (
            "queue-full", "degrade-level", "deadline-expired", "shutting-down"
        ):
            violate(f"shed response has unknown reason {response.get('reason')!r}")
        if not isinstance(response.get("retry_after"), (int, float)):
            violate("shed response lacks a retry_after hint")
        return ("shed",)
    if request["expect"] == "error":
        if status == "error":
            return ("errors",)
        violate(f"expected a user error, got status {status!r}")
        return ()
    if status != "ok":
        violate(f"expected ok, got {status!r}: {response.get('message', '')!r}")
        return ()

    expected = _baseline(request["source"], baseline_cache)
    mode = response.get("mode")
    if mode in ("optimized", "cached"):
        # Cached service carries the optimized contract: the stored IR's
        # every certificate re-replayed before it was pushed to a worker.
        classes: Tuple[str, ...] = ("optimized",)
    elif mode == "degraded":
        classes = ("degraded",)
    else:
        violate(f"response has unknown mode {mode!r}")
        return ()

    fault = request.get("chaos")
    if fault in FATAL_CHAOS_FAULTS and mode == "optimized":
        violate(f"fatal fault {fault!r} was answered as optimized service")

    for field_name in _OUTCOME_FIELDS:
        if response.get(field_name) != expected.get(field_name):
            violate(
                f"{mode} answer diverges from checked baseline on "
                f"{field_name}: {response.get(field_name)!r} != "
                f"{expected.get(field_name)!r}"
            )
            return classes
    if mode == "degraded":
        if response.get("degraded_reason") == "breaker-open":
            classes += ("breaker_open_served",)
        for field_name in _BASELINE_FIELDS:
            if response.get(field_name) != expected.get(field_name):
                violate(
                    f"degraded answer lost checks: {field_name} "
                    f"{response.get(field_name)!r} != "
                    f"{expected.get(field_name)!r}"
                )
                return classes
    return classes


def storm_config(workers: int = 2, deadline: float = 3.0) -> ServeConfig:
    """A :class:`ServeConfig` tuned for storms: short deadlines and
    backoffs (faults resolve fast), frequent recycling (so the recycle
    path is exercised within one storm), a cooldown longer than any storm
    (an opened breaker stays observably open), and chaos armed so the
    workers run each request's named fault."""
    return ServeConfig(
        workers=workers,
        deadline=deadline,
        mem_mb=512,
        retries=1,
        backoff_base=0.01,
        backoff_cap=0.1,
        recycle_after=25,
        breaker_threshold=3,
        breaker_cooldown=300.0,
        chaos=True,
    )


def _virtual_supervisor(config: ServeConfig) -> Tuple[Supervisor, VirtualClock]:
    """A supervisor on simulated time: the storm determinism harness.

    The virtual clock is injected as the supervisor clock *and* sleep
    (backoffs advance simulation time, not wall time), and every worker
    dispatch advances it by :data:`SERVICE_TICK` (a timeout by the full
    deadline) through the ``dispatch_tick`` hook.  ``propagate_deadlines``
    is forced off: a virtual deadline budget armed as a *real* alarm
    would race actual compile time nondeterministically — queue-side
    expiry shedding, which only compares virtual timestamps, stays on.
    """
    config.propagate_deadlines = False
    vclock = VirtualClock()
    supervisor = Supervisor(config=config, clock=vclock.now, sleep=vclock.advance)

    def tick(outcome: str) -> None:
        vclock.advance(config.deadline if outcome == "timeout" else SERVICE_TICK)

    supervisor.dispatch_tick = tick
    return supervisor, vclock


def _frame(prefix: str, position: int, request: Dict[str, Any]) -> Dict[str, Any]:
    """The ``run`` frame of one planned request, with its named fault
    and client deadline."""
    frame = {"op": "run", "id": f"{prefix}-{position}", "source": request["source"]}
    for key in ("chaos", "deadline_ms"):
        if request.get(key):
            frame[key] = request[key]
    return frame


@contextlib.contextmanager
def _serving(
    report: StormReport, supervisor: Supervisor, leg: str = ""
) -> Iterator[Supervisor]:
    """Start the supervisor, run the body, drain; a drain that throws
    counts as supervisor death."""
    supervisor.start()
    try:
        yield supervisor
    finally:
        try:
            supervisor.shutdown()
        except Exception as exc:  # pragma: no cover - drain must not throw
            report.supervisor_alive = False
            report.violations.append(f"{leg}shutdown: {type(exc).__name__}: {exc}")


def _closed_loop(
    report: StormReport,
    supervisor: Supervisor,
    requests: Iterable[Tuple[int, Dict[str, Any]]],
    prefix: str,
    leg: str = "",
    before: Optional[Callable[[int], None]] = None,
    clock: Optional[Callable[[], float]] = None,
    progress=None,
) -> Iterator[Tuple[int, Dict[str, Any], Dict[str, Any], float]]:
    """Serve ``(position, request)`` pairs one at a time.

    Yields ``(position, request, response, latency)``; ``latency`` is
    measured on ``clock`` (0.0 without one).  ``before(position)`` runs
    ahead of each request.  An exception escaping the supervisor is
    recorded as supervisor death and ends the loop.
    """
    for position, request in requests:
        if before is not None:
            before(position)
        started = clock() if clock is not None else 0.0
        try:
            response = supervisor.handle_request(_frame(prefix, position, request))
        except Exception as exc:  # supervisor death — the cardinal sin
            report.supervisor_alive = False
            report.violations.append(
                f"{leg}request {position}: supervisor died: "
                f"{type(exc).__name__}: {exc}"
            )
            return
        latency = round(clock() - started, 6) if clock is not None else 0.0
        yield position, request, response, latency
        if progress is not None:
            progress(position, response)


# ----------------------------------------------------------------------
# The chaos storm: process faults, closed loop.
# ----------------------------------------------------------------------


@dataclass
class StormResult(StormReport):
    """Verdict of one :func:`run_storm`."""

    fault_rate: float = 0.0
    optimized: int = 0
    degraded: int = 0
    errors: int = 0
    injected_faults: Dict[str, int] = field(default_factory=dict)
    breaker_open_served: int = 0
    #: Overload backpressure answers (explicit responses, never lost).
    shed: int = 0
    #: Virtual admission-to-response latency of every answered request,
    #: reported as its ``latency`` summary.
    latencies: List[float] = field(default_factory=list)

    title = "chaos storm"
    derived = ("lost", "latency", "passed")
    hidden = ("latencies",)

    @property
    def latency(self) -> Dict[str, Any]:
        return latency_summary(self.latencies)


def _plan_requests(
    requests: int, fault_rate: float, seed: int, breaker_block: bool
) -> List[Dict[str, Any]]:
    """The deterministic request schedule for one storm.

    With ``breaker_block`` the schedule opens with one fingerprint hit by
    ``breaker_threshold`` consecutive fatal faults followed by clean
    requests on the same source — the storm can then assert the breaker
    opened and that breaker-open service is degraded with checks intact.
    """
    rng = random.Random(seed)
    plan: List[Dict[str, Any]] = []
    if breaker_block and requests >= 8:
        block_source = _template_sum_loop(9)
        for _ in range(3):
            plan.append(
                {"source": block_source, "expect": "ok", "chaos": "worker-crash"}
            )
        for _ in range(3):
            plan.append({"source": block_source, "expect": "ok"})
    while len(plan) < requests:
        request = _instantiate(rng)
        if rng.random() < fault_rate:
            request["chaos"] = rng.choice(sorted(CHAOS_FAULTS))
        plan.append(request)
    return plan[:requests]


def _fault_counts(requests: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """How many requests of a plan name each chaos fault."""
    return dict(Counter(r["chaos"] for r in requests if r.get("chaos")))


def run_storm(
    requests: int = 200,
    fault_rate: float = 0.1,
    seed: int = 0,
    workers: int = 2,
    deadline: float = 3.0,
    config: Optional[ServeConfig] = None,
    breaker_block: bool = True,
    progress=None,
) -> StormResult:
    """Storm the service and verify every response against ground truth."""
    plan = _plan_requests(requests, fault_rate, seed, breaker_block)
    result = StormResult(
        requests=requests,
        seed=seed,
        fault_rate=fault_rate,
        injected_faults=_fault_counts(plan),
    )
    baseline_cache: Dict[str, Dict[str, Any]] = {}
    if config is None:
        config = storm_config(workers=workers, deadline=deadline)

    supervisor, vclock = _virtual_supervisor(config)
    with _serving(result, supervisor):
        for position, request, response, latency in _closed_loop(
            result, supervisor, enumerate(plan), "storm",
            clock=vclock.now, progress=progress,
        ):
            result.responses += 1
            result.latencies.append(latency)
            result.tally(_verify_response(
                result.violations, position, request, response, baseline_cache
            ))

    if breaker_block and requests >= 8:
        if not supervisor.stats.counters.get("serve.breaker-opened"):
            result.violations.append("breaker block never opened a circuit breaker")
        if result.breaker_open_served == 0:
            result.violations.append("no request was served through an open breaker")

    result.counters = dict(supervisor.stats.counters)
    return result


# ----------------------------------------------------------------------
# The burst storm: open-loop overload at a multiple of measured capacity.
#
# Phase A calibrates the (virtual) service time on clean requests.
# Phase B pours a seeded open-loop arrival schedule at ``burst_multiple``
# times the measured service rate — with process faults and client
# deadlines in the mix — through admission control and the degradation
# ladder, then polls the drained service back down to level 0.  Phase C
# replays the *same* schedule against an unbounded-queue baseline
# (``overload_enabled=False``) and the verdict compares the two p99
# admission-to-response latencies.  Open-loop is the point: arrivals do
# not slow down because the service is slow, which is exactly the load
# shape that collapses an unbounded queue.
# ----------------------------------------------------------------------


@dataclass
class BurstStormResult(StormReport):
    """Verdict of one :func:`run_burst_storm`."""

    fault_rate: float = 0.0
    burst_multiple: float = 0.0
    min_p99_improvement: float = 5.0
    #: Calibrated virtual service time per request (phase A).
    service_time: float = 0.0
    # Phase B (overload leg).
    optimized: int = 0
    degraded: int = 0
    errors: int = 0
    shed: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    deadline_attached: int = 0
    injected_faults: Dict[str, int] = field(default_factory=dict)
    max_level: int = 0
    final_level: int = 0
    transitions: int = 0
    queue_depth_peak: int = 0
    queue_capacity: int = 0
    recovery_virtual_seconds: float = 0.0
    overload_latency: Dict[str, Any] = field(default_factory=dict)
    # Phase C (unbounded-queue baseline under the same schedule).
    baseline_responses: int = 0
    baseline_latency: Dict[str, Any] = field(default_factory=dict)
    p99_improvement: float = 0.0

    title = "burst storm"
    derived = ("lost", "baseline_lost", "passed")

    @property
    def baseline_lost(self) -> int:
        return self.requests - self.baseline_responses

    @property
    def passed(self) -> bool:
        return (
            super().passed
            and self.baseline_lost == 0
            and self.shed > 0
            and self.max_level >= LEVEL_UNOPTIMIZED
            and self.final_level == LEVEL_FULL
            and self.p99_improvement >= self.min_p99_improvement
        )


def burst_storm_config(
    workers: int = 2, deadline: float = 3.0, queue_capacity: int = 32
) -> ServeConfig:
    """The overload leg's :class:`ServeConfig`.

    Watermarks are expressed in service ticks so the ladder's geometry
    is invariant under the calibration: level 1 at 4 ticks of queueing,
    level 2 at 20, level 3 at 60 — with ``queue_capacity`` ticks the
    worst admissible wait, a sustained 4× burst provably climbs past
    level 2.  The window is short (2 virtual seconds) so the storm can
    watch full recovery without simulating minutes.
    """
    config = storm_config(workers=workers, deadline=deadline)
    config.queue_capacity = queue_capacity
    config.overload_watermarks = tuple(n * SERVICE_TICK for n in (4, 20, 60))
    config.overload_window = 2.0
    return config


def _plan_burst(
    requests: int,
    fault_rate: float,
    seed: int,
    mean_interarrival: float,
) -> List[Dict[str, Any]]:
    """The seeded open-loop arrival schedule (due time, frame, oracle)."""
    rng = random.Random(seed ^ 0xB0B5)
    plan: List[Dict[str, Any]] = []
    due = 0.0
    for position in range(requests):
        due += rng.uniform(0.5, 1.5) * mean_interarrival
        request = _instantiate(rng)
        if rng.random() < fault_rate:
            request["chaos"] = rng.choice(sorted(CHAOS_FAULTS))
        if rng.random() < 0.3:
            # A slice of callers with real patience budgets (virtual ms):
            # deep queueing must shed these, not serve them post-mortem.
            request["deadline_ms"] = rng.randrange(200, 2001)
        plan.append({
            "due": round(due, 6),
            "frame": _frame("burst", position, request),
            "request": request,
        })
    return plan


def _drive_open_loop(
    report: StormReport,
    supervisor: Supervisor,
    vclock: VirtualClock,
    plan: List[Dict[str, Any]],
    leg: str,
) -> List[Tuple[Dict[str, Any], Dict[str, Any], float]]:
    """Pour the schedule open-loop; returns the completions.

    Arrivals are submitted the moment simulated time reaches their due
    time — timestamped with the *due* time, so queueing that happened
    while the supervisor was busy serving counts against latency — and
    the queue is served one request per iteration.  Every schedule item
    must come back exactly once; duplicates and leftovers are violations,
    and an exception escaping the supervisor is supervisor death.
    """
    completed: List[Tuple[Dict[str, Any], Dict[str, Any], float]] = []
    arrivals: Dict[Any, Dict[str, Any]] = {}

    def finish(request_id: Any, response: Dict[str, Any]) -> None:
        item = arrivals.pop(request_id, None)
        if item is None:
            report.violations.append(
                f"{leg}: duplicate or unknown response id {request_id!r}"
            )
            return
        latency = round(vclock.now() - item["due"], 6)
        completed.append((item, response, latency))

    index = 0
    try:
        while index < len(plan) or supervisor.pending():
            now = vclock.now()
            while index < len(plan) and plan[index]["due"] <= now:
                item = plan[index]
                index += 1
                frame = dict(item["frame"])
                arrivals[frame["id"]] = item
                immediate = supervisor.submit(frame, arrived_at=item["due"])
                if immediate is not None:
                    finish(frame["id"], immediate)
            if supervisor.pending():
                for frame, response in supervisor.process_one():
                    finish(frame["id"], response)
            elif index < len(plan):
                vclock.advance(plan[index]["due"] - now)
    except Exception as exc:  # supervisor death — the cardinal sin
        report.supervisor_alive = False
        report.violations.append(
            f"{leg}: supervisor died: {type(exc).__name__}: {exc}"
        )
        return completed
    for request_id in sorted(arrivals, key=str):
        report.violations.append(f"{leg}: request {request_id!r} got no response")
    return completed


def run_burst_storm(
    requests: int = 500,
    burst_multiple: float = 4.0,
    fault_rate: float = 0.05,
    seed: int = 0,
    workers: int = 2,
    deadline: float = 3.0,
    queue_capacity: int = 32,
    min_p99_improvement: float = 5.0,
    calibration_requests: int = 10,
    progress=None,
) -> BurstStormResult:
    """Overload the service open-loop and prove the brown-out contract:
    zero lost requests, correct non-shed answers, a ladder that climbs
    and fully recovers, and a p99 bounded against the unbounded-queue
    baseline under the identical schedule."""
    result = BurstStormResult(
        requests=requests,
        seed=seed,
        fault_rate=fault_rate,
        burst_multiple=burst_multiple,
        min_p99_improvement=min_p99_improvement,
        queue_capacity=queue_capacity,
    )
    baseline_cache: Dict[str, Dict[str, Any]] = {}

    # Phase A: calibrate the virtual service time on clean requests.
    calibration = [
        {"source": _template_sum_loop(4 + position % 5)}
        for position in range(max(1, calibration_requests))
    ]
    supervisor, vclock = _virtual_supervisor(
        burst_storm_config(workers, deadline, queue_capacity)
    )
    with _serving(result, supervisor, "calibration "):
        for _ in _closed_loop(
            result, supervisor, enumerate(calibration), "calibrate", "calibration "
        ):
            pass
    service_time = vclock.now() / len(calibration)
    result.service_time = round(service_time, 6)
    if service_time <= 0:
        result.violations.append("calibration measured a zero service time")
    if result.violations:
        return result

    mean_interarrival = service_time / max(1.0, burst_multiple)
    plan = _plan_burst(requests, fault_rate, seed, mean_interarrival)
    result.injected_faults = _fault_counts(item["request"] for item in plan)
    result.deadline_attached = sum(
        1 for item in plan if item["request"].get("deadline_ms")
    )

    # Phase B: the overload leg.
    config = burst_storm_config(workers, deadline, queue_capacity)
    supervisor, vclock = _virtual_supervisor(config)
    latencies: List[float] = []
    with _serving(result, supervisor):
        completed = _drive_open_loop(result, supervisor, vclock, plan, "overload")
        for position, (item, response, latency) in enumerate(completed):
            result.responses += 1
            latencies.append(latency)
            classes = _verify_response(
                result.violations, position, item["request"], response,
                baseline_cache, "overload ",
            )
            result.tally(classes)
            if "shed" in classes:
                if response.get("reason") == "queue-full":
                    result.shed_queue_full += 1
                elif response.get("reason") == "deadline-expired":
                    result.shed_deadline += 1
            if progress is not None:
                progress(position, response)
        # Drained: poll the ladder back down to level 0 on elapsed
        # virtual time alone (recovery is window-gated, one step each).
        result.max_level = supervisor.overload.ladder.max_level
        recovery_started = vclock.now()
        polls = 0
        while (
            supervisor.overload.level(vclock.now()) > LEVEL_FULL and polls < 64
        ):
            vclock.advance(config.overload_window / 2)
            polls += 1
        result.final_level = supervisor.overload.level(vclock.now())
        result.recovery_virtual_seconds = round(vclock.now() - recovery_started, 6)
        result.transitions = supervisor.overload.ladder.transitions
        result.queue_depth_peak = supervisor.stats.counters.get(
            "serve.overload.queue-depth_peak", 0
        )
        if result.queue_depth_peak > queue_capacity:
            result.violations.append(
                f"queue depth {result.queue_depth_peak} exceeded the "
                f"{queue_capacity} capacity bound"
            )
        result.counters = dict(supervisor.stats.counters)
    result.overload_latency = latency_summary(latencies)
    if not result.supervisor_alive:
        return result

    # Phase C: the unbounded-queue baseline — the same schedule with
    # overload control off (nothing shed, nothing expired, every request
    # queued and served).
    config = burst_storm_config(workers, deadline, queue_capacity)
    config.overload_enabled = False
    supervisor, vclock = _virtual_supervisor(config)
    baseline_latencies: List[float] = []
    with _serving(result, supervisor, "baseline "):
        completed = _drive_open_loop(result, supervisor, vclock, plan, "baseline")
        for position, (item, response, latency) in enumerate(completed):
            result.baseline_responses += 1
            baseline_latencies.append(latency)
            classes = _verify_response(
                result.violations, position, item["request"], response,
                baseline_cache, "baseline ",
            )
            if "shed" in classes:
                result.violations.append(
                    f"baseline request {position} was shed with overload "
                    "control disabled"
                )
    result.baseline_latency = latency_summary(baseline_latencies)

    overload_p99 = result.overload_latency.get("p99", 0.0)
    baseline_p99 = result.baseline_latency.get("p99", 0.0)
    if overload_p99 > 0:
        result.p99_improvement = round(baseline_p99 / overload_p99, 6)
    return result


# ----------------------------------------------------------------------
# The corruption storm: the chaos storm's disk-durability sibling.
#
# Phase A (cold) storms a cache-enabled service while, between requests,
# a seeded adversary corrupts committed entries at rest (every at-rest
# fault in DISK_FAULTS, forged certificates included) and SIGKILLs random
# workers.  It runs in two halves around a supervisor restart over a
# planted half-written temporary (a killed writer).  Every response is
# verified against the checked baseline — a corrupted or forged entry
# must never influence an answer; it must quarantine and fall back to a
# fresh compile.  Phase B restarts the supervisor warm on the surviving
# store and replays the pool with no faults: hits must be plentiful and,
# sampled per source, byte-identical to a fresh certified compile.
# ----------------------------------------------------------------------


@dataclass
class CorruptionStormResult(StormReport):
    """Verdict of one :func:`run_corruption_storm`."""

    disk_fault_rate: float = 0.0
    min_warm_hit_rate: float = 0.5
    # Phase A (cold, faulted).
    stored: int = 0
    cold_hits: int = 0
    injected_disk_faults: Dict[str, int] = field(default_factory=dict)
    worker_kills: int = 0
    supervisor_restarts: int = 0
    recovered_tmp: int = 0
    # Post-phase-A verify: the first pass quarantines what the adversary
    # corrupted but nobody re-requested; the second must find nothing.
    verify_quarantined: int = 0
    verify_rejections: int = 0
    # Phase B (warm, clean).
    warm_requests: int = 0
    warm_responses: int = 0
    warm_hits: int = 0
    byte_identical_checked: int = 0
    invariant_violations: int = 0

    title = "corruption storm"
    derived = ("lost", "warm_hit_rate", "passed")

    @property
    def lost(self) -> int:
        return super().lost + (self.warm_requests - self.warm_responses)

    @property
    def warm_hit_rate(self) -> float:
        return self.warm_hits / self.warm_requests if self.warm_requests else 0.0

    @property
    def passed(self) -> bool:
        return (
            super().passed
            and self.verify_rejections == 0
            and self.invariant_violations == 0
            and self.warm_hit_rate >= self.min_warm_hit_rate
        )

    def to_json(self) -> Dict[str, Any]:
        payload = super().to_json()
        payload["warm_hit_rate"] = round(self.warm_hit_rate, 3)
        return payload


def _corruption_pool(seed: int) -> List[Dict[str, Any]]:
    """A small fixed pool of sources so the warm phase can actually hit.

    Every source is deterministic per seed; the trap and off-by-one
    templates keep runtime traps in the mix (a cached entry must
    reproduce the trap identity exactly, not just return values).
    """
    rng = random.Random(seed ^ 0x5EED)
    pool: List[Dict[str, Any]] = []
    for n in sorted(rng.sample(range(3, 14), 5)):
        pool.append({"source": _template_sum_loop(n), "expect": "ok"})
    for _ in range(3):
        n = rng.randrange(2, 8)
        pool.append({"source": _template_trap(n, rng.randrange(0, n + 3)), "expect": "ok"})
    for n in sorted(rng.sample(range(2, 9), 2)):
        pool.append({"source": _template_off_by_one(n), "expect": "ok"})
    pool.append({"source": _USER_ERROR_SOURCE, "expect": "error"})
    return pool


def _corrupt_random_entry(store, rng: random.Random, result: CorruptionStormResult):
    """Apply one random at-rest disk fault to one random committed entry."""
    from repro.robustness.faults import CORRUPTING_DISK_FAULTS, DISK_FAULTS

    fingerprints = list(store.iter_fingerprints())
    if not fingerprints:
        return
    fingerprint = rng.choice(fingerprints)
    name = rng.choice(sorted(CORRUPTING_DISK_FAULTS))
    try:
        DISK_FAULTS[name].corrupt(store.entry_path(fingerprint))
    except Exception:
        # Entry raced away, or an envelope-rewriting fault landed on an
        # entry already mangled by an earlier one — either way the bytes
        # are bad, which is the point.
        return
    result.injected_disk_faults[name] = result.injected_disk_faults.get(name, 0) + 1


def _kill_random_worker(supervisor: Supervisor, rng: random.Random) -> bool:
    """SIGKILL one live worker outright (no shutdown frame, no drain)."""
    live = [w for w in supervisor.pool if w.alive()]
    if not live:
        return False
    try:
        os.kill(rng.choice(live).pid, signal.SIGKILL)
    except OSError:
        return False
    return True


def _fresh_certified_ir(source: str) -> str:
    """Ground truth for byte-identity: a fresh certified compile's final
    IR text, exactly what a passing store load must reproduce."""
    from repro.ir.printer import format_program
    from repro.passes.session import CompilationSession
    from repro.store.service import certifying_config

    session = CompilationSession(config=certifying_config(None))
    program = session.compile(source, standard_opts=True)
    session.optimize(program)
    return format_program(program)


def run_corruption_storm(
    requests: int = 200,
    disk_fault_rate: float = 0.1,
    kill_rate: float = 0.05,
    seed: int = 0,
    workers: int = 2,
    deadline: float = 3.0,
    cache_dir: Optional[str] = None,
    min_warm_hit_rate: float = 0.5,
    byte_identity_samples: int = 4,
    progress=None,
) -> CorruptionStormResult:
    """Storm a cache-enabled service under disk corruption and kills.

    Asserts the store's hard guarantees end to end: zero lost requests,
    zero responses influenced by corrupted or forged entries (every
    response matches the checked baseline), the "no load without a
    passing re-check" invariant, a clean post-storm ``verify``, and a
    warm restart that actually hits with byte-identical optimized IR.
    """
    import tempfile

    from repro.core.abcd import ABCDConfig

    result = CorruptionStormResult(
        requests=requests,
        seed=seed,
        disk_fault_rate=disk_fault_rate,
        min_warm_hit_rate=min_warm_hit_rate,
    )
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-corruption-storm-")
    rng = random.Random(seed)
    pool = _corruption_pool(seed)
    plan = list(enumerate(rng.choice(pool) for _ in range(requests)))
    baseline_cache: Dict[str, Dict[str, Any]] = {}

    def fresh_supervisor() -> Supervisor:
        # Disk faults only: process chaos has its own storm.
        config = storm_config(workers=workers, deadline=deadline)
        config.cache_dir = cache_dir
        config.chaos = False
        return Supervisor(config=config)

    def fold_counters(counters: Dict[str, int], prefix: str = "") -> None:
        for name, value in counters.items():
            key = prefix + name
            result.counters[key] = result.counters.get(key, 0) + value

    def check(phase: str, position: int, request, response) -> None:
        _verify_response(
            result.violations, position, request, response, baseline_cache,
            f"{phase} ",
        )
        if response.get("cache") == "hit" and phase == "cold":
            result.cold_hits += 1
        elif response.get("cache") == "hit":
            result.warm_hits += 1
        elif response.get("cache") == "miss-stored":
            result.stored += 1

    def serve_cold(cold: Supervisor, half) -> None:
        def adversary(position: int) -> None:
            if cold.store is not None and rng.random() < disk_fault_rate:
                _corrupt_random_entry(cold.store, rng, result)
            if rng.random() < kill_rate and _kill_random_worker(cold, rng):
                result.worker_kills += 1

        for position, request, response, _ in _closed_loop(
            result, cold, half, "corrupt", "cold ",
            before=adversary, progress=progress,
        ):
            result.responses += 1
            check("cold", position, request, response)

    # Phase A, first half.
    restart_at = requests // 2
    with _serving(result, fresh_supervisor(), "cold ") as cold:
        serve_cold(cold, plan[:restart_at])
    fold_counters(cold.stats.counters)
    if not result.supervisor_alive:
        return result
    if cold.store is not None:
        # The restart: plant a half-written temp (a writer SIGKILLed
        # mid-put) in the drained store; recovery on start must clean the
        # stray before the next request.
        (cold.store.tmp_dir / "killed-writer.tmp").write_bytes(b'{"fingerprint":"dead')

    # Phase A, second half, then the post-storm verify: pass 1
    # quarantines entries the adversary corrupted after their last read;
    # pass 2 must find a clean store.
    with _serving(result, fresh_supervisor(), "cold ") as cold:
        result.supervisor_restarts += 1
        if cold.store is not None:
            result.recovered_tmp = cold.store.counters.get("store.recovered_tmp", 0)
            if result.recovered_tmp == 0:
                result.violations.append(
                    "restart: recovery scan missed the planted temp"
                )
        serve_cold(cold, plan[restart_at:])
        if cold.store is not None:
            first = cold.store.verify_all(ABCDConfig())
            result.verify_quarantined = sum(1 for v in first if not v.hit)
            second = cold.store.verify_all(ABCDConfig())
            result.verify_rejections = sum(1 for v in second if not v.hit)
            result.invariant_violations += cold.store.invariant_violations()
    fold_counters(cold.stats.counters)
    if not result.supervisor_alive:
        return result

    # Phase B: warm restart, no faults — the store must carry its weight.
    warm_plan = [rng.choice(pool) for _ in range(max(1, requests // 2))]
    result.warm_requests = len(warm_plan)
    with _serving(result, fresh_supervisor(), "warm ") as warm:
        for position, request, response, _ in _closed_loop(
            result, warm, enumerate(warm_plan), "warm", "warm "
        ):
            result.warm_responses += 1
            check("warm", position, request, response)
        # Sampled byte-identity: a warm hit's stored IR must equal a fresh
        # certified compile of the same source, byte for byte.
        if warm.store is not None:
            from repro.store.fingerprint import store_fingerprint

            sampled = 0
            for request in pool:
                if sampled >= byte_identity_samples or request["expect"] != "ok":
                    continue
                source = request["source"]
                fingerprint = store_fingerprint(source, ABCDConfig())
                loaded = warm.store.load(fingerprint, ABCDConfig())
                if not loaded.hit:
                    continue
                sampled += 1
                if loaded.ir_text != _fresh_certified_ir(source):
                    result.violations.append(
                        "warm hit IR diverges from fresh certified compile "
                        f"for fingerprint {fingerprint[:12]}"
                    )
            result.byte_identical_checked = sampled
            result.invariant_violations += warm.store.invariant_violations()
    fold_counters(warm.stats.counters, "warm.")
    return result
