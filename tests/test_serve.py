"""Tests for the crash-isolated compile service (``src/repro/serve/``).

Covers the protocol layer, the circuit-breaker state machine (driven by
a fake clock), supervisor end-to-end service through real worker
subprocesses, containment of every registered process-level chaos fault,
the crash-recovery property (random SIGKILLs mid-request never lose a
request), and the degradation guarantee (a degraded response is
byte-identical — outcome *and* dynamic counters — to the unoptimized
reference interpreter).
"""

from __future__ import annotations

import io
import os
import random
import signal
import threading
import time

import pytest

from repro.robustness.faults import CHAOS_FAULTS, FATAL_CHAOS_FAULTS
from repro.serve import protocol
from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    function_fingerprint,
)
from repro.serve.supervisor import ServeConfig, Supervisor

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="the compile service requires POSIX pipes/signals"
)


SUM_SOURCE = """
fn main(): int {
  let a: int[] = new int[8];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i;
    s = s + a[i];
  }
  return s;
}
"""

#: About 500k instructions once optimized (600k unoptimized).
LONG_LOOP_SOURCE = """
fn main(): int {
  let s: int = 0;
  for (let i: int = 0; i < 50000; i = i + 1) { s = s + i % 7; }
  return s;
}
"""
LONG_LOOP_VALUE = sum(i % 7 for i in range(50000))

TRAP_SOURCE = """
fn main(): int {
  let a: int[] = new int[4];
  let j: int = 6;
  return a[j];
}
"""

OFF_BY_ONE_SOURCE = """
fn main(): int {
  let a: int[] = new int[5];
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

TYPE_ERROR_SOURCE = """
fn main(): int {
  let a: int[] = new int[4];
  return a + 1;
}
"""


def fast_config(**overrides) -> ServeConfig:
    """Small deadlines/backoffs so failure paths resolve quickly."""
    defaults = dict(
        workers=2,
        deadline=5.0,
        mem_mb=512,
        retries=1,
        backoff_base=0.001,
        backoff_cap=0.01,
        recycle_after=0,
        breaker_threshold=3,
        breaker_cooldown=300.0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture
def supervisor():
    sup = Supervisor(config=fast_config())
    yield sup
    sup.shutdown()


def degraded_baseline(source: str, fn: str = "main", args=()):
    """The unoptimized reference: same compile path a degraded worker runs."""
    from repro.serve import worker as worker_module

    return worker_module._serve_request(
        {"op": "run", "id": "ref", "source": source, "fn": fn,
         "args": list(args), "mode": "degraded"},
        None, False, 0,
    )


# ----------------------------------------------------------------------
# Protocol.
# ----------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip_is_byte_stable(self):
        payload = {"op": "run", "id": "r1", "args": [1, 2], "source": "x"}
        once = protocol.encode_frame(payload)
        again = protocol.encode_frame(protocol.decode_frame(once))
        assert once == again
        assert once.endswith(b"\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"\x00\xffnot json{{{")

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"[1, 2, 3]")

    def test_decode_rejects_oversized(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b" " * (protocol.MAX_FRAME_BYTES + 1))

    def test_validate_request_unknown_op(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request({"op": "explode"})

    def test_validate_request_requires_source(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request({"op": "run"})

    def test_validate_request_rejects_bool_args(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request(
                {"op": "run", "source": "x", "args": [True]}
            )

    def test_validate_request_defaults(self):
        frame = protocol.validate_request({"op": "run", "source": "x"})
        assert frame["fn"] == "main"
        assert frame["args"] == []

    def test_validate_worker_response_id_mismatch(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_worker_response(
                {"status": "ok", "id": "other"}, "mine"
            )

    def test_validate_worker_response_unknown_status(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_worker_response(
                {"status": "confused", "id": "r"}, "r"
            )


# ----------------------------------------------------------------------
# Circuit breaker (fake clock — no sleeping).
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=2, cooldown=10.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=threshold,
            cooldown=cooldown,
            clock=lambda: clock["now"],
        )
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=2)
        assert breaker.allow_optimized("fp")
        assert not breaker.record_failure("fp")
        assert breaker.state_of("fp").state == CLOSED
        assert breaker.record_failure("fp")
        assert breaker.state_of("fp").state == OPEN
        assert not breaker.allow_optimized("fp")

    def test_success_resets_the_streak(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure("fp")
        breaker.record_success("fp")
        assert not breaker.record_failure("fp")
        assert breaker.state_of("fp").state == CLOSED

    def test_half_open_probe_after_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure("fp")
        assert not breaker.allow_optimized("fp")
        clock["now"] = 10.1
        # Exactly one probe is admitted; concurrent requests stay degraded.
        assert breaker.allow_optimized("fp")
        assert breaker.state_of("fp").state == HALF_OPEN
        assert not breaker.allow_optimized("fp")

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure("fp")
        clock["now"] = 10.1
        assert breaker.allow_optimized("fp")
        breaker.record_success("fp")
        assert breaker.state_of("fp").state == CLOSED
        assert breaker.allow_optimized("fp")

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker, clock = self.make(threshold=5, cooldown=10.0)
        for _ in range(5):
            breaker.record_failure("fp")
        clock["now"] = 10.1
        assert breaker.allow_optimized("fp")
        # A single probe failure re-opens regardless of the threshold.
        assert breaker.record_failure("fp")
        assert breaker.state_of("fp").state == OPEN
        clock["now"] = 15.0
        assert not breaker.allow_optimized("fp")
        clock["now"] = 20.3
        assert breaker.allow_optimized("fp")

    def test_fingerprints_are_independent(self):
        breaker, _ = self.make(threshold=1)
        breaker.record_failure("a")
        assert not breaker.allow_optimized("a")
        assert breaker.allow_optimized("b")
        assert breaker.open_fingerprints() == ["a"]

    def test_fingerprint_depends_on_source_and_fn(self):
        assert function_fingerprint("x", "main") != function_fingerprint("y", "main")
        assert function_fingerprint("x", "main") != function_fingerprint("x", "aux")
        assert function_fingerprint("x", "main") == function_fingerprint("x", "main")


# ----------------------------------------------------------------------
# Supervisor end-to-end (real worker subprocesses).
# ----------------------------------------------------------------------


class TestSupervisorService:
    def test_optimized_run(self, supervisor):
        response = supervisor.handle_request({"op": "run", "source": SUM_SOURCE})
        assert response["status"] == "ok"
        assert response["mode"] == "optimized"
        assert response["value"] == 28
        assert response["trap"] is None
        assert response["report"]["eliminated"] > 0
        assert response["gate_reverted"] is False

    def test_trap_preserved_through_optimization(self, supervisor):
        response = supervisor.handle_request({"op": "run", "source": TRAP_SOURCE})
        baseline = degraded_baseline(TRAP_SOURCE)
        assert response["status"] == "ok"
        assert response["trap"] == "BoundsCheckError"
        for field in ("trap", "kind", "index", "length", "check_id"):
            assert response[field] == baseline[field]

    def test_compile_only(self, supervisor):
        response = supervisor.handle_request(
            {"op": "compile", "source": SUM_SOURCE}
        )
        assert response["status"] == "ok"
        assert response["report"]["analyzed"] > 0
        assert "value" not in response

    def test_user_error_is_terminal_not_retried(self, supervisor):
        response = supervisor.handle_request(
            {"op": "run", "source": TYPE_ERROR_SOURCE}
        )
        assert response["status"] == "error"
        assert response["error"] == "TypeCheckError"
        assert supervisor.stats.counters.get("serve.retried", 0) == 0
        # A deterministic user error says nothing about optimizer health.
        fingerprint = function_fingerprint(TYPE_ERROR_SOURCE, "main")
        assert supervisor.breaker.state_of(fingerprint).total_failures == 0

    def test_args_are_forwarded(self, supervisor):
        source = """
fn main(x: int, y: int): int {
  return x * 10 + y;
}
"""
        response = supervisor.handle_request(
            {"op": "run", "source": source, "args": [4, 2]}
        )
        assert response["status"] == "ok"
        assert response["value"] == 42

    def test_status_request(self, supervisor):
        supervisor.handle_request({"op": "run", "source": SUM_SOURCE})
        status = supervisor.handle_request({"op": "status"})
        assert status["op"] == "status"
        assert status["counters"]["serve.optimized"] == 1
        assert status["counters"]["serve.requests"] == 2
        assert len(status["workers"]) == supervisor.config.workers
        assert all(worker["alive"] for worker in status["workers"])

    def test_malformed_request_is_answered_not_fatal(self, supervisor):
        response = supervisor.handle_request({"op": "run"})  # no source
        assert response["status"] == "error"
        assert response["error"] == "ProtocolError"
        response = supervisor.handle_request({"op": "teleport"})
        assert response["status"] == "error"
        # The service still works afterwards.
        ok = supervisor.handle_request({"op": "run", "source": SUM_SOURCE})
        assert ok["status"] == "ok"

    def test_worker_recycled_after_quota(self):
        sup = Supervisor(config=fast_config(workers=1, recycle_after=2))
        try:
            for _ in range(5):
                response = sup.handle_request(
                    {"op": "run", "source": SUM_SOURCE}
                )
                assert response["status"] == "ok"
            assert sup.stats.counters.get("serve.recycled", 0) >= 2
            # The replacement pool is healthy.
            assert all(worker.alive() for worker in sup.pool)
        finally:
            sup.shutdown()


# ----------------------------------------------------------------------
# Chaos fault containment: every registered process-level fault.
# ----------------------------------------------------------------------


class TestChaosFaultContainment:
    @pytest.fixture
    def chaos_supervisor(self):
        sup = Supervisor(
            config=fast_config(
                deadline=2.0,
                retries=0,
                breaker_threshold=100,  # isolate: no breaker interference
                chaos={"rate": 0.0, "seed": 0},
            )
        )
        yield sup
        sup.shutdown()

    @pytest.mark.parametrize("fault", sorted(CHAOS_FAULTS))
    def test_fault_contained(self, chaos_supervisor, fault):
        response = chaos_supervisor.handle_request(
            {"op": "run", "source": SUM_SOURCE, "chaos": fault}
        )
        assert response["status"] == "ok"
        assert response["value"] == 28
        if fault in FATAL_CHAOS_FAULTS:
            # The optimized path cannot survive the fault; service must
            # degrade — with the full dynamic check load intact.
            assert response["mode"] == "degraded"
            baseline = degraded_baseline(SUM_SOURCE)
            assert response["checks"] == baseline["checks"]
            assert response["checks"]["total"] > 0
        else:
            # Benign faults (slow-response) answer correctly in time.
            assert response["mode"] == "optimized"

    def test_chaos_field_ignored_without_chaos_env(self, supervisor):
        """A production server (no chaos config) must not let clients
        fault-inject workers through the request field."""
        response = supervisor.handle_request(
            {"op": "run", "source": SUM_SOURCE, "chaos": "worker-crash"}
        )
        assert response["status"] == "ok"
        assert response["mode"] == "optimized"


# ----------------------------------------------------------------------
# Crash recovery property: random SIGKILLs never lose a request.
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_random_sigkill_mid_request_never_loses_a_request(self):
        """SIGKILL workers at random moments from outside while requests
        flow; every request must still be answered correctly (optimized
        or degraded — never lost, never wrong)."""
        sup = Supervisor(config=fast_config(workers=2, deadline=5.0, retries=1))
        sup.start()
        rng = random.Random(1234)
        stop = threading.Event()

        def killer():
            while not stop.is_set():
                stop.wait(rng.uniform(0.0, 0.03))
                for worker in list(sup.pool):
                    if rng.random() < 0.5:
                        try:
                            os.kill(worker.pid, signal.SIGKILL)
                        except (ProcessLookupError, OSError):
                            pass

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        cases = [
            (SUM_SOURCE, None),
            (TRAP_SOURCE, "BoundsCheckError"),
            (OFF_BY_ONE_SOURCE, "BoundsCheckError"),
        ]
        try:
            for index in range(24):
                source, expected_trap = cases[index % len(cases)]
                response = sup.handle_request({"op": "run", "source": source})
                assert response["status"] == "ok", response
                assert response["mode"] in ("optimized", "degraded"), response
                baseline = degraded_baseline(source)
                assert response["trap"] == baseline["trap"] == expected_trap
                assert response["value"] == baseline["value"]
                if response["trap"] is not None:
                    assert response["index"] == baseline["index"]
                    assert response["length"] == baseline["length"]
        finally:
            stop.set()
            thread.join(timeout=5)
            sup.shutdown()

    def test_degraded_response_byte_identical_to_unoptimized_interpreter(self):
        """The degradation guarantee: a degraded response reproduces the
        unoptimized interpreter exactly — value/trap identity *and* the
        dynamic check/instruction counters (checks intact)."""
        from repro.passes.session import CompilationSession
        from repro.runtime.interpreter import Interpreter

        sup = Supervisor(config=fast_config(workers=1))
        try:
            for source in (SUM_SOURCE, TRAP_SOURCE, OFF_BY_ONE_SOURCE):
                response = sup.handle_request(
                    {"op": "run", "source": source, "optimize": False}
                )
                assert response["status"] == "ok"
                assert response["mode"] == "degraded"

                program = CompilationSession().compile(source, standard_opts=False)
                interp = Interpreter(program, fuel=50_000_000)
                value = trap = None
                try:
                    value = interp.run("main", ()).value
                except Exception as exc:
                    trap = type(exc).__name__
                assert response["value"] == value
                assert response["trap"] == trap
                stats = interp.stats
                assert response["checks"] == {
                    "total": stats.total_checks,
                    "lower": stats.lower_checks,
                    "upper": stats.upper_checks,
                    "speculative": stats.speculative_checks,
                }
                assert response["instructions"] == stats.instructions
        finally:
            sup.shutdown()

    def test_inline_fallback_when_pool_cannot_be_sustained(self, monkeypatch):
        """When even degraded dispatch fails, the supervisor serves the
        request degraded in its own process — the absolute floor."""
        sup = Supervisor(config=fast_config(workers=1, retries=0))
        sup.start()
        try:
            from repro.serve import supervisor as supervisor_module

            def always_dead(self, frame, mode, attempt):
                return ("failure", "simulated: every worker is gone")

            monkeypatch.setattr(
                supervisor_module.Supervisor, "_dispatch", always_dead
            )
            response = sup.handle_request({"op": "run", "source": SUM_SOURCE})
            assert response["status"] == "ok"
            assert response["mode"] == "degraded"
            assert response["inline_fallback"] is True
            assert response["value"] == 28
            assert sup.stats.counters["serve.inline-fallback"] == 1
        finally:
            sup.shutdown()

    def test_inline_fallback_contains_a_handler_exception(self, monkeypatch):
        """An exception escaping the request handler in the inline
        fallback becomes one ``failure`` response, as it does in a
        worker; the supervisor lives on and answers the next request."""
        from repro.serve import supervisor as supervisor_module
        from repro.serve import worker as worker_module

        sup = Supervisor(config=fast_config(workers=1, retries=0))
        sup.start()
        original = worker_module._serve_request

        def raise_for_a(frame, *args):
            if frame["id"] == "a":
                raise ValueError("handler bug")
            return original(frame, *args)

        def always_dead(self, frame, mode, attempt):
            return ("failure", "simulated: every worker is gone")

        monkeypatch.setattr(supervisor_module.Supervisor, "_dispatch", always_dead)
        monkeypatch.setattr(worker_module, "_serve_request", raise_for_a)
        try:
            failed = sup.handle_request({"op": "run", "id": "a", "source": SUM_SOURCE})
            assert failed["status"] == "failure"
            assert failed["reason"] == "internal"
            assert failed["message"] == "ValueError: handler bug"
            assert failed["inline_fallback"] is True
            answered = sup.handle_request(
                {"op": "run", "id": "b", "source": SUM_SOURCE}
            )
            assert answered["status"] == "ok" and answered["value"] == 28
            assert sup.stats.counters["serve.failed"] == 1
        finally:
            sup.shutdown()


# ----------------------------------------------------------------------
# Breaker integration: failures open it, open means degraded service,
# cooldown admits a probe that closes it again.
# ----------------------------------------------------------------------


class TestBreakerIntegration:
    def test_breaker_opens_serves_degraded_then_probes_closed(self):
        clock = {"now": 0.0}
        sup = Supervisor(
            config=fast_config(
                workers=1,
                retries=0,
                breaker_threshold=2,
                breaker_cooldown=60.0,
                chaos={"rate": 0.0, "seed": 0},
            ),
            clock=lambda: clock["now"],
        )
        fingerprint = function_fingerprint(SUM_SOURCE, "main")
        try:
            # Two fatally-faulted requests exhaust their retries and open
            # the breaker.
            for _ in range(2):
                response = sup.handle_request(
                    {"op": "run", "source": SUM_SOURCE, "chaos": "worker-crash"}
                )
                assert response["status"] == "ok"
                assert response["mode"] == "degraded"
                assert response["degraded_reason"] == "retries-exhausted"
            assert sup.breaker.state_of(fingerprint).state == OPEN
            assert sup.stats.counters["serve.breaker-opened"] == 1

            # While open: no optimized attempt at all, served degraded
            # with the checked baseline's counters intact.
            before = sup.stats.counters.get("serve.worker-failures", 0)
            response = sup.handle_request({"op": "run", "source": SUM_SOURCE})
            assert response["mode"] == "degraded"
            assert response["degraded_reason"] == "breaker-open"
            assert response["checks"] == degraded_baseline(SUM_SOURCE)["checks"]
            assert sup.stats.counters.get("serve.worker-failures", 0) == before
            assert sup.stats.counters["serve.breaker-open"] == 1

            # After the cooldown the next request is a half-open probe;
            # it succeeds (no fault) and closes the breaker.  The jump
            # clears the worst-case jittered cooldown (60 * 1.1).
            clock["now"] = 67.0
            response = sup.handle_request({"op": "run", "source": SUM_SOURCE})
            assert response["mode"] == "optimized"
            assert sup.breaker.state_of(fingerprint).state == CLOSED
        finally:
            sup.shutdown()


# ----------------------------------------------------------------------
# Serve loop: NDJSON over stdio, drain semantics, telemetry.
# ----------------------------------------------------------------------


class TestServeStdio:
    def run_transcript(self, frames, config=None):
        infile = io.BytesIO(
            b"".join(protocol.encode_frame(frame) for frame in frames)
        )
        outfile = io.BytesIO()
        sup = Supervisor(config=config or fast_config(workers=1))
        telemetry = sup.serve_stdio(infile=infile, outfile=outfile)
        lines = [
            line for line in outfile.getvalue().split(b"\n") if line.strip()
        ]
        return [protocol.decode_frame(line) for line in lines], telemetry, sup

    def test_transcript_roundtrip(self):
        responses, telemetry, _ = self.run_transcript(
            [
                {"op": "run", "id": "a", "source": SUM_SOURCE},
                {"op": "run", "id": "b", "source": TRAP_SOURCE},
                {"op": "status", "id": "c"},
            ]
        )
        assert [response["id"] for response in responses] == ["a", "b", "c"]
        assert responses[0]["value"] == 28
        assert responses[1]["trap"] == "BoundsCheckError"
        assert responses[2]["op"] == "status"
        assert telemetry["counters"]["serve.requests"] == 3
        # The pool was drained on EOF.
        assert telemetry["workers"] == []

    def test_non_decimal_digit_is_a_user_error_not_a_crash(self):
        # ``'²'.isdigit()`` is true but ``int('²')`` raises: the lexer
        # must reject the character, not hand it to ``int``.
        responses, _, _ = self.run_transcript(
            [
                {"op": "run", "id": "a", "source": "fn main(): int { return ²; }"},
                {"op": "run", "id": "b", "source": "fn main(): int { return 7; }"},
            ]
        )
        assert [response["id"] for response in responses] == ["a", "b"]
        assert responses[0]["status"] == "error"
        assert responses[0]["error"] == "LexError"
        assert "unexpected character '²'" in responses[0]["message"]
        assert responses[1]["status"] == "ok" and responses[1]["value"] == 7

    def test_shutdown_op_stops_the_loop(self):
        responses, _, _ = self.run_transcript(
            [
                {"op": "run", "id": "a", "source": SUM_SOURCE},
                {"op": "shutdown", "id": "z"},
                {"op": "run", "id": "never", "source": SUM_SOURCE},
            ]
        )
        assert [response["id"] for response in responses] == ["a", "z"]

    def test_garbage_line_gets_error_response(self):
        infile = io.BytesIO(
            b"this is not json\n"
            + protocol.encode_frame({"op": "run", "id": "a", "source": SUM_SOURCE})
        )
        outfile = io.BytesIO()
        sup = Supervisor(config=fast_config(workers=1))
        sup.serve_stdio(infile=infile, outfile=outfile)
        lines = [
            protocol.decode_frame(line)
            for line in outfile.getvalue().split(b"\n")
            if line.strip()
        ]
        assert lines[0]["status"] == "error"
        assert lines[0]["error"] == "ProtocolError"
        assert lines[1]["id"] == "a"
        assert lines[1]["status"] == "ok"


# ----------------------------------------------------------------------
# The persistent certificate store behind the supervisor.
# ----------------------------------------------------------------------


class TestServeCache:
    def cached_supervisor(self, tmp_path, **overrides):
        config = fast_config(workers=1, cache_dir=str(tmp_path / "cache"))
        for name, value in overrides.items():
            setattr(config, name, value)
        return Supervisor(config=config)

    def test_miss_stores_then_hits(self, tmp_path):
        sup = self.cached_supervisor(tmp_path)
        try:
            first = sup.handle_request(
                {"op": "run", "id": "a", "source": SUM_SOURCE}
            )
            assert first["status"] == "ok" and first["value"] == 28
            assert first["cache"] == "miss-stored"
            second = sup.handle_request(
                {"op": "run", "id": "b", "source": SUM_SOURCE}
            )
            assert second["status"] == "ok" and second["value"] == 28
            assert second["cache"] == "hit"
            assert second["mode"] == "cached"
            status = sup.status_payload()
            assert status["cache"]["invariant_violations"] == 0
            assert status["counters"]["serve.cache.hits"] == 1
        finally:
            sup.shutdown()

    def test_hit_survives_supervisor_restart(self, tmp_path):
        sup = self.cached_supervisor(tmp_path)
        try:
            sup.handle_request({"op": "run", "id": "a", "source": SUM_SOURCE})
        finally:
            sup.shutdown()
        fresh = self.cached_supervisor(tmp_path)
        try:
            response = fresh.handle_request(
                {"op": "run", "id": "b", "source": SUM_SOURCE}
            )
            assert response["cache"] == "hit"
            assert response["value"] == 28
        finally:
            fresh.shutdown()

    def test_corrupted_entry_falls_back_to_fresh_compile(self, tmp_path):
        from repro.robustness.faults import DISK_FAULTS

        sup = self.cached_supervisor(tmp_path)
        try:
            sup.handle_request({"op": "run", "id": "a", "source": SUM_SOURCE})
            fingerprint = next(sup.store.iter_fingerprints())
            DISK_FAULTS["disk-flip-payload-byte"].corrupt(
                sup.store.entry_path(fingerprint)
            )
            response = sup.handle_request(
                {"op": "run", "id": "b", "source": SUM_SOURCE}
            )
            # Correct answer, not served from the corrupted entry.
            assert response["status"] == "ok" and response["value"] == 28
            assert response["cache"] != "hit"
            assert sup.store.counters.get("store.quarantined") == 1
            assert sup.store.invariant_violations() == 0
        finally:
            sup.shutdown()

    def test_compile_hit_is_answered_without_a_worker(self, tmp_path):
        sup = self.cached_supervisor(tmp_path)
        try:
            primed = sup.handle_request(
                {"op": "compile", "id": "a", "source": SUM_SOURCE}
            )
            assert primed["cache"] == "miss-stored"
            served = [worker.served for worker in sup.pool]
            hit = sup.handle_request(
                {"op": "compile", "id": "b", "source": SUM_SOURCE}
            )
            assert [worker.served for worker in sup.pool] == served
            assert hit["status"] == "ok"
            assert hit["mode"] == "cached" and hit["cache"] == "hit"
            assert hit["report"]["eliminated"] == primed["report"]["eliminated"] > 0
            assert "served" not in hit
            assert sup.store.invariant_violations() == 0
        finally:
            sup.shutdown()

    def test_run_hit_still_executes_in_a_worker(self, tmp_path):
        sup = self.cached_supervisor(tmp_path)
        try:
            sup.handle_request({"op": "compile", "id": "a", "source": SUM_SOURCE})
            served = sum(worker.served for worker in sup.pool)
            hit = sup.handle_request({"op": "run", "id": "b", "source": SUM_SOURCE})
            assert hit["cache"] == "hit" and hit["mode"] == "cached"
            assert hit["value"] == 28
            assert sum(worker.served for worker in sup.pool) == served + 1
            assert hit["served"] == served + 1
        finally:
            sup.shutdown()

    def test_corrupted_entry_compile_falls_back_to_fresh_compile(self, tmp_path):
        from repro.robustness.faults import DISK_FAULTS

        sup = self.cached_supervisor(tmp_path)
        try:
            primed = sup.handle_request(
                {"op": "compile", "id": "a", "source": SUM_SOURCE}
            )
            fingerprint = next(sup.store.iter_fingerprints())
            DISK_FAULTS["disk-flip-payload-byte"].corrupt(
                sup.store.entry_path(fingerprint)
            )
            response = sup.handle_request(
                {"op": "compile", "id": "b", "source": SUM_SOURCE}
            )
            assert response["status"] == "ok" and response["mode"] == "optimized"
            assert response["cache"] == "miss-stored"
            assert response["report"] == primed["report"]
            assert sup.store.counters.get("store.quarantined") == 1
            assert sup.store.invariant_violations() == 0
        finally:
            sup.shutdown()

    def test_trap_identity_preserved_through_cache(self, tmp_path):
        sup = self.cached_supervisor(tmp_path)
        try:
            cold = sup.handle_request(
                {"op": "run", "id": "a", "source": TRAP_SOURCE}
            )
            warm = sup.handle_request(
                {"op": "run", "id": "b", "source": TRAP_SOURCE}
            )
            for field in ("trap", "check_id", "index", "length", "kind"):
                assert warm.get(field) == cold.get(field)
        finally:
            sup.shutdown()

    def test_gate_reverted_results_are_not_cached(self, tmp_path):
        from repro.store.capture import StoreCapture

        capture = StoreCapture()
        capture.mark_uncacheable("differential gate reverted")
        assert capture.build_entry("ff" * 32, None) is None

    def test_unusable_cache_dir_degrades_to_no_caching(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_bytes(b"a file, not a directory")
        sup = Supervisor(
            config=fast_config(workers=1, cache_dir=str(blocker))
        )
        try:
            response = sup.handle_request(
                {"op": "run", "id": "a", "source": SUM_SOURCE}
            )
            assert response["status"] == "ok" and response["value"] == 28
            assert sup.store is None
            assert sup.stats.counters.get("serve.cache.disabled") == 1
        finally:
            sup.shutdown()


class TestBreakerPersistence:
    def test_round_trip_preserves_remaining_cooldown(self):
        now = [1000.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=30.0, clock=lambda: now[0]
        )
        assert breaker.record_failure("fp-open")
        now[0] += 10.0  # 20s of cooldown left
        snapshot = breaker.to_persist()

        later = [5.0]  # a fresh process: the monotonic clock restarted
        restored = CircuitBreaker(
            failure_threshold=1, cooldown=30.0, clock=lambda: later[0]
        )
        assert restored.restore(snapshot) == 1
        assert not restored.allow_optimized("fp-open")
        later[0] += 19.0
        assert not restored.allow_optimized("fp-open")
        later[0] += 2.0  # past the remaining 20s: half-open probe admitted
        assert restored.allow_optimized("fp-open")

    def test_restore_skips_malformed_items(self):
        breaker = CircuitBreaker()
        restored = breaker.restore(
            {
                "states": [
                    {"fingerprint": 42},
                    {"no": "fingerprint"},
                    {"fingerprint": "good", "state": "open",
                     "cooldown_remaining": "NaN-ish"},
                    "not even a dict",
                    {"fingerprint": "fine", "state": "closed"},
                ]
            }
        )
        assert restored == 1
        assert breaker.state_of("fine").state == CLOSED

    def test_restore_tolerates_garbage_payload(self):
        assert CircuitBreaker().restore("garbage") == 0
        assert CircuitBreaker().restore({"states": "nope"}) == 0

    def test_open_breaker_survives_supervisor_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = fast_config(
            workers=1, cache_dir=cache_dir, retries=0, breaker_threshold=1
        )
        sup = Supervisor(config=config)
        try:
            sup.start()
            # One fatal chaos-free failure path: kill the worker via a
            # hang... simpler: drive the breaker directly and persist.
            assert sup.breaker.record_failure("fp-x")
            sup._persist_breakers()
        finally:
            sup.shutdown()
        fresh = Supervisor(config=config)
        try:
            fresh.start()
            assert fresh.stats.counters.get("serve.breakers-restored") == 1
            assert not fresh.breaker.allow_optimized("fp-x")
        finally:
            fresh.shutdown()


class TestWorkerDrain:
    def spawn_worker(self):
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        package_root = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(package_root)
        return subprocess.Popen(
            [_sys.executable, "-m", "repro.serve.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )

    def test_sigterm_while_idle_exits_cleanly(self):
        proc = self.spawn_worker()
        try:
            frame = {"op": "run", "id": "w1", "source": SUM_SOURCE,
                     "fn": "main", "args": [], "mode": "degraded",
                     "fuel": 1_000_000}
            proc.stdin.write(protocol.encode_frame(frame))
            proc.stdin.flush()
            response = protocol.decode_frame(proc.stdout.readline())
            assert response["value"] == 28
            proc.send_signal(signal.SIGTERM)
            # A clean drain, not a signal death (-SIGTERM).
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()

    def test_sigterm_mid_request_flushes_the_response_first(self):
        proc = self.spawn_worker()
        try:
            # Handshake: once the first answer is back, main() has
            # installed its drain handler (before that, SIGTERM's default
            # action would kill the worker).
            frame = {"op": "run", "id": "w2a", "source": SUM_SOURCE,
                     "fn": "main", "args": [], "mode": "degraded",
                     "fuel": 1_000_000}
            proc.stdin.write(protocol.encode_frame(frame))
            proc.stdin.flush()
            assert protocol.decode_frame(proc.stdout.readline())["value"] == 28
            # About 500k instructions per interpretation, and an optimized
            # request is interpreted by the differential gate and again
            # for its answer: SIGTERM lands while the request is in
            # flight.  The drain must finish it and flush the response
            # before exiting.
            frame = {"op": "run", "id": "w2", "source": LONG_LOOP_SOURCE,
                     "fn": "main", "args": [], "mode": "optimized",
                     "fuel": 50_000_000}
            proc.stdin.write(protocol.encode_frame(frame))
            proc.stdin.flush()
            time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            line = proc.stdout.readline()
            assert line, "response lost on SIGTERM"
            response = protocol.decode_frame(line)
            assert response["id"] == "w2"
            assert response["value"] == LONG_LOOP_VALUE
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()


# ----------------------------------------------------------------------
# Jitter: full-jitter retry backoff and de-correlated breaker probes.
# ----------------------------------------------------------------------


class TestJitter:
    def test_backoff_is_seeded_bounded_full_jitter(self):
        sup_a = Supervisor(config=fast_config(jitter_seed=7))
        sup_b = Supervisor(config=fast_config(jitter_seed=7))
        sup_c = Supervisor(config=fast_config(jitter_seed=8))
        try:
            draws_a = [sup_a._backoff(n) for n in range(1, 6)]
            draws_b = [sup_b._backoff(n) for n in range(1, 6)]
            draws_c = [sup_c._backoff(n) for n in range(1, 6)]
            # Same seed replays the same draws; a different seed diverges.
            assert draws_a == draws_b
            assert draws_a != draws_c
            # Full jitter: every draw within [0, min(cap, base * 2^(n-1))].
            config = sup_a.config
            for attempt, value in zip(range(1, 6), draws_a):
                ceiling = min(
                    config.backoff_cap,
                    config.backoff_base * (2 ** (attempt - 1)),
                )
                assert 0.0 <= value <= ceiling
        finally:
            sup_a.shutdown()
            sup_b.shutdown()
            sup_c.shutdown()

    def test_breakers_opened_same_tick_probe_different_ticks(self):
        """Two breakers tripped by the same burst must not re-probe in
        the same tick — full jitter on cooldown expiry de-correlates
        them (the synchronized-retry-storm fix)."""
        import random as random_module

        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown=10.0,
            clock=lambda: clock["now"],
            jitter=0.5,
            rng=random_module.Random(0),
        )
        breaker.record_failure("fp-a")
        breaker.record_failure("fp-b")  # same tick: both open at t=0
        assert breaker.state_of("fp-a").state == OPEN
        assert breaker.state_of("fp-b").state == OPEN

        first_probe = {}
        tick = 0.25
        while len(first_probe) < 2 and clock["now"] < 20.0:
            clock["now"] += tick
            for fp in ("fp-a", "fp-b"):
                if fp not in first_probe and breaker.allow_optimized(fp):
                    first_probe[fp] = clock["now"]
        assert len(first_probe) == 2
        assert first_probe["fp-a"] != first_probe["fp-b"]
        # Both expiries still land inside [cooldown, cooldown * 1.5].
        for when in first_probe.values():
            assert 10.0 <= when <= 15.0 + tick

    def test_zero_jitter_preserves_exact_cooldown(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=lambda: clock["now"]
        )
        breaker.record_failure("fp")
        clock["now"] = 9.99
        assert not breaker.allow_optimized("fp")
        clock["now"] = 10.0
        assert breaker.allow_optimized("fp")


# ----------------------------------------------------------------------
# Deadline propagation: one effective timer, not two racing ones.
# ----------------------------------------------------------------------


class TestDeadlinePropagation:
    def test_deadline_ms_validation(self):
        for bad in (0, -5, True, "soon", 1.5):
            with pytest.raises(protocol.ProtocolError):
                protocol.validate_request(
                    {"op": "run", "source": "x", "deadline_ms": bad}
                )
        frame = protocol.validate_request(
            {"op": "run", "source": "x", "deadline_ms": 1500}
        )
        assert frame["deadline_ms"] == 1500

    def test_request_deadline_bounds_supervisor_and_worker(self, monkeypatch):
        """Regression for the deadline-layering bug: a request deadline
        *shorter* than the supervisor default must become the effective
        pipe timeout AND ride the wire as the worker's budget — the
        minimum of the two layers, not a race between them."""
        from repro.serve.supervisor import WorkerHandle

        captured = {}
        original_send = WorkerHandle.send
        original_read = WorkerHandle.read_frame

        def spy_send(self, frame):
            if frame.get("op") == "run":
                captured["wire"] = dict(frame)
            return original_send(self, frame)

        def spy_read(self, timeout, clock=time.monotonic):
            captured.setdefault("timeouts", []).append(timeout)
            return original_read(self, timeout, clock)

        monkeypatch.setattr(WorkerHandle, "send", spy_send)
        monkeypatch.setattr(WorkerHandle, "read_frame", spy_read)

        sup = Supervisor(config=fast_config(deadline=10.0, retries=0))
        try:
            response = sup.handle_request(
                {"op": "run", "source": SUM_SOURCE, "deadline_ms": 2000}
            )
            assert response["status"] == "ok"
            assert response["value"] == 28
        finally:
            sup.shutdown()
        # The pipe read was bounded by the request budget, not the 10s
        # supervisor default, and the worker saw the same number.
        assert captured["timeouts"][0] <= 2.0
        assert 0 < captured["wire"]["deadline_budget"] <= 2.0
        assert captured["wire"]["deadline_budget"] == pytest.approx(
            captured["timeouts"][0]
        )

    def test_longer_request_deadline_keeps_supervisor_default(self, monkeypatch):
        from repro.serve.supervisor import WorkerHandle

        captured = {}
        original_send = WorkerHandle.send

        def spy_send(self, frame):
            if frame.get("op") == "run":
                captured["wire"] = dict(frame)
            return original_send(self, frame)

        monkeypatch.setattr(WorkerHandle, "send", spy_send)
        sup = Supervisor(config=fast_config(deadline=5.0, retries=0))
        try:
            response = sup.handle_request(
                {"op": "run", "source": SUM_SOURCE, "deadline_ms": 60_000}
            )
            assert response["status"] == "ok"
        finally:
            sup.shutdown()
        # A generous caller budget never *extends* the per-attempt
        # deadline and the worker gets no budget field at all.
        assert "deadline_budget" not in captured["wire"]

    def test_worker_hard_deadline_contains_budget_blowout(self):
        """The worker-side backstop: a request whose budget is tiny is
        reported as a retryable failure, never a hang."""
        from repro.serve import worker as worker_module

        big_loop = """
fn main(): int {
  let a: int[] = new int[200000];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i;
    s = s + a[i];
  }
  return s;
}
"""
        response = worker_module._serve_request(
            {"op": "run", "id": "tiny", "source": big_loop, "fn": "main",
             "args": [], "mode": "degraded", "deadline_budget": 0.001},
            None, False, 0,
        )
        assert response["status"] == "failure"
        assert response["reason"] == "deadline"

    def test_worker_ignores_garbage_budgets(self):
        from repro.serve import worker as worker_module

        for garbage in (True, "soon", -1, 0, None):
            response = worker_module._serve_request(
                {"op": "run", "id": "g", "source": SUM_SOURCE, "fn": "main",
                 "args": [], "mode": "degraded", "deadline_budget": garbage},
                None, False, 0,
            )
            assert response["status"] == "ok"
            assert response["value"] == 28


# ----------------------------------------------------------------------
# Overload integration: admission, shedding, and the response invariant.
# ----------------------------------------------------------------------


class StubDispatch:
    """Replaces ``Supervisor._dispatch``: instant success, no workers."""

    def __init__(self, clock, tick=0.05):
        self.clock = clock
        self.tick = tick
        self.dispatched = []

    def __call__(self, sup, frame, mode, attempt, wire_extra=None):
        self.dispatched.append(frame["id"])
        self.clock["now"] += self.tick
        return (
            "response",
            {"id": frame["id"], "status": "ok", "op": frame["op"],
             "mode": "optimized" if mode == "optimized" else "degraded",
             "value": 0},
        )


class TestOverloadIntegration:
    def make_supervisor(self, monkeypatch, clock, **overrides):
        from repro.serve import supervisor as supervisor_module

        stub = StubDispatch(clock)
        monkeypatch.setattr(
            supervisor_module.Supervisor, "_dispatch",
            lambda sup, *a, **kw: stub(sup, *a, **kw),
        )
        sup = Supervisor(
            config=fast_config(**overrides), clock=lambda: clock["now"]
        )
        sup.start = lambda: None  # no worker pool under the stub
        return sup, stub

    def test_queue_full_sheds_fast_with_retry_after(self, monkeypatch):
        clock = {"now": 0.0}
        sup, stub = self.make_supervisor(
            monkeypatch, clock, queue_capacity=2
        )
        assert sup.submit({"op": "run", "source": SUM_SOURCE}) is None
        assert sup.submit({"op": "run", "source": SUM_SOURCE}) is None
        shed = sup.submit({"op": "run", "source": SUM_SOURCE})
        assert shed["status"] == "shed"
        assert shed["reason"] == "queue-full"
        assert shed["retry_after"] > 0
        assert isinstance(shed["degrade_level"], int)
        assert stub.dispatched == []  # rejected before any worker touch
        # The two queued requests still drain normally.
        results = sup.process_queue()
        assert [r["status"] for _, r in results] == ["ok", "ok"]

    def test_every_admitted_request_gets_exactly_one_response(
        self, monkeypatch
    ):
        """The response invariant, property-style: a seeded mix of
        arrivals, deadlines, and queue pressure — every submitted frame
        is answered exactly once, and an expired queued request is shed
        without consuming a worker dispatch."""
        clock = {"now": 0.0}
        sup, stub = self.make_supervisor(
            monkeypatch, clock, queue_capacity=8
        )
        rng = random.Random(42)
        responses = {}

        def record(frame, response):
            key = frame["id"]
            assert key not in responses, f"duplicate response for {key}"
            responses[key] = response

        submitted = []
        for i in range(60):
            frame = {"op": "run", "id": f"p{i}", "source": SUM_SOURCE}
            if rng.random() < 0.4:
                frame["deadline_ms"] = rng.randrange(50, 400)
            submitted.append(frame["id"])
            immediate = sup.submit(dict(frame))
            if immediate is not None:
                record(frame, immediate)
            # Occasionally stall long enough for queued deadlines to
            # expire, then serve a couple of requests.
            if rng.random() < 0.3:
                clock["now"] += rng.uniform(0.1, 0.6)
            for _ in range(rng.randrange(0, 3)):
                for served_frame, response in sup.process_one():
                    record(served_frame, response)
        for served_frame, response in sup.process_queue():
            record(served_frame, response)

        assert sorted(responses) == sorted(submitted)
        shed_ids = {
            key for key, r in responses.items() if r["status"] == "shed"
        }
        expired_ids = {
            key for key, r in responses.items()
            if r.get("reason") == "deadline-expired"
        }
        assert expired_ids, "schedule never expired a queued deadline"
        # A deadline-expired entry was never dispatched to a worker.
        assert expired_ids.isdisjoint(set(stub.dispatched))
        # Everything not shed was dispatched exactly once.
        served_ids = set(submitted) - shed_ids
        assert sorted(stub.dispatched) == sorted(served_ids)

    def test_degrade_level_tags_every_response(self, monkeypatch):
        clock = {"now": 0.0}
        sup, stub = self.make_supervisor(monkeypatch, clock)
        sup.submit({"op": "run", "id": "lvl", "source": SUM_SOURCE})
        ((_, response),) = sup.process_queue()
        assert response["degrade_level"] == 0

    def test_ladder_level_two_serves_degraded(self, monkeypatch):
        clock = {"now": 0.0}
        sup, stub = self.make_supervisor(monkeypatch, clock)
        sup.overload.ladder.observe(3.0, now=0.0)  # past the 2.0 mark
        sup.submit({"op": "run", "id": "deg", "source": SUM_SOURCE})
        ((_, response),) = sup.process_queue()
        assert response["mode"] == "degraded"
        assert response["degrade_level"] == 2

    def test_shed_queued_answers_everything_on_drain(self, monkeypatch):
        clock = {"now": 0.0}
        sup, stub = self.make_supervisor(monkeypatch, clock, queue_capacity=8)
        for i in range(4):
            sup.submit({"op": "run", "id": f"d{i}", "source": SUM_SOURCE})
        drained = sup.shed_queued("shutting-down")
        assert len(drained) == 4
        assert all(r["status"] == "shed" for _, r in drained)
        assert all(r["reason"] == "shutting-down" for _, r in drained)
        assert sup.pending() == 0

    def test_status_payload_carries_the_overload_block(self):
        sup = Supervisor(config=fast_config())
        try:
            payload = sup.handle_request({"op": "status"})
        finally:
            sup.shutdown()
        overload = payload["overload"]
        assert overload["enabled"] is True
        assert overload["level"] == 0
        assert overload["queue_capacity"] == sup.config.queue_capacity
