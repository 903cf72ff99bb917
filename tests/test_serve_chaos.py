"""Tests for the chaos storm harness (``repro storm``).

The CI chaos-smoke job runs the full 200-request storm; these tests keep
the harness itself honest at a smaller scale — a seeded storm under a
20% fault rate must pass its own verdict, the request plan must be
deterministic, and the verifier must actually catch the violations it
claims to (lost requests, wrong answers, fatal faults answered as
optimized service).  Each storm's JSON keys are pinned and its text
report is rendered.
"""

from __future__ import annotations

import os

import pytest

from repro.robustness.faults import CHAOS_FAULTS, FATAL_CHAOS_FAULTS
from repro.serve.chaos import (
    StormResult,
    _plan_requests,
    _verify_response,
    format_report,
    run_storm,
    storm_config,
)

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="the compile service requires POSIX pipes/signals"
)

# The exact ``to_json()`` keys of each storm.  The CI storm jobs read
# these keys, so the generic report JSON must not drift from them.
STORM_KEYS = {
    "requests", "seed", "fault_rate", "responses", "lost", "optimized",
    "degraded", "errors", "injected_faults", "breaker_open_served", "shed",
    "latency", "violations", "supervisor_alive", "counters", "passed",
}
BURST_KEYS = {
    "requests", "seed", "fault_rate", "burst_multiple",
    "min_p99_improvement", "service_time", "responses", "lost", "optimized",
    "degraded", "errors", "shed", "shed_queue_full", "shed_deadline",
    "deadline_attached", "injected_faults", "max_level", "final_level",
    "transitions", "queue_depth_peak", "queue_capacity",
    "recovery_virtual_seconds", "overload_latency", "baseline_responses",
    "baseline_lost", "baseline_latency", "p99_improvement", "violations",
    "supervisor_alive", "counters", "passed",
}
CORRUPTION_KEYS = {
    "requests", "seed", "disk_fault_rate", "responses", "lost", "stored",
    "cold_hits", "injected_disk_faults", "worker_kills",
    "supervisor_restarts", "recovered_tmp", "verify_quarantined",
    "verify_rejections", "warm_requests", "warm_responses", "warm_hits",
    "warm_hit_rate", "min_warm_hit_rate", "byte_identical_checked",
    "invariant_violations", "violations", "supervisor_alive", "counters",
    "passed",
}
LATENCY_KEYS = {"count", "p50", "p95", "p99", "max"}


def assert_text_report(result) -> None:
    """``format_report`` renders the verdict, every JSON value and the
    violations of a storm result."""
    lines = format_report(result).splitlines()
    assert lines[0] == f"{result.title}: {'PASS' if result.passed else 'FAIL'}"
    for name, value in result.to_json().items():
        if isinstance(value, dict):
            assert f"  {name}:" + ("" if value else " none") in lines
            for key, item in value.items():
                assert f"    {key}: {item}" in lines
        elif name not in ("violations", "passed"):
            assert f"  {name}: {value}" in lines
    if result.violations:
        assert f"  VIOLATIONS ({len(result.violations)}):" in lines
    else:
        assert lines[-1] == "  no violations"


def test_plan_is_deterministic():
    plan_a = _plan_requests(60, 0.2, seed=7, breaker_block=True)
    plan_b = _plan_requests(60, 0.2, seed=7, breaker_block=True)
    assert plan_a == plan_b
    plan_c = _plan_requests(60, 0.2, seed=8, breaker_block=True)
    assert plan_a != plan_c


def test_plan_opens_with_breaker_block():
    plan = _plan_requests(20, 0.0, seed=0, breaker_block=True)
    assert [request.get("chaos") for request in plan[:3]] == ["worker-crash"] * 3
    # Followed by clean requests on the same fingerprint.
    assert plan[3]["source"] == plan[0]["source"]
    assert "chaos" not in plan[3]
    assert len(plan) == 20


def test_plan_faults_are_registered_names():
    plan = _plan_requests(200, 0.5, seed=3, breaker_block=False)
    faulted = [request["chaos"] for request in plan if "chaos" in request]
    assert faulted, "a 50% fault rate must inject some faults"
    assert set(faulted) <= set(CHAOS_FAULTS)


def test_small_storm_passes():
    """The acceptance property at test scale: a seeded storm with fault
    injection completes with zero lost requests, zero incorrect
    responses, and a live supervisor."""
    result = run_storm(
        requests=30, fault_rate=0.2, seed=0, workers=2, deadline=2.0
    )
    assert result.passed, format_report(result)
    assert result.lost == 0
    assert result.responses == 30
    assert result.supervisor_alive
    assert result.injected_faults, "the storm must actually inject faults"
    # The breaker block opened a breaker and clean requests on that
    # fingerprint were served degraded through it, checks intact.
    assert result.breaker_open_served >= 1
    assert result.counters.get("serve.breaker-opened", 0) >= 1
    assert result.optimized > 0 and result.degraded > 0
    assert_text_report(result)


def test_storm_json_payload_is_complete():
    result = run_storm(
        requests=12, fault_rate=0.0, seed=1, workers=1, deadline=3.0
    )
    payload = result.to_json()
    assert set(payload) == STORM_KEYS
    assert set(payload["latency"]) == LATENCY_KEYS
    assert payload["passed"] is True
    assert payload["lost"] == 0
    assert payload["requests"] == 12
    assert payload["responses"] == 12
    assert "serve.requests" in payload["counters"]
    assert isinstance(payload["violations"], list)
    assert_text_report(result)


def test_storm_config_keeps_breakers_observably_open():
    config = storm_config()
    assert config.breaker_cooldown > 60.0
    assert config.chaos  # explicit per-request faults armed


class TestVerifier:
    """The storm verifier must catch each violation class it reports."""

    def fresh_result(self) -> StormResult:
        return StormResult(requests=1, seed=0, fault_rate=0.0)

    def test_flags_wrong_value(self):
        result = self.fresh_result()
        request = {"source": "fn main(): int { return 1; }", "expect": "ok"}
        response = {"status": "ok", "mode": "optimized", "value": 999,
                    "trap": None, "kind": None, "index": None,
                    "length": None, "check_id": None}
        result.tally(_verify_response(result.violations, 0, request, response, {}))
        assert result.violations and "diverges" in result.violations[0]

    def test_flags_fatal_fault_answered_optimized(self):
        result = self.fresh_result()
        request = {
            "source": "fn main(): int { return 1; }",
            "expect": "ok",
            "chaos": FATAL_CHAOS_FAULTS[0],
        }
        response = {"status": "ok", "mode": "optimized", "value": 1,
                    "trap": None, "kind": None, "index": None,
                    "length": None, "check_id": None}
        result.tally(_verify_response(result.violations, 0, request, response, {}))
        assert any("fatal fault" in violation for violation in result.violations)

    def test_flags_missing_user_error(self):
        result = self.fresh_result()
        request = {"source": "irrelevant", "expect": "error"}
        response = {"status": "ok", "mode": "optimized"}
        result.tally(_verify_response(result.violations, 0, request, response, {}))
        assert result.violations

    def test_accepts_degraded_with_checks_intact(self):
        result = self.fresh_result()
        source = "fn main(): int { return 1; }"
        request = {"source": source, "expect": "ok"}
        cache = {}
        from repro.serve.chaos import _baseline

        expected = _baseline(source, cache)
        response = dict(expected)
        response["mode"] = "degraded"
        response["degraded_reason"] = "breaker-open"
        result.tally(_verify_response(result.violations, 0, request, response, cache))
        assert not result.violations
        assert result.degraded == 1
        assert result.breaker_open_served == 1

    def test_flags_degraded_that_lost_checks(self):
        result = self.fresh_result()
        source = "fn main(): int { let a: int[] = new int[3]; return a[1]; }"
        request = {"source": source, "expect": "ok"}
        cache = {}
        from repro.serve.chaos import _baseline

        expected = _baseline(source, cache)
        response = dict(expected)
        response["mode"] = "degraded"
        response["checks"] = {"total": 0, "lower": 0, "upper": 0, "speculative": 0}
        result.tally(_verify_response(result.violations, 0, request, response, cache))
        assert any("lost checks" in violation for violation in result.violations)

    def test_lost_requests_fail_the_storm(self):
        result = StormResult(requests=10, seed=0, fault_rate=0.0)
        result.responses = 9
        assert result.lost == 1
        assert not result.passed


# ----------------------------------------------------------------------
# The corruption storm: disk faults against the persistent store.
# ----------------------------------------------------------------------


class TestCorruptionStorm:
    def test_small_corruption_storm_passes(self, tmp_path):
        from repro.serve.chaos import run_corruption_storm

        result = run_corruption_storm(
            requests=20,
            disk_fault_rate=0.3,
            kill_rate=0.1,
            seed=7,
            workers=2,
            cache_dir=str(tmp_path / "cache"),
            byte_identity_samples=2,
        )
        assert result.passed, format_report(result)
        assert result.lost == 0
        assert sum(result.injected_disk_faults.values()) > 0
        assert result.verify_rejections == 0
        assert result.invariant_violations == 0
        # The mid-storm restart recovered the planted torn tmp file.
        assert result.supervisor_restarts == 1
        assert result.recovered_tmp >= 1
        # Warm phase replays the same pool against the surviving store.
        assert result.warm_hit_rate >= result.min_warm_hit_rate
        assert result.byte_identical_checked == 2
        assert_text_report(result)

    def test_corruption_storm_json_payload_is_complete(self, tmp_path):
        import json

        from repro.serve.chaos import run_corruption_storm

        result = run_corruption_storm(
            requests=8,
            disk_fault_rate=0.0,
            kill_rate=0.0,
            seed=3,
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            byte_identity_samples=0,
        )
        payload = json.loads(json.dumps(result.to_json()))
        assert set(payload) == CORRUPTION_KEYS
        assert payload["passed"] is True
        assert payload["warm_hit_rate"] == round(result.warm_hit_rate, 3)
        assert_text_report(result)


# ----------------------------------------------------------------------
# Virtual-clock latency reporting and the shed contract.
# ----------------------------------------------------------------------


class TestLatencyDeterminism:
    def test_storm_latency_summary_is_byte_reproducible(self):
        """The satellite bugfix: latency percentiles come off the virtual
        clock, so two identical storms produce identical JSON — the
        property the CI overload-smoke gate stands on."""
        kwargs = dict(requests=12, fault_rate=0.25, seed=5, workers=1,
                      deadline=2.0)
        first = run_storm(**kwargs).to_json()
        second = run_storm(**kwargs).to_json()
        assert first["latency"] == second["latency"]
        assert first["latency"]["count"] == 12
        assert first["latency"]["p99"] >= first["latency"]["p50"] > 0.0
        import json

        assert json.dumps(first["latency"], sort_keys=True) == json.dumps(
            second["latency"], sort_keys=True
        )

    def test_timeout_costs_the_deadline_in_virtual_time(self):
        """A hang fault must show up in the virtual latency accounting as
        a deadline's worth of service time, not wall noise."""
        clean = run_storm(requests=3, fault_rate=0.0, seed=2, workers=1,
                          deadline=2.0, breaker_block=False)
        assert clean.passed
        assert max(clean.latencies) < 2.0


class TestShedContract:
    def make_result(self) -> StormResult:
        return StormResult(requests=1, seed=0, fault_rate=0.0)

    def test_shed_is_counted_never_lost_or_violated(self):
        result = self.make_result()
        request = {"source": "fn main(): int { return 1; }", "expect": "ok"}
        response = {"id": "r1", "status": "shed", "reason": "queue-full",
                    "retry_after": 0.5, "degrade_level": 3}
        result.tally(_verify_response(result.violations, 0, request, response, {}))
        assert result.shed == 1
        assert not result.violations

    def test_shed_of_a_user_error_request_is_still_acceptable(self):
        # Backpressure outranks the would-be answer class: a shed is a
        # legitimate response even where a user error was expected.
        result = self.make_result()
        request = {"source": "irrelevant", "expect": "error"}
        response = {"id": "r1", "status": "shed", "reason": "deadline-expired",
                    "retry_after": 0.25, "degrade_level": 1}
        result.tally(_verify_response(result.violations, 0, request, response, {}))
        assert result.shed == 1
        assert not result.violations

    def test_malformed_shed_is_flagged(self):
        result = self.make_result()
        request = {"source": "x", "expect": "ok"}
        response = {"id": "r1", "status": "shed", "reason": "because"}
        result.tally(_verify_response(result.violations, 0, request, response, {}))
        assert any("unknown reason" in v for v in result.violations)
        assert any("retry_after" in v for v in result.violations)


# ----------------------------------------------------------------------
# The burst storm: overload control end to end at test scale.
# ----------------------------------------------------------------------


class TestBurstStorm:
    def test_small_burst_storm_holds_the_overload_contract(self):
        from repro.serve.chaos import run_burst_storm

        result = run_burst_storm(
            requests=80, burst_multiple=4.0, fault_rate=0.05, seed=0,
            workers=2, deadline=2.0, min_p99_improvement=2.0,
        )
        assert result.passed, format_report(result)
        assert result.lost == 0
        assert result.baseline_lost == 0
        assert result.responses == 80
        assert result.shed > 0
        assert result.max_level >= 2
        assert result.final_level == 0
        assert result.queue_depth_peak <= result.queue_capacity
        assert result.p99_improvement >= 2.0
        # Deadline-carrying requests existed and some were expired while
        # queued (shed without touching a worker).
        assert result.deadline_attached > 0
        assert result.shed_deadline > 0
        assert result.counters.get("serve.overload.deadline-shed", 0) > 0
        assert_text_report(result)

    def test_burst_storm_json_payload_is_complete(self):
        import json

        from repro.serve.chaos import run_burst_storm

        result = run_burst_storm(
            requests=16, burst_multiple=4.0, fault_rate=0.0, seed=1,
            workers=1, deadline=2.0, min_p99_improvement=1.0,
            calibration_requests=2,
        )
        payload = json.loads(json.dumps(result.to_json()))
        assert set(payload) == BURST_KEYS
        assert set(payload["overload_latency"]) == LATENCY_KEYS
        assert set(payload["baseline_latency"]) == LATENCY_KEYS
        assert payload["lost"] == 0 and payload["baseline_lost"] == 0
        assert payload["responses"] == payload["baseline_responses"] == 16
        assert payload["service_time"] == round(result.service_time, 6) > 0
        assert_text_report(result)

    def test_burst_storm_json_is_reproducible(self):
        from repro.serve.chaos import run_burst_storm

        kwargs = dict(requests=40, burst_multiple=4.0, fault_rate=0.1,
                      seed=3, workers=1, deadline=2.0,
                      min_p99_improvement=1.0)
        import json

        first = json.dumps(run_burst_storm(**kwargs).to_json(),
                           sort_keys=True)
        second = json.dumps(run_burst_storm(**kwargs).to_json(),
                            sort_keys=True)
        assert first == second

    def test_burst_plan_is_seeded_and_open_loop(self):
        from repro.serve.chaos import _plan_burst

        plan_a = _plan_burst(50, 0.1, seed=4, mean_interarrival=0.0125)
        plan_b = _plan_burst(50, 0.1, seed=4, mean_interarrival=0.0125)
        assert plan_a == plan_b
        dues = [item["due"] for item in plan_a]
        assert dues == sorted(dues)
        assert len({item["frame"]["id"] for item in plan_a}) == 50
        # Open loop: arrival times are fixed up front, independent of
        # any service behavior.
        assert all("source" in item["frame"] for item in plan_a)
