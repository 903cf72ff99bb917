"""Self-test of the end-to-end benchmark at smoke scale.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e`` (it is
outside the tier-1 suite; ``benchmarks/conftest.py`` imports the package).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from contextlib import nullcontext

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = _run("--seed", "0", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text()), proc.stdout


def test_every_metric_is_emitted_with_its_unit(traced_smoke):
    doc, stdout = traced_smoke
    assert set(doc["workloads"]) == set(workloads.WORKLOADS)
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    for entry in doc["workloads"].values():
        (result,) = entry["runs"]
        assert set(result["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
        assert set(result["layers"]) == {m["name"] for m in CONFIG["per_layer"]}
        assert result["failed"] == 0 and result["attempted"] >= 1
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for name, metric in last["metrics"].items():
        assert metric["unit"] == UNITS[name.split(":")[-1]]


def test_traced_counters_reach_the_layers(traced_smoke):
    doc, _ = traced_smoke
    layers = {w: e["runs"][0]["layers"] for w, e in doc["workloads"].items()}
    assert layers["compile-corpus"]["core.checks_analyzed"] > 0
    assert layers["compile-corpus"]["opt.instructions_visited"] > 0
    assert layers["certify-scaled"]["certify.accepted"] > 0
    assert layers["run-corpus"]["runtime.instrs"] > 0
    assert layers["serve-hit"]["store.hit_pct"] == 100.0
    assert layers["serve-miss"]["robustness.gate_ms"] > 0
    assert layers["serve-miss"]["store.put_ms"] > 0


def test_single_workload_prints_the_end_to_end_contract_line():
    proc = _run("--seed", "3", "--workload", "compile-corpus", "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_the_inputs(workload):
    def digest(seed):
        return workloads.input_hash(workloads.build_inputs(workload, seed, 0.3, smoke=True))

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def _distinct_programs(workload):
    inputs = workloads.build_inputs(workload, 0, 0.3, smoke=True)
    members = {m for r in inputs["rounds"] for m in r}
    return [inputs["programs"][i] for i in sorted(members | {inputs["probe"]})]


def _patched_attributes():
    from repro.bench import harness
    from repro.passes import analysis, manager, session

    return (harness.run_program, session.check_program, manager.verify_function,
            manager.PassManager.run_function_pass, session.CompilationSession.optimize,
            dict(analysis.ANALYSES))


@pytest.mark.parametrize("workload", ["compile-corpus", "certify-scaled"])
def test_instrumented_compile_is_unchanged(workload):
    from repro.core.abcd import ABCDConfig
    from repro.ir.printer import format_program
    from repro.passes.session import CompilationSession

    certify = workload == "certify-scaled"
    before = _patched_attributes()
    tracer = spans.Tracer()
    for program in _distinct_programs(workload):
        outputs = []
        for instrumented in (False, True):
            session = CompilationSession(config=ABCDConfig(certify=certify))
            with spans.instrument(tracer) if instrumented else nullcontext(), \
                    tracer.unit() if instrumented else nullcontext():
                compiled = session.compile(program["source"])
                text = format_program(compiled)
                report = session.optimize(compiled)
            outputs.append((text, format_program(compiled), report.eliminated_ids,
                            session.stats.to_json()["counters"]))
        assert outputs[0] == outputs[1], program["name"]
    assert _patched_attributes() == before
    layers = tracer.summary()["layers"]
    assert {"frontend", "ir", "ssa", "core", "passes"} <= set(layers)


def test_instrumented_run_benchmark_is_unchanged():
    from repro.bench.corpus import BY_NAME
    from repro.bench.harness import run_benchmark

    tracer = spans.Tracer()
    for program in _distinct_programs("run-corpus"):
        plain = run_benchmark(BY_NAME[program["name"]], pre=True)
        with spans.instrument(tracer), tracer.unit():
            traced = run_benchmark(BY_NAME[program["name"]], pre=True)
        assert traced.opt_value == plain.opt_value == program["ref"]["value"]
        assert traced.report.eliminated_ids == plain.report.eliminated_ids
        assert traced.dynamic_upper_removed_fraction == plain.dynamic_upper_removed_fraction
    stages = tracer.summary()["stages"]
    assert stages["runtime.base_exec"]["count"] == stages["runtime.exec"]["count"]


def test_planted_wrong_reference_counts_as_failed(tmp_path):
    inputs = workloads.build_inputs("run-corpus", 0, 0.3, smoke=True)
    inputs["programs"][0]["ref"]["value"] += 1
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs))
    _, raw = run.run_child(
        [sys.executable, str(HERE / "child.py"),
         "--inputs", str(path), "--seconds", "0.1", "--work-dir", str(tmp_path)],
        timeout=120, ready_line=True)
    failed = [u for u in raw["units"] if not u["ok"]]
    assert failed and all(u["name"] == inputs["programs"][0]["name"] for u in failed)
    assert run.extra_metrics("run-corpus", raw)["failed_share"][0] > 0


def test_wrong_serve_response_is_a_failure():
    program = {"name": "p", "ref": {"value": 3, "trap": None}}
    ok = {"status": "ok", "mode": "optimized", "cache": "miss-stored", "value": 3, "trap": None}
    assert child.check_response("serve-miss", program, ok, {}) is None
    assert child.check_response("serve-miss", program, dict(ok, value=4), {})
    assert child.check_response("serve-miss", program, dict(ok, cache="hit"), {})
    assert child.check_response("serve-miss", program, dict(ok, mode="degraded"), {})
    assert child.check_response("serve-miss", program, {"status": "shed"}, {})
    assert child.check_response("serve-miss", program, None, {})

    state = {}
    compiled = {"status": "ok", "mode": "optimized", "cache": "miss-stored",
                "report": {"eliminated": 5, "analyzed": 9}}
    assert child.check_response("serve-hit", program, compiled, state, priming=True) is None
    hit = dict(compiled, mode="cached", cache="hit", report={"eliminated": 5, "analyzed": 0})
    assert child.check_response("serve-hit", program, hit, state) is None
    assert child.check_response("serve-hit", program, dict(hit, cache="miss-stored"), state)
    assert child.check_response("serve-hit", program,
                                dict(hit, report={"eliminated": 4, "analyzed": 0}), state)


def test_calibration_divides_by_the_local_slowdown():
    calibrator = calibrate.Calibrator()
    assert calibrator.sample() > 0
    assert len(calibrator.ratios) == 2 * calibrate.RADIUS
    # The three samples before a unit and the three from the one after it.
    assert calibrate.local_slowdown([1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 9.0], 3) == 2.0
    unit = {"ok": True, "analyzed": 4, "eliminated": 2}
    raw = {"units": [dict(unit, name="p", ms=30.0, kernel=6), dict(unit, name="p", ms=20.0, kernel=7),
                     dict(unit, name="q", ms=40.0, kernel=8), dict(unit, name="q", ms=1.0, ok=False)],
           "kernels": [2.0] * 9, "round_s": [0.05], "peak_rss_mb": 1.0,
           "setup_s": [0.4, 0.6, 0.5], "setup_slowdown": [2.0, 2.0, 1.0]}
    metrics = run.end_to_end_metrics("compile-corpus", raw)
    # Per input, the median calibrated unit: p 12.5 ms, q 20 ms.
    assert metrics["cal_unit_ms.p50"] == pytest.approx(16.25)
    assert metrics["cal_units_per_s"] == pytest.approx(2000 / 32.5)
    assert metrics["setup_s"] == pytest.approx(0.3)


def test_compare_pairs_runs_in_order_and_gates_every_spread():
    # The change wins every pair although its median equals the parent's:
    # pairing follows the order the runs were taken in.
    parent = [10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0]
    change = [9.9, 11.9, 9.9, 11.9, 9.9, 11.9, 9.9, 11.9, 9.9, 11.9]
    assert compare.verdict(parent, change, False, 0.25) == ("within-bound", 1.0)
    # A parent spread wider than the bound leaves the verdict unresolved,
    # set-up time included.
    assert compare.verdict(parent, change, False, 0.1)[0] == "unresolved"
    assert compare.verdict([1.0] * 10, [1.3] * 10, False, 0.25)[0] == "worse"
