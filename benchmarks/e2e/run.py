"""End-to-end benchmark of the ABCD reproduction: one command, every metric.

    python3 benchmarks/e2e/run.py --seed S [--workload W ...] [--seconds N]
                                  [--trace [0|1]] [--repeat N] [--out FILE] [--smoke]

Run from anywhere inside a checkout; the package is imported from the
checkout's own ``src/``.  For each workload (default: all of them) this
process builds the seeded inputs and their references, then spawns fresh
child processes (``child.py``) that do the measured work: one untimed
warm-up spawn and five timed set-up spawns, the last of which goes on to
run whole rounds in a closed loop with one client for ``--seconds``.
Every process runs on one CPU, and gated times are calibrated by fixed
kernels timed beside them (``calibrate.py``), so that they do not move
with the machine's speed.  It prints every metric by name with its unit,
per workload, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` --
the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics, taken after the untraced leg by running every round
again untraced and traced in turn.  End-to-end numbers always come from
the untraced leg.

``--repeat N`` runs each workload N times (fresh processes each time),
reports medians and each end-to-end metric's spread (interquartile range
over median) and fails when any spread exceeds that metric's bound.
``--out`` writes every run to a JSON file that ``compare.py`` reads.

Exit status: 0 when every unit was correct (and every spread within its
bound), 1 otherwise, 2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CONFIG_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = HERE / ".work"

#: Set-up (and, traced, a fresh ``import repro.cli``) is sampled this many
#: times per run in fresh processes; the median is reported.
SETUP_SPAWNS = 5
SMOKE_SETUP_SPAWNS = 1
SMOKE_SECONDS = 0.2


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def spread(values: List[float]) -> float:
    """Interquartile range over median, as the acceptance check takes it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: List[str], timeout: float, ready_line: bool):
    """Run one child to completion; returns ``(seconds from spawn to its
    ready line, its JSON result or None)``."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=str(ROOT))
    try:
        ready = None
        if ready_line:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            if line.strip() != b"ready":
                raise RuntimeError(f"child did not become ready: {line[:200]!r}")
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with status {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def pin_to_one_cpu() -> None:
    """Run this process, and so every process it starts, on one CPU.

    The calibration kernels measure the speed of the CPU they run on; a
    serve request runs in the supervisor and a worker, which may sit on
    the other CPU.  Unpinned, ten 18 s runs of serve-hit spread 0.094 in
    calibrated median latency, pinned 0.017.  One client sends one
    request at a time, so the service never has two requests to run at
    once."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_import_ms(count: int) -> float:
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=str(ROOT),
                             capture_output=True, check=True, timeout=60)
        samples.append(float(out.stdout) * 1000)
    return _median(samples)


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
                 work_dir: pathlib.Path) -> Dict:
    from workloads import SERVE_WORKLOADS, build_inputs, manifest

    started = time.perf_counter()
    inputs = build_inputs(workload, seed, seconds, smoke)
    inputs_path = work_dir / f"{workload}.json"
    inputs_path.write_text(json.dumps(inputs))
    spawns = SMOKE_SETUP_SPAWNS if smoke else SETUP_SPAWNS
    cmd = [sys.executable, str(HERE / "child.py"),
           "--inputs", str(inputs_path), "--seconds", repr(seconds),
           "--trace", str(trace), "--work-dir", str(work_dir)]
    timeout = seconds * (4 if trace else 2) + 60
    if workload in SERVE_WORKLOADS:
        _, raw = run_child(cmd + ["--setup-count", str(spawns)], timeout, ready_line=False)
    else:
        # The first spawn warms the page cache and is not timed.
        setups = [run_child(cmd + ["--setup-only"], 120, ready_line=True)
                  for _ in range(spawns)][1:]
        ready, raw = run_child(cmd, timeout, ready_line=True)
        raw["setup_s"] = [s for s, _ in setups] + [ready]
        raw["setup_slowdown"] = [r["setup_slowdown"] for _, r in setups] + [raw["setup_slowdown"]]
    units = raw["units"] + raw.get("pipeline", [])
    failures = [f"{u['name']}: {u.get('error')}" for u in units if not u["ok"]]
    traced = raw.get("trace", {})
    result = {
        "workload": workload,
        "seed": seed,
        "attempted": len(units) + traced.get("attempted", 0),
        "failed": len(failures) + traced.get("failed", 0),
        "failures": (failures + traced.get("failures", []))[:5],
        "metrics": end_to_end_metrics(workload, raw),
        "extra": extra_metrics(workload, raw),
        "manifest": manifest(inputs, len(raw["round_s"])),
    }
    result["manifest"].update(run_properties(workload, raw["units"]))
    if trace:
        result["layers"] = layer_metrics(workload, raw, measure_import_ms(spawns))
        # count, total, self time and p50 (ms) per layer of the traced units
        result["layer_spans"] = raw["trace"]["summary"]["layers"]
    # Input building, every spawn and the traced leg included.
    result["wall_s"] = time.perf_counter() - started
    return result


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def checks_removed_pct(workload: str, raw: Dict) -> float:
    """The workload's quality number, taken over its fixed inputs, each
    counted once, so that it is exact for a given commit whatever the
    seed: the static share of analyzed checks eliminated (compile-corpus,
    certify-scaled, serve-hit), the Figure-6 mean share of dynamic
    upper-bound checks removed (run-corpus, from its pipeline runs), or
    the mean share of dynamic checks a ``run`` request no longer executes
    (serve-miss)."""
    first: Dict[str, Dict] = {}
    for unit in raw.get("pipeline", raw["units"]):
        if unit["ok"]:
            first.setdefault(unit["name"], unit)
    distinct = list(first.values())
    if workload == "run-corpus":
        return 100.0 * _mean([u["dyn_upper_removed"] for u in distinct])
    if workload == "serve-miss":
        return 100.0 * _mean([1 - u["checks"] / u["ref_checks"]
                              for u in distinct if u["ref_checks"]])
    analyzed = sum(u["analyzed"] for u in distinct)
    return 100.0 * sum(u["eliminated"] for u in distinct) / analyzed if analyzed else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def calibrated_unit_ms(raw: Dict) -> List[float]:
    """Each input's median correct unit in reference-machine ms: each
    unit's time divided by the slowdown of the kernels timed around it
    (``calibrate.local_slowdown``)."""
    from calibrate import local_slowdown

    per_input: Dict[str, List[float]] = {}
    for unit in raw["units"]:
        if unit["ok"]:
            slowdown = local_slowdown(raw["kernels"], unit["kernel"])
            per_input.setdefault(unit["name"], []).append(unit["ms"] / slowdown)
    return [_median(times) for times in per_input.values()]


def end_to_end_metrics(workload: str, raw: Dict) -> Dict[str, float]:
    """The gated metrics.  Times are calibrated (``calibrate.py``): each
    unit by the kernels timed around it, each set-up sample by the
    kernels its process timed right after it."""
    per_input = calibrated_unit_ms(raw)
    return {
        "setup_s": _median([s / k for s, k in zip(raw["setup_s"], raw["setup_slowdown"])]),
        "cal_unit_ms.p50": _median(per_input),
        "cal_units_per_s": 1000 * len(per_input) / sum(per_input) if per_input else 0.0,
        "peak_rss_mb": raw["peak_rss_mb"],
        "checks_removed_pct": checks_removed_pct(workload, raw),
    }


def _store_hit_share(units: List[Dict]) -> float:
    return sum(1 for u in units if u.get("cache") == "hit") / max(1, len(units))


def extra_metrics(workload: str, raw: Dict) -> Dict[str, List]:
    """Numbers beside the gated ones: ``name -> [value, unit]``."""
    units = raw["units"]
    seconds = sum(u["ms"] for u in units) / 1000
    # What a user of the run saw, uncalibrated and not gated: set-up,
    # latency over every unit and rounds per second over the median
    # round; and the machine's median slowdown over the run.
    median_round = _median(raw["round_s"])
    extra = {"slowdown": [_median(raw["kernels"]), "x"],
             "setup_raw_s": [_median(raw.get("setup_s", [])), "s"],
             "failed_share": [sum(not u["ok"] for u in units) / max(1, len(units)), "ratio"],
             "unit_ms.p50": [_median([u["ms"] for u in units]), "ms"],
             "unit_ms.p90": [_p90([u["ms"] for u in units]), "ms"],
             "units_per_s": [len(units) / max(1, len(raw["round_s"])) / median_round
                             if median_round else 0.0, "1/s"]}
    if workload == "certify-scaled" and seconds:
        extra["lines_per_s"] = [sum(u["lines"] for u in units) / seconds, "lines/s"]
        extra["checks_per_s"] = [sum(u.get("analyzed", 0) for u in units) / seconds, "checks/s"]
    if workload == "run-corpus":
        pipeline = raw.get("pipeline", [])
        extra["cycles_saved_pct"] = [
            100.0 * _mean([u["cycles_saved"] for u in pipeline if "cycles_saved" in u]), "%"]
        extra["round_s"] = [_median(raw["round_s"]), "s"]
        # One pass of the whole Figure-6 pipeline over the input set.
        extra["pipeline_s"] = [sum(u["ms"] for u in pipeline) / 1000, "s"]
    if workload.startswith("serve-"):
        extra["store_hit_share"] = [_store_hit_share(units), "ratio"]
    return extra


def run_properties(workload: str, units: List[Dict]) -> Dict:
    """Input properties only the run itself can count."""
    props = {}
    if any("analyzed" in u for u in units):
        props["static_checks_analyzed"] = sum(u.get("analyzed", 0) for u in units)
    if workload == "run-corpus":
        props["dynamic_instructions"] = sum(u.get("instructions", 0) for u in units)
    if workload.startswith("serve-"):
        props["store_hit_share"] = _store_hit_share(units)
    return props


def layer_metrics(workload: str, raw: Dict, import_ms: float) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from the traced leg.

    Times (``_ms``) and counts are per unit (mean over the traced units)
    unless the name says otherwise; a layer the workload never reaches
    reads 0.
    """
    from spans import LAYERS, layer_matrix

    trace = raw["trace"]
    summary = trace["summary"]
    n = max(1, summary["units"])
    stages = summary["stages"]
    counters = summary["counters"]

    def ms(*names: str) -> float:
        return sum(stages.get(x, {}).get("self_ms", 0.0) for x in names) / n

    def total_s(*names: str) -> float:
        return sum(stages.get(x, {}).get("total_ms", 0.0) for x in names) / 1000

    def count(name: str) -> float:
        return counters.get(name, 0) / n

    def pct(part: float, whole: float) -> float:
        return 100.0 * part / whole if whole else 0.0

    unit_ms = summary["unit_total_ms"]
    hits, misses = counters.get("passes.analysis_hits", 0), counters.get("passes.analysis_misses", 0)
    runtime_s = total_s("runtime.base_exec", "runtime.exec")
    m = {
        "startup.import_ms": import_ms,
        "frontend.lex_ms": ms("frontend.lex"),
        "frontend.parse_ms": ms("frontend.parse"),
        "frontend.sema_ms": ms("frontend.sema"),
        "frontend.tokens_per_s": counters.get("frontend.tokens", 0) / total_s("frontend.lex")
        if total_s("frontend.lex") else 0.0,
        "ir.lower_ms": ms("ir.lower"),
        "ir.verify_ms": ms("ir.verify"),
        "ir.instrs_lowered": count("ir.instrs_lowered"),
        "ssa.essa_ms": ms("ssa.essa"),
        "ssa.instrs_essa": count("ssa.instrs_essa"),
        "opt.worklist_ms": ms("opt.worklist"),
        "opt.instructions_visited": count("opt.instructions_visited"),
        "passes.guard_clone_ms": ms("passes.guard_clone"),
        "passes.guard_verify_ms": ms("passes.guard_verify"),
        "passes.guard_share": pct(total_s("passes.guard_clone", "passes.guard_verify") * 1000,
                                  unit_ms),
        "passes.analysis_ms": ms("passes.analysis"),
        "passes.analysis_hit_pct": pct(hits, hits + misses),
        "core.graph_ms": ms("core.graph"),
        "core.solve_ms": ms("core.solve"),
        "core.solver_steps": count("core.solver_steps"),
        "core.checks_analyzed": count("core.checks_analyzed"),
        "core.eliminated_pct": pct(counters.get("core.checks_eliminated", 0),
                                   counters.get("core.checks_analyzed", 0)),
        "core.pre_ms": ms("core.pre"),
        "core.budget_exhausted": count("core.budget_exhausted"),
        "certify.replay_ms": ms("certify.replay"),
        "certify.accepted": count("certify.accepted"),
        "certify.rejected": count("certify.rejected"),
        "runtime.profile_ms": ms("runtime.profile"),
        "runtime.base_exec_ms": ms("runtime.base_exec"),
        "runtime.exec_ms": ms("runtime.exec"),
        "runtime.instrs": count("runtime.instrs"),
        "runtime.minstr_per_s": counters.get("runtime.instrs", 0) / runtime_s / 1e6
        if runtime_s else 0.0,
        "runtime.checks_executed": count("runtime.checks_executed"),
        "robustness.gate_ms": ms("robustness.gate"),
        "robustness.gate_share": pct(total_s("robustness.gate") * 1000, unit_ms),
        "store.fingerprint_ms": ms("store.fingerprint"),
        "store.load_ms": ms("store.load"),
        "store.put_ms": ms("store.put"),
        "trace.overhead_pct": pct(unit_ms - trace["untraced_total_ms"], trace["untraced_total_ms"]),
    }
    serving = workload.startswith("serve-")
    serve = serve_metrics(raw) if serving else {}
    for name in ("serve.inproc_ms", "serve.overhead_ms", "serve.cold_worker_ms",
                 "serve.respawns", "serve.retried", "serve.worker_failures",
                 "serve.queue_depth_peak", "store.hit_pct", "store.rejected"):
        m[name] = serve.get(name, 0.0)
    extra_ms, scale = {}, 1.0
    if serving:
        extra_ms = {"serve": serve["overhead_total_ms"]}
        scale = trace["untraced_total_ms"] / unit_ms if unit_ms else 1.0
    shares = layer_matrix(summary, extra_ms, scale)
    for layer in LAYERS:
        m[f"layer.{layer}.share_pct"] = shares[layer]
        self_ms = summary["layers"].get(layer, {}).get("self_ms", 0.0) * scale
        m[f"layer.{layer}.self_ms"] = (self_ms + extra_ms.get(layer, 0.0)) / n
    return m


def serve_metrics(raw: Dict) -> Dict[str, float]:
    """Wire-side serve numbers: in-process cost of the sent requests, the
    overhead between wire and in-process latency (queue, dispatch,
    framing, IPC), cold workers, the service's counters."""
    units = raw["units"]
    trace = raw["trace"]
    counters = raw["counters"]
    p50 = _median([u["ms"] for u in units])
    replayed = list(zip(trace["wire_ms"], trace["untraced_ms"]))
    out: Dict[str, float] = {
        "serve.inproc_ms": _median([i for _, i in replayed]),
        "serve.overhead_ms": _median([w - i for w, i in replayed]),
        "overhead_total_ms": sum(max(0.0, w - i) for w, i in replayed),
    }
    out["serve.cold_worker_ms"] = _median([u["ms"] - p50 for u in units if u.get("served") == 1])
    out["serve.respawns"] = counters.get("serve.recycled", 0) + counters.get("serve.deadline-kills", 0)
    out["serve.retried"] = counters.get("serve.retried", 0)
    out["serve.worker_failures"] = counters.get("serve.worker-failures", 0)
    out["serve.queue_depth_peak"] = counters.get("serve.overload.queue-depth_peak", 0)
    out["store.hit_pct"] = 100.0 * _store_hit_share(units)
    out["store.rejected"] = counters.get("serve.cache.rejected", 0)
    return out


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------


def combine(runs: List[Dict], key: str) -> Dict[str, float]:
    names = runs[0].get(key, {})
    return {name: _median([r[key][name] for r in runs]) for name in names}


def print_workload(workload: str, runs: List[Dict], config: Dict) -> List[str]:
    """Print one workload's table; returns the spread violations."""
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    first = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wall = sum(r["wall_s"] for r in runs)
    print(f"== {workload}  seed {first['seed']}  runs {len(runs)}  "
          f"units {attempted}  failed {failed}  wall {wall:.1f} s")
    violations = []
    medians = combine(runs, "metrics")
    for name, value in medians.items():
        line = f"  {name:<28}{value:>14.4f} {units[name]}"
        if len(runs) > 1:
            s = spread([r["metrics"][name] for r in runs])
            line += f"   spread {s:.3f} (bound {bounds[name]})"
            if s > bounds[name]:
                line += "  EXCEEDS BOUND"
                violations.append(f"{workload} {name}")
        print(line)
    for name, (_, unit) in first["extra"].items():
        print(f"  {name:<28}{_median([r['extra'][name][0] for r in runs]):>14.4f} {unit}")
    if "layers" in first:
        for name, value in combine(runs, "layers").items():
            print(f"  {name:<36}{value:>14.4f} {units[name]}")
    print(f"  inputs: {json.dumps(first['manifest'], sort_keys=True)}")
    for failure in first["failures"]:
        print(f"  FAILED {failure}")
    return violations


def environment() -> Dict:
    commit = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def parse_args(argv: Optional[List[str]], run_seconds: float):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", action="append", default=[],
                        help=f"workloads to run, comma-separated or repeated "
                        f"(default: all of {', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help=f"measured time per run "
                        f"(default {run_seconds:g}, smoke {SMOKE_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: add a traced leg and report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write every run as JSON (compare.py input)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, seconds-long run")
    args = parser.parse_args(argv)
    args.chosen = [name.strip() for value in args.workload for name in value.split(",")
                   if name.strip()] or list(WORKLOADS)
    for name in args.chosen:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else run_seconds
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not CONFIG_PATH.is_file():
        print(f"run.py: no package at {SRC / 'repro'} (or no {CONFIG_PATH.name}); "
              "run the benchmark from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = json.loads(CONFIG_PATH.read_text())
    args = parse_args(argv, config["run_seconds"])
    pin_to_one_cpu()
    started = time.perf_counter()
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    results: Dict[str, List[Dict]] = {}
    violations: List[str] = []
    try:
        for workload in args.chosen:
            runs = [run_workload(workload, args.seed, args.seconds, args.trace, args.smoke,
                                 work_dir) for _ in range(args.repeat)]
            results[workload] = runs
            violations += print_workload(workload, runs, config)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if args.out:
        payload = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                   "trace": args.trace, "environment": environment(),
                   "workloads": {w: {"runs": runs, "median": combine(runs, "metrics"),
                                     "layers_median": combine(runs, "layers")}
                                 for w, runs in results.items()}}
        pathlib.Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for runs in results.values() for r in runs)
    failed = sum(r["failed"] for runs in results.values() for r in runs)
    key = "layers" if args.trace else "metrics"
    if len(results) == 1:
        metrics = combine(next(iter(results.values())), key)
    else:
        metrics = {f"{w}:{name}": value for w, runs in results.items()
                   for name, value in combine(runs, key).items()}
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    if violations:
        print(f"spread above bound: {', '.join(violations)}")
    print(f"total wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name.split(":")[-1]]}
                    for name, value in metrics.items()},
    }))
    return 1 if failed or violations else 0


if __name__ == "__main__":
    sys.exit(main())
