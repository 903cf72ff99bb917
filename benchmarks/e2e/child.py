"""The measured process of one workload.

``python child.py --inputs FILE --seconds S --work-dir DIR``

For the in-process workloads this process *is* the workload: it imports
the package, prepares its inputs (run-corpus: compiles and optimizes
every program), completes one fixed probe unit, prints ``ready`` (the
parent times spawn -> ``ready`` as one set-up sample), samples the
machine's speed with the calibration kernels (``calibrate.py``) and,
unless ``--setup-only``, runs whole rounds of units in a closed loop until
``--seconds`` are used up.  Each unit calls one public entry point and is
checked against its reference after the clock stops; after each unit,
outside its time, one calibration kernel is timed, in both the
in-process and the serve workloads.  run-corpus then runs the paper's
whole pipeline once per program, untimed, for its quality numbers.

For the serve workloads this process is the one closed-loop client: it
spawns ``python -m repro serve --workers 2 --cache-dir <fresh dir>``
(set-up is spawn -> first response, taken ``--setup-count`` times after
one untimed warm-up spawn, each followed by a speed sample), then sends
one request at a time over the NDJSON stdio wire.  ``serve-hit`` first
sends every program once, untimed, so that each measured request is
served from the store.  Its max-RSS of waited-for children is the peak
RSS of the largest serve process.

With ``--trace 1`` the untraced leg is followed by every round again,
each unit untraced and then traced (for run-corpus: the pipeline of the
round's programs; for serve: the sent requests again,
through an in-process supervisor whose workers run in this process), and
the span summary joins the result.

The last line of stdout is the raw result as JSON; the parent turns it
into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

import spans
from calibrate import Calibrator
from workloads import unique_source

#: The serve pool size the service defaults to; no other flag is passed
#: besides a fresh store directory.
SERVE_WORKERS = 2
#: A response slower than this is counted missing and ends the run.
RESPONSE_TIMEOUT_S = 60.0
OUTCOME_KEYS = ("value", "trap", "check_id", "index", "length", "kind")


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


# ----------------------------------------------------------------------
# In-process units.  Each returns one record: {"name", "ms", "ok", ...}.
# ``measured`` is the context the timed part runs in: ``tracer.unit`` in
# the traced leg.
# ----------------------------------------------------------------------


def compile_unit(program: Dict, state: Dict, certify: bool, measured=nullcontext) -> Dict:
    """``CompilationSession().compile`` + ``.optimize`` of one program."""
    from repro.core.abcd import ABCDConfig
    from repro.ir.verifier import verify_program
    from repro.passes.session import CompilationSession

    record = {"name": program["name"], "ok": False, "lines": program["lines"]}
    started = time.perf_counter()
    try:
        with measured():
            session = CompilationSession(config=ABCDConfig(certify=certify))
            compiled = session.compile(program["source"])
            report = session.optimize(compiled)
        elapsed = time.perf_counter() - started
    except Exception as exc:  # a unit that raises is a failed unit
        record.update(ms=(time.perf_counter() - started) * 1000, error=_failure(exc))
        return record
    record.update(ms=elapsed * 1000, analyzed=report.analyzed,
                  eliminated=report.eliminated_count())
    try:
        verify_program(compiled)
    except Exception as exc:
        record["error"] = "verify: " + _failure(exc)
        return record
    if report.pass_failures:
        record["error"] = f"pass rollback: {report.pass_failures[0]}"
    elif certify and (report.certificates_rejected or report.revoked_count
                      or report.quarantined_functions):
        record["error"] = (f"certificates rejected={report.certificates_rejected} "
                           f"revoked={report.revoked_count}")
    elif state.setdefault(program["name"], record["eliminated"]) != record["eliminated"]:
        record["error"] = (f"eliminated {record['eliminated']} checks, the first "
                           f"compile eliminated {state[program['name']]}")
    else:
        record["ok"] = True
    return record


def prepare_run(program: Dict):
    """What a JIT does before the optimized code runs: compile, profile
    the unoptimized program, ABCD+PRE with that profile (the steps of
    ``run_benchmark(pre=True)`` that produce its optimized program)."""
    from repro.core.abcd import ABCDConfig
    from repro.passes.session import CompilationSession
    from repro.runtime.profiler import collect_profile

    session = CompilationSession(config=ABCDConfig(pre=True))
    compiled = session.compile(program["source"])
    session.optimize(compiled, profile=collect_profile(compiled, "main"))
    return compiled


def exec_unit(program: Dict, optimized, state: Dict, measured=nullcontext) -> Dict:
    """``run_program(optimized, "main")``: one run of the optimized code."""
    from repro.runtime.interpreter import run_program

    record = {"name": program["name"], "ok": False, "lines": program["lines"]}
    started = time.perf_counter()
    try:
        with measured():
            result = run_program(optimized, "main")
        elapsed = time.perf_counter() - started
    except Exception as exc:
        record.update(ms=(time.perf_counter() - started) * 1000, error=_failure(exc))
        return record
    checks = result.stats.total_checks
    record.update(ms=elapsed * 1000, instructions=result.stats.instructions, checks=checks)
    expected = program["ref"]["value"]
    if result.value != expected:
        record["error"] = f"main() returned {result.value}; expected {expected}"
    elif state.setdefault(program["name"], checks) != checks:
        record["error"] = (f"executed {checks} checks, the first run "
                           f"{state[program['name']]}")
    else:
        record["ok"] = True
    return record


def pipeline_unit(program: Dict, state: Dict, measured=nullcontext) -> Dict:
    """``run_benchmark(program, pre=True)``: profile, base run, ABCD+PRE,
    optimized run -- the paper's Figure-6 pipeline for one program.  Its
    optimized run must execute as many checks as the measured runs of
    ``exec_unit`` did (``state``)."""
    from repro.bench.corpus import BY_NAME
    from repro.bench.harness import run_benchmark

    record = {"name": program["name"], "ok": False, "lines": program["lines"]}
    started = time.perf_counter()
    try:
        with measured():
            result = run_benchmark(BY_NAME[program["name"]], pre=True)
        elapsed = time.perf_counter() - started
    except Exception as exc:
        record.update(ms=(time.perf_counter() - started) * 1000, error=_failure(exc))
        return record
    expected = program["ref"]["value"]
    measured_checks = state.get(program["name"], result.opt_stats.total_checks)
    record.update(ms=elapsed * 1000,
                  dyn_upper_removed=result.dynamic_upper_removed_fraction,
                  cycles_saved=result.cycle_improvement,
                  instructions=result.base_stats.instructions)
    if result.base_value != expected or result.opt_value != expected:
        record["error"] = (f"main() returned {result.base_value} unoptimized and "
                           f"{result.opt_value} optimized; expected {expected}")
    elif result.opt_stats.total_checks != measured_checks:
        record["error"] = (f"optimized run executed {result.opt_stats.total_checks} checks, "
                           f"the measured runs {measured_checks}")
    else:
        record["ok"] = True
    return record


def run_rounds(unit, rounds: List[List[int]], seconds: float, calibrator: Calibrator):
    """Closed loop over whole rounds until ``seconds`` are used up, one
    calibration kernel after every unit (its sample index goes into the
    unit's record as ``kernel``); returns the unit records and each
    round's wall time without the kernels.  A new round starts only while
    half a mean round still fits, so every run measures complete rounds."""
    records: List[Dict] = []
    round_times: List[float] = []
    start = time.perf_counter()
    for members in rounds:
        if round_times and (time.perf_counter() - start
                            + 0.5 * statistics.mean(round_times)) >= seconds:
            break
        round_start = time.perf_counter()
        kernels = 0.0
        for member in members:
            records.append(unit(member))
            kernel_start = time.perf_counter()
            records[-1]["kernel"] = calibrator.tick()
            kernels += time.perf_counter() - kernel_start
        round_times.append(time.perf_counter() - round_start - kernels)
    return records, round_times


def in_process(args, inputs: Dict) -> Optional[Dict]:
    programs = inputs["programs"]
    state: Dict = {}
    traced_unit = None
    if inputs["workload"] == "run-corpus":
        # Set-up prepares every program; a unit is one run of its
        # optimized code.  The pipeline that produced it runs once per
        # program after the measurement, for the quality numbers, and is
        # what the traced leg traces.
        optimized = [prepare_run(program) for program in programs]

        def unit(member, measured=nullcontext):
            return exec_unit(programs[member], optimized[member], state, measured)

        def traced_unit(member, measured=nullcontext):
            return pipeline_unit(programs[member], state, measured)
    else:
        certify = inputs["workload"] == "certify-scaled"

        def unit(member, measured=nullcontext):
            return compile_unit(programs[member], state, certify, measured)

    probe = unit(inputs["probe"])
    print("ready", flush=True)
    # The machine's speed right after set-up, which the parent divides
    # this process's set-up time by.
    calibrator = Calibrator()
    setup_slowdown = calibrator.sample()
    if args.setup_only:
        return {"setup_slowdown": setup_slowdown}
    state.clear()
    records, round_times = run_rounds(unit, inputs["rounds"], args.seconds, calibrator)
    if not probe["ok"]:
        records.append(probe)
    result = {"units": records, "round_s": round_times, "kernels": calibrator.ratios,
              "setup_slowdown": setup_slowdown,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if traced_unit is not None:
        result["pipeline"] = [traced_unit(member) for member in range(len(programs))]
    else:
        traced_unit = unit
    if args.trace:
        # The same rounds again, each unit untraced and then traced, for
        # up to ``--seconds``: the overhead estimate compares the two at
        # the same moment of machine speed.
        tracer = spans.Tracer()
        untraced_ms, checked = 0.0, []
        started = time.perf_counter()
        for members in inputs["rounds"][:len(round_times)]:
            if checked and time.perf_counter() - started >= args.seconds:
                break
            for member in members:
                plain = traced_unit(member)
                untraced_ms += plain["ms"]
                with spans.instrument(tracer):
                    checked += [plain, traced_unit(member, tracer.unit)]
        result["trace"] = trace_result(tracer, checked, untraced_ms)
    return result


def trace_result(tracer: spans.Tracer, checked: List[Dict], untraced_ms: float) -> Dict:
    return {"summary": tracer.summary(), "attempted": len(checked),
            "failed": sum(not r["ok"] for r in checked),
            "failures": [f"{r['name']}: {r.get('error')}" for r in checked if not r["ok"]][:5],
            "untraced_total_ms": untraced_ms}


# ----------------------------------------------------------------------
# Serve workloads: the closed-loop NDJSON client.
# ----------------------------------------------------------------------


class ServeProcess:
    """One ``repro serve`` process on stdio, in its own process group."""

    def __init__(self, cache_dir: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", str(SERVE_WORKERS),
             "--cache-dir", cache_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

    def request(self, frame: Dict) -> Optional[Dict]:
        """Send one frame and wait for its response (``None`` when none
        arrives in time)."""
        self.proc.stdin.write((json.dumps(frame) + "\n").encode())
        self.proc.stdin.flush()
        readable, _, _ = select.select([self.proc.stdout], [], [], RESPONSE_TIMEOUT_S)
        if not readable:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def stop(self) -> None:
        """EOF drains the supervisor and its workers; the process group is
        killed if that does not finish promptly."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def request_frame(workload: str, program: Dict, number: int) -> Dict:
    """Request ``number`` of a run: serve-hit compiles a stored program,
    serve-miss runs a program the store has never seen."""
    if workload == "serve-hit":
        return {"op": "compile", "id": number, "source": program["source"]}
    return {"op": "run", "id": number, "source": unique_source(program["source"], number)}


def check_response(workload: str, program: Dict, response: Optional[Dict], state: Dict,
                   priming: bool = False) -> Optional[str]:
    """Why a serve response is wrong, or ``None`` when it is right.

    serve-hit: a compile served from the store, eliminating as many checks
    as that program's priming compile (which records its counts in
    ``state``).  serve-miss: a run not served from the store whose outcome
    matches the unoptimized reference."""
    if response is None:
        return "no response"
    if response.get("status") != "ok":
        return f"status {response.get('status')}: {response.get('message', response.get('reason'))}"
    if response.get("mode") not in ("optimized", "cached"):
        return f"served {response.get('mode')} ({response.get('degraded_reason')})"
    cache = str(response.get("cache"))
    if workload == "serve-hit":
        counts = {"eliminated": response["report"]["eliminated"],
                  "analyzed": response["report"]["analyzed"]}
        if priming:
            state[program["name"]] = counts
            return None
        if cache != "hit":
            return f"not served from the store: cache {cache}"
        first = state[program["name"]]["eliminated"]
        return None if counts["eliminated"] == first else (
            f"eliminated {counts['eliminated']}, the priming compile {first}")
    if cache == "hit":
        return "a source never sent before was served from the store"
    ref = program["ref"]
    for key in OUTCOME_KEYS:
        if response.get(key) != ref.get(key):
            return f"{key}: got {response.get(key)!r}, reference {ref.get(key)!r}"
    return None


def serve_record(workload: str, program: Dict, response: Optional[Dict], state: Dict,
                 ms: float) -> Dict:
    record = {"name": program["name"], "ms": ms}
    error = check_response(workload, program, response, state)
    record["ok"] = error is None
    if error is not None:
        record["error"] = error
    if response is not None:
        record.update(served=response.get("served"), cache=response.get("cache"))
        if workload == "serve-hit" and record["ok"]:
            record.update(eliminated=state[program["name"]]["eliminated"],
                          analyzed=state[program["name"]]["analyzed"])
        elif isinstance(response.get("checks"), dict):
            record.update(checks=response["checks"]["total"], ref_checks=program["ref"]["checks"])
    return record


def prime(send, workload: str, programs: List[Dict], members: List[int], state: Dict) -> List[Dict]:
    """serve-hit: compile every program once so the store holds it;
    returns a failed record per priming request that went wrong."""
    if workload != "serve-hit":
        return []
    failed = []
    for member in sorted(members):
        response = send(request_frame(workload, programs[member], f"prime-{member}"))
        error = check_response(workload, programs[member], response, state, priming=True)
        if error is not None:
            failed.append({"name": programs[member]["name"], "ms": 0.0, "ok": False,
                           "error": f"priming: {error}"})
    return failed


def serve_client(args, inputs: Dict) -> Dict:
    workload = inputs["workload"]
    programs = inputs["programs"]
    probe = programs[inputs["probe"]]
    calibrator = Calibrator()
    setups: List[float] = []
    slowdowns: List[float] = []
    server = None
    for attempt in range(args.setup_count + 1):
        started = time.perf_counter()
        server = ServeProcess(tempfile.mkdtemp(prefix="cache-", dir=args.work_dir))
        response = server.request({"op": "compile", "id": "probe", "source": probe["source"]})
        setups.append(time.perf_counter() - started)
        if response is None or response.get("status") != "ok":
            server.stop()
            raise RuntimeError(f"serve probe failed: {response}")
        slowdowns.append(calibrator.sample())
        if attempt < args.setup_count:
            server.stop()
    state: Dict = {}
    sent: List[int] = []

    def unit(member):
        program = programs[member]
        frame = request_frame(workload, program, len(sent))
        started = time.perf_counter()
        response = server.request(frame)
        record = serve_record(workload, program, response, state,
                              (time.perf_counter() - started) * 1000)
        sent.append(member)
        if response is None:
            raise RuntimeError(f"serve stopped answering: {record['error']}")
        return record

    try:
        primed = prime(server.request, workload, programs, inputs["rounds"][0], state)
        records, round_times = run_rounds(unit, inputs["rounds"], args.seconds, calibrator)
        status = server.request({"op": "status", "id": "status"}) or {}
    finally:
        server.stop()
    result = {
        "units": records + primed, "round_s": round_times, "kernels": calibrator.ratios,
        # The first spawn warms the page cache and is not timed.
        "setup_s": setups[1:], "setup_slowdown": slowdowns[1:],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "counters": status.get("counters", {}),
    }
    if args.trace:
        result["trace"] = serve_replay(args, inputs, sent, records, state)
    return result


def serve_replay(args, inputs: Dict, sent: List[int], records: List[Dict],
                 state: Dict) -> Dict:
    """The sent requests again, for up to ``--seconds``, through
    ``Supervisor.handle_request`` in this process with the workers'
    request handler in this process too: each request untraced against
    one fresh store, then traced against another, so both stores see the
    same history."""
    from repro.serve.supervisor import ServeConfig, Supervisor

    workload = inputs["workload"]
    programs = inputs["programs"]

    def supervisor():
        sup = Supervisor(ServeConfig(workers=SERVE_WORKERS, cache_dir=tempfile.mkdtemp(
            prefix="replay-", dir=args.work_dir)))
        failed = prime(sup.handle_request, workload, programs, inputs["rounds"][0], dict(state))
        if failed:
            raise RuntimeError(f"in-process priming failed: {failed[0]['error']}")
        return sup

    tracer = spans.Tracer()
    untraced, checked = [], []
    with spans.in_process_workers():
        # Warm-up, untimed: the first requests pay the lazy imports of
        # their path, which the long-running workers paid long ago.
        warm = supervisor()
        for number, member in enumerate(sent[:2]):
            warm.handle_request(request_frame(workload, programs[member], number))
        warm.shutdown()
        plain, traced = supervisor(), supervisor()
        started = time.perf_counter()
        for number, member in enumerate(sent):
            if untraced and time.perf_counter() - started >= args.seconds:
                break
            program = programs[member]
            request_started = time.perf_counter()
            response = plain.handle_request(request_frame(workload, program, number))
            untraced.append((time.perf_counter() - request_started) * 1000)
            checked.append(serve_record(workload, program, response, state, untraced[-1]))
            with spans.instrument(tracer), tracer.unit():
                response = traced.handle_request(request_frame(workload, program, number))
            checked.append(serve_record(workload, program, response, state, 0.0))
        plain.shutdown()
        traced.shutdown()
    trace = trace_result(tracer, checked, sum(untraced))
    trace.update(untraced_ms=untraced, wire_ms=[r["ms"] for r in records[:len(untraced)]])
    return trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-count", type=int, default=1)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    with open(args.inputs) as handle:
        inputs = json.load(handle)
    if inputs["workload"].startswith("serve-"):
        result = serve_client(args, inputs)
    else:
        result = in_process(args, inputs)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
