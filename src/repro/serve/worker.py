"""The compile-service worker subprocess (``python -m repro.serve.worker``).

One worker serves one request at a time: frames arrive on stdin, the
response leaves on stdout, and *everything dangerous happens here* — the
supervisor never compiles, optimizes, or interprets in its own process.
The worker's defenses are layered:

* an ``RLIMIT_AS`` address-space cap (``--mem-mb``) turns allocation
  blowups into a contained ``MemoryError`` → ``"failure"`` response;
* the optimized path runs behind the in-process safety net (pass guards
  plus the differential gate), so a logically wrong optimization
  degrades to the unoptimized program before it can answer wrongly;
* anything still escaping — a genuine crash, a hang, a corrupted frame —
  is the supervisor's problem, by design: it deadline-kills and respawns
  this whole process.

Degraded mode (``"mode": "degraded"``) compiles with no optimization at
all — plain lowering + e-SSA, every bounds check intact — which is
byte-identical in behavior to the unoptimized reference interpreter.
Chaos faults (:data:`repro.robustness.faults.CHAOS_FAULTS`) inject only
on the *optimized* path: they model optimizer bugs, and the degraded
path is exactly the code that must stay trustworthy when the optimizer
is not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Optional

from repro.core.abcd import ABCDConfig
from repro.errors import MiniJRuntimeError, ReproError
from repro.limits import HardDeadlineExceeded, address_space_cap, hard_deadline
from repro.robustness.faults import CHAOS_FAULTS, ChaosContext, decide_chaos_fault
from repro.serve import protocol

#: Environment variable carrying the chaos configuration (JSON object
#: with ``rate``/``seed``/``faults``/``slow_seconds`` keys).  Unset or
#: unparsable ⇒ chaos disabled; explicit per-request ``"chaos"`` fields
#: are honored only while this is set, so production servers cannot be
#: fault-injected by a client.
CHAOS_ENV = "REPRO_SERVE_CHAOS"


def _load_chaos_config() -> Optional[Dict[str, Any]]:
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return None
    try:
        config = json.loads(raw)
    except ValueError:
        return None
    return config if isinstance(config, dict) else {}


def _execute(program, fn: str, args, fuel: int) -> Dict[str, Any]:
    """Run ``fn(args)`` and capture outcome *and* dynamic counters.

    Uses the :class:`Interpreter` object directly (not ``run_program``)
    so the check/instruction counters survive a trap — a degraded
    response must report its intact checks even when the program traps.
    """
    from repro.errors import BoundsCheckError
    from repro.runtime.interpreter import Interpreter

    interp = Interpreter(program, fuel=fuel)
    outcome: Dict[str, Any] = {
        "value": None,
        "trap": None,
        "trap_message": "",
        "check_id": None,
        "index": None,
        "length": None,
        "kind": None,
    }
    try:
        result = interp.run(fn, tuple(args))
        outcome["value"] = result.value
    except BoundsCheckError as exc:
        outcome.update(
            trap=type(exc).__name__,
            trap_message=str(exc),
            check_id=exc.check_id,
            index=exc.index,
            length=exc.length,
            kind=exc.kind,
        )
    except MiniJRuntimeError as exc:
        outcome.update(trap=type(exc).__name__, trap_message=str(exc))
    stats = interp.stats
    outcome["checks"] = {
        "total": stats.total_checks,
        "lower": stats.lower_checks,
        "upper": stats.upper_checks,
        "speculative": stats.speculative_checks,
    }
    outcome["instructions"] = stats.instructions
    return outcome


def _maybe_inject_chaos(
    chaos: Optional[Dict[str, Any]],
    frame: Dict[str, Any],
    mem_cap_applied: bool,
) -> None:
    """Fire at most one chaos fault at the mid-compile injection point."""
    if chaos is None:
        return
    name = frame.get("chaos")
    if not name:
        name = decide_chaos_fault(
            seed=int(chaos.get("seed", 0)),
            request_id=frame.get("id"),
            attempt=int(frame.get("attempt", 0)),
            rate=float(chaos.get("rate", 0.0)),
            names=chaos.get("faults"),
        )
    spec = CHAOS_FAULTS.get(name) if name else None
    if spec is None:
        return
    context = ChaosContext(
        raw_write=_raw_write,
        slow_seconds=float(chaos.get("slow_seconds", 0.05)),
        mem_cap_applied=mem_cap_applied,
    )
    spec.inject(context)


def _raw_write(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _attach_store_entry(
    response: Dict[str, Any],
    capture,
    report,
    frame: Dict[str, Any],
    program,
) -> None:
    """Attach a captured store entry to a capture-requested response.

    The supervisor owns the store handle; the worker only ships the
    entry's payload object back over its response frame.  Uncacheable
    results (gate revert, pass failure, quarantined function, uncertified
    elimination) ship nothing — the store just stays cold for the key.
    Entries that would push the frame past the protocol cap are dropped
    too: losing a cache write must never lose the response.
    """
    from repro.store.entry import entry_payload

    if report.pass_failures:
        capture.mark_uncacheable("pass failures during optimization")
    if report.quarantined_functions:
        capture.mark_uncacheable("certify quarantined a function")
    entry = capture.build_entry(frame.get("fingerprint", ""), program)
    if entry is None:
        response["store_uncacheable"] = capture.reason or "not captured"
        return
    try:
        payload = entry_payload(entry)
        response["store_entry"] = payload
        protocol.encode_frame(response)  # size probe against the frame cap
    except (protocol.ProtocolError, RecursionError, ValueError, TypeError):
        response.pop("store_entry", None)
        response["store_uncacheable"] = "entry exceeds response frame cap"


def _deadline_budget(frame: Dict[str, Any]) -> Optional[float]:
    """The request's remaining deadline budget (seconds), or ``None``.

    Set by the supervisor when the client attached ``deadline_ms`` and
    its remaining budget undercuts the per-attempt deadline — the worker
    then bounds its own effort by what the caller will actually wait for.
    Garbage values (a forged frame) disable the budget rather than crash.
    """
    budget = frame.get("deadline_budget")
    if isinstance(budget, bool) or not isinstance(budget, (int, float)):
        return None
    return float(budget) if budget > 0 else None


def _serve_request(
    frame: Dict[str, Any],
    chaos: Optional[Dict[str, Any]],
    mem_cap_applied: bool,
    served: int,
) -> Dict[str, Any]:
    """One ``run``/``compile`` request → one response payload.

    When the frame carries a ``deadline_budget`` the whole body runs
    under :func:`repro.limits.hard_deadline` for that many seconds — the
    worker-side backstop of deadline layering.  The supervisor's pipe
    deadline uses the *same* minimum, so the two timers agree instead of
    racing; whichever fires first yields the same verdict (a retryable
    ``failure``), and the solver's own ``ABCDConfig.deadline`` is capped
    by the same budget so a proof session lands under both.
    """
    budget = _deadline_budget(frame)
    try:
        with hard_deadline(budget):
            return _serve_request_body(
                frame, chaos, mem_cap_applied, served, budget
            )
    except HardDeadlineExceeded:
        return {
            "id": frame.get("id"),
            "status": "failure",
            "reason": "deadline",
            "message": f"worker exceeded the {budget:.3f}s request budget",
        }


def _serve_contained(
    frame: Dict[str, Any],
    chaos: Optional[Dict[str, Any]],
    mem_cap_applied: bool,
    served: int,
) -> Dict[str, Any]:
    """:func:`_serve_request` behind the last-ditch handler: an exception
    it lets escape becomes one ``internal`` failure response instead of
    ending the worker loop or the supervisor's inline fallback."""
    try:
        return _serve_request(frame, chaos, mem_cap_applied, served)
    except Exception as exc:
        return {
            "id": frame.get("id"),
            "status": "failure",
            "reason": "internal",
            "message": f"{type(exc).__name__}: {exc}",
        }


def _serve_request_body(
    frame: Dict[str, Any],
    chaos: Optional[Dict[str, Any]],
    mem_cap_applied: bool,
    served: int,
    budget: Optional[float] = None,
) -> Dict[str, Any]:
    """One ``run``/``compile`` request → one response payload."""
    from repro.passes.session import CompilationSession
    from repro.robustness.differential import gated_optimize

    request_id = frame.get("id")
    op = frame["op"]
    source = frame.get("source", "")  # absent on cached dispatch
    fn = frame.get("fn", "main")
    args = frame.get("args", [])
    mode = frame.get("mode", "optimized")
    fuel = int(frame.get("fuel", 50_000_000))

    response: Dict[str, Any] = {
        "id": request_id,
        "status": "ok",
        "op": op,
        "mode": mode,
        "served": served,
    }

    try:
        if mode == "cached":
            # A store hit: the supervisor already climbed the full load
            # ladder (envelope, fingerprint, IR verify, certificate
            # replay) and pushes the final optimized IR over the frame.
            # This worker only parses and executes it — no source
            # compile, no optimizer, no chaos (chaos models optimizer
            # bugs and the optimizer never ran here).
            from repro.ir.parser import parse_ir_program
            from repro.ir.verifier import verify_program

            program = parse_ir_program(frame.get("ir", ""))
            verify_program(program)
            response["report"] = {
                "analyzed": 0,
                "eliminated": int(frame.get("eliminated", 0)),
                "rollbacks": 0,
            }
        elif mode == "degraded":
            # Pure lowering + e-SSA: no standard opts, no ABCD, every
            # check intact — the unoptimized reference behavior.
            session = CompilationSession()
            program = session.compile(source, standard_opts=False)
            response["report"] = {"analyzed": 0, "eliminated": 0, "rollbacks": 0}
        else:
            _maybe_inject_chaos(chaos, frame, mem_cap_applied)
            capture = None
            config = ABCDConfig(
                solver_backend=str(frame.get("solver", "demand"))
            )
            if budget is not None:
                # The solver's proof-session deadline is capped by the
                # request budget: compile effort bounded by what the
                # caller will wait for (a budget-exhausted session keeps
                # its checks — slower, never wrong).
                config.deadline = (
                    budget
                    if config.deadline is None
                    else min(config.deadline, budget)
                )
            if frame.get("cache") == "capture":
                # The supervisor missed the store on this fingerprint:
                # certify is forced on (stored entries must carry
                # replayable certificates) and the pre-removal state is
                # captured so the response can carry a store entry.
                from repro.store.capture import StoreCapture
                from repro.store.service import certifying_config

                capture = StoreCapture()
                config = certifying_config(config)
            session = CompilationSession(config=config)
            program = session.compile(
                source, standard_opts=True, inline=bool(frame.get("inline", False))
            )
            if op == "run":
                # Optimize behind the differential gate on the request's
                # own input: a divergent optimization reverts to the
                # checked baseline before it can answer.
                gated = gated_optimize(
                    program,
                    session.config,
                    entry=fn,
                    inputs=(tuple(args),),
                    fuel=fuel,
                    capture=capture,
                )
                report = gated.report
                response["gate_reverted"] = gated.reverted
                if capture is not None and gated.reverted:
                    capture.mark_uncacheable("differential gate reverted")
            else:
                report = session.optimize(program, capture=capture)
            response["report"] = {
                "analyzed": report.analyzed,
                "eliminated": report.eliminated_count(),
                "rollbacks": len(report.pass_failures),
            }
            if capture is not None:
                _attach_store_entry(response, capture, report, frame, program)
    except ReproError as exc:
        # Deterministic user error (syntax/type/lowering): terminal, not
        # a worker failure — retrying cannot change the answer.
        return protocol.error_response(
            request_id, type(exc).__name__, str(exc), op=op
        )
    except MemoryError:
        return {
            "id": request_id,
            "status": "failure",
            "reason": "oom",
            "message": "worker memory cap exceeded during compile/optimize",
        }

    if op == "run":
        try:
            response.update(_execute(program, fn, args, fuel))
        except ReproError as exc:
            return protocol.error_response(
                request_id, type(exc).__name__, str(exc), op=op
            )
        except MemoryError:
            return {
                "id": request_id,
                "status": "failure",
                "reason": "oom",
                "message": "worker memory cap exceeded during execution",
            }
    return response


class _DrainRequested(Exception):
    """SIGTERM arrived while idle-reading: exit the serve loop now."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.serve.worker")
    parser.add_argument(
        "--mem-mb",
        type=int,
        default=0,
        help="RLIMIT_AS address-space cap in MiB (0 = uncapped)",
    )
    args = parser.parse_args(argv)

    mem_cap_applied = False
    if args.mem_mb > 0:
        mem_cap_applied = address_space_cap(args.mem_mb * 1024 * 1024)
    chaos = _load_chaos_config()

    # SIGTERM = drain, not drop: finish the in-flight request, write and
    # flush its response (which may carry a captured store entry — the
    # supervisor must never receive half a frame), then exit.  Only when
    # idle in readline does the handler interrupt immediately.
    drain = {"reading": False, "stop": False}

    def _on_sigterm(signum, _frame):
        drain["stop"] = True
        if drain["reading"]:
            raise _DrainRequested()

    try:
        import signal

        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):
        pass  # non-main thread (tests driving main() directly)

    stdin = sys.stdin.buffer
    served = 0
    while True:
        drain["reading"] = True
        try:
            line = stdin.readline()
        except _DrainRequested:
            return 0
        finally:
            drain["reading"] = False
        if not line:
            return 0  # supervisor closed our stdin: drain complete
        try:
            frame = protocol.decode_frame(line)
            op = frame.get("op")
            if op == "shutdown":
                return 0
            if op not in ("run", "compile"):
                raise protocol.ProtocolError(f"worker cannot serve op {op!r}")
        except protocol.ProtocolError as exc:
            _raw_write(
                protocol.encode_frame(
                    {
                        "id": None,
                        "status": "failure",
                        "reason": "protocol",
                        "message": str(exc),
                    }
                )
            )
            continue
        served += 1
        response = _serve_contained(frame, chaos, mem_cap_applied, served)
        _raw_write(protocol.encode_frame(response))
        if drain["stop"]:
            return 0  # drained: response flushed, exit cleanly


if __name__ == "__main__":
    sys.exit(main())
