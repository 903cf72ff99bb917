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

A worker armed for chaos (:data:`CHAOS_ENV`) runs the fault a request
names in its ``"chaos"`` field, importing the fault tables
(:data:`repro.robustness.faults.CHAOS_FAULTS`) only then.  Faults inject
only on the *optimized* path: they model optimizer bugs, and the
degraded path is exactly the code that must stay trustworthy when the
optimizer is not.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, Optional

from repro.core.abcd import ABCDConfig
from repro.errors import ReproError
from repro.limits import HardDeadlineExceeded, address_space_cap, hard_deadline
from repro.serve import protocol

#: Environment variable that arms chaos: set (non-empty) ⇒ the worker
#: runs each request's named ``"chaos"`` fault; unset ⇒ the field is
#: ignored, so production servers cannot be fault-injected by a client.
CHAOS_ENV = "REPRO_SERVE_CHAOS"


def _execute(program, fn: str, args, fuel: int) -> Dict[str, Any]:
    """Run ``fn(args)`` and capture outcome *and* dynamic counters, which
    survive a trap: a degraded response must report its intact checks
    even when the program traps."""
    from repro.robustness.differential import execute_counted

    outcome, stats = execute_counted(program, fn, tuple(args), fuel)
    return {
        **vars(outcome),
        "checks": {
            "total": stats.total_checks,
            "lower": stats.lower_checks,
            "upper": stats.upper_checks,
            "speculative": stats.speculative_checks,
        },
        "instructions": stats.instructions,
    }


def _maybe_inject_chaos(
    chaos: Optional[bool],
    frame: Dict[str, Any],
    mem_cap_applied: bool,
) -> None:
    """Fire the request's named chaos fault, when armed, at the
    mid-compile injection point."""
    name = frame.get("chaos")
    if not (chaos and name):
        return
    from repro.robustness.faults import CHAOS_FAULTS, ChaosContext

    spec = CHAOS_FAULTS.get(name)
    if spec is not None:
        spec.inject(
            ChaosContext(raw_write=_raw_write, mem_cap_applied=mem_cap_applied)
        )


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
    chaos: Optional[bool],
    mem_cap_applied: bool,
    served: int,
) -> Dict[str, Any]:
    """One ``run``/``compile`` request → one response payload.

    A true ``chaos`` arms the frame's named fault; ``None`` or ``False``
    disarms it.

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
    chaos: Optional[bool],
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
    chaos: Optional[bool],
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
            config = ABCDConfig()
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
    chaos = bool(os.environ.get(CHAOS_ENV))

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
