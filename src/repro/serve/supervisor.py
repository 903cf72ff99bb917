"""The compile-service supervisor: worker pool, deadlines, retries,
circuit breaking, and graceful degradation.

The supervisor is the process that must never die.  It therefore does no
compilation work itself: every ``run``/``compile`` request that needs a
compile or an execution is written to a worker subprocess and the
response read back under a **supervisor-side wall-clock deadline** (a
``select`` timeout on the worker's pipe — not ``SIGALRM``, which fires
in whichever process armed it and so cannot bound a *different*
process's hang).  A worker that misses its deadline, dies, or answers
with a malformed frame is SIGKILLed and replaced; the request is retried
on a fresh worker with bounded exponential backoff.

With a certificate store (``cache_dir``) the supervisor owns the store
and climbs its zero-trust load ladder itself: parse, verify and
certificate replay, analysis of durable bytes that runs no user code.  A
``compile`` hit needs nothing more and is answered by the supervisor, so
its response has no worker ``served`` count; a ``run`` hit ships the
proven IR to a worker (mode ``"cached"``) to execute.

When a request's optimized attempts are exhausted, or its function
fingerprint's circuit breaker is open, the request is served *degraded*:
compiled without optimization, every bounds check intact, behaviorally
identical to the unoptimized interpreter.  Degradation is the floor the
service can always reach — if even degraded dispatch fails (the pool is
being actively massacred), the supervisor compiles degraded *in-process*
as the final fallback, so no request is ever lost.

Workers are recycled after ``recycle_after`` requests (a leaking or
fragmenting worker has a bounded lifetime) and drained cleanly on
SIGTERM/SIGINT: the in-flight request finishes, workers get a shutdown
frame, stragglers are killed, telemetry is flushed.

All per-request outcomes fold into ``SessionStats.counters`` under the
``serve.*`` prefix, surfaced by ``status`` requests and ``repro serve
--json`` telemetry.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.passes.manager import SessionStats
from repro.serve import protocol
from repro.serve.breaker import CircuitBreaker, function_fingerprint
from repro.serve.overload import (
    LEVEL_FULL,
    LEVEL_NO_CERTIFY,
    LEVEL_SHED,
    LEVEL_UNOPTIMIZED,
    OverloadConfig,
    OverloadController,
)
from repro.serve.worker import CHAOS_ENV


@dataclass
class ServeConfig:
    """Supervisor policy knobs (all surfaced as ``repro serve`` flags)."""

    workers: int = 2
    #: Wall-clock deadline per worker attempt (compile + execute).
    deadline: float = 10.0
    #: Worker address-space cap in MiB (0 = uncapped).
    mem_mb: int = 512
    #: Optimized attempts per request beyond the first.
    retries: int = 2
    #: Exponential backoff between retries: ``base * 2**(attempt-1)``,
    #: capped at ``backoff_cap``.
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    #: Recycle a worker after this many requests (0 = never).
    recycle_after: int = 64
    #: Consecutive request-level failures that open a fingerprint's breaker.
    breaker_threshold: int = 3
    #: Seconds an open breaker waits before admitting a half-open probe.
    breaker_cooldown: float = 30.0
    #: Interpreter fuel forwarded to workers.
    fuel: int = 50_000_000
    #: Compile degraded in-process when even degraded dispatch fails.
    inline_fallback: bool = True
    #: Solver backend workers analyze with (``demand``/``closure``/
    #: ``hybrid``); part of the store fingerprint, so cached entries
    #: produced under one setting never answer requests under another.
    solver: str = "demand"
    #: Chaos configuration forwarded to workers via the environment
    #: (``None`` in production: workers then ignore ``"chaos"`` fields).
    chaos: Optional[Dict[str, Any]] = None
    #: Root of the persistent certificate store (``None`` = no cache).
    #: The supervisor owns the store handle: it loads (and certificate-
    #: replays) entries, answers compile hits itself, pushes run hits to
    #: workers for execution, and writes entries captured by workers on
    #: misses.  Open circuit breakers are persisted here too, so a
    #: supervisor restart does not forget them.
    cache_dir: Optional[str] = None
    #: Overload control (see :mod:`repro.serve.overload`): admission
    #: queue bound, ladder watermarks/window/hysteresis, backpressure
    #: hint.  ``overload_enabled=False`` restores the pre-overload
    #: unbounded-queue behavior (the burst storm's baseline leg).
    overload_enabled: bool = True
    queue_capacity: int = 64
    overload_watermarks: Tuple[float, float, float] = (0.5, 2.0, 8.0)
    overload_window: float = 5.0
    overload_hysteresis: float = 0.5
    retry_after: float = 0.25
    #: Seed of the supervisor's jitter RNG (retry backoff + breaker
    #: cooldown jitter); injectable so storms are byte-reproducible.
    jitter_seed: int = 0
    #: Breaker cooldown full-jitter fraction (0 disables).
    breaker_jitter: float = 0.1
    #: Thread per-request ``deadline_ms`` remaining budgets into worker
    #: read timeouts and worker-side hard deadlines.  The virtual-clock
    #: burst storm turns this off: its "seconds" are simulated, and an
    #: alarm armed with a simulated budget would race real compile time
    #: nondeterministically.  Queue-side expiry shedding stays on either
    #: way — it only compares supervisor-clock timestamps.
    propagate_deadlines: bool = True


class WorkerDied(Exception):
    """The worker exited / closed its pipe before answering."""


class WorkerTimeout(Exception):
    """The worker missed the supervisor-side deadline."""


class WorkerHandle:
    """One worker subprocess plus its framed pipes."""

    def __init__(self, config: ServeConfig) -> None:
        argv = [sys.executable, "-m", "repro.serve.worker"]
        if config.mem_mb > 0:
            argv += ["--mem-mb", str(config.mem_mb)]
        env = dict(os.environ)
        # Workers must import repro regardless of how the supervisor was
        # launched (installed package or PYTHONPATH=src checkout).
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        if config.chaos is not None:
            import json

            env[CHAOS_ENV] = json.dumps(config.chaos)
        else:
            env.pop(CHAOS_ENV, None)
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        self.served = 0
        self._buffer = b""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def send(self, frame: Dict[str, Any]) -> None:
        try:
            self.proc.stdin.write(protocol.encode_frame(frame))
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise WorkerDied(f"worker {self.pid} pipe closed: {exc}") from None

    def read_frame(self, timeout: float, clock=time.monotonic) -> Dict[str, Any]:
        """Read one response frame, bounded by ``timeout`` seconds.

        Raises :class:`WorkerTimeout` when the deadline passes,
        :class:`WorkerDied` on EOF, and
        :class:`~repro.serve.protocol.ProtocolError` on garbage.
        """
        fd = self.proc.stdout.fileno()
        deadline = clock() + timeout
        while b"\n" not in self._buffer:
            if len(self._buffer) > protocol.MAX_FRAME_BYTES:
                raise protocol.ProtocolError(
                    f"worker {self.pid} response exceeds the frame cap"
                )
            remaining = deadline - clock()
            if remaining <= 0:
                raise WorkerTimeout(
                    f"worker {self.pid} exceeded the {timeout:.1f}s deadline"
                )
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue  # re-check the clock; EINTR also lands here
            chunk = os.read(fd, 65536)
            if not chunk:
                raise WorkerDied(f"worker {self.pid} closed its pipe mid-request")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return protocol.decode_frame(line)

    def kill(self) -> None:
        if self.alive():
            try:
                self.proc.kill()
            except OSError:
                pass
        self._close_pipes()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass

    def shutdown(self, grace: float = 1.0) -> None:
        """Polite drain: shutdown frame, short wait, then the hammer."""
        if self.alive():
            try:
                self.send({"op": "shutdown"})
            except WorkerDied:
                pass
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass


class _DrainRequested(Exception):
    """Raised inside a blocking client read when SIGTERM/SIGINT arrives."""


class Supervisor:
    """Owns the worker pool and serves requests through it."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        stats: Optional[SessionStats] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.stats = stats if stats is not None else SessionStats()
        #: Seeded jitter source shared by retry backoff and the breaker
        #: cooldown extension (one seed, one deterministic draw order).
        self.rng = random.Random(self.config.jitter_seed)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            clock=clock,
            jitter=self.config.breaker_jitter,
            rng=self.rng,
        )
        self.overload = OverloadController(
            OverloadConfig(
                enabled=self.config.overload_enabled,
                queue_capacity=self.config.queue_capacity,
                watermarks=self.config.overload_watermarks,
                window=self.config.overload_window,
                hysteresis_ratio=self.config.overload_hysteresis,
                retry_after=self.config.retry_after,
            ),
            stats=self.stats,
        )
        #: Optional per-dispatch hook (outcome: "response" | "timeout" |
        #: "failure").  The burst storm injects a virtual-clock advance
        #: here so service time is deterministic simulated time.
        self.dispatch_tick: Optional[Callable[[str], None]] = None
        self.pool: List[WorkerHandle] = []
        #: The persistent certificate store (opened by :meth:`start` when
        #: ``config.cache_dir`` is set; ``None`` = caching disabled).
        self.store = None
        self._clock = clock
        self._sleep = sleep
        self._next_slot = 0
        self._request_counter = 0
        self._stop = False
        self._reading_client = False
        self._started = False

    # ------------------------------------------------------------------
    # Pool lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        if self.config.cache_dir and self.store is None:
            try:
                from repro.store.store import CertStore

                # Opening runs the recovery scan: stray temporaries from a
                # worker SIGKILLed (or supervisor crashed) mid-write are
                # deleted before the first request.
                self.store = CertStore(self.config.cache_dir)
                self._load_breakers()
            except OSError:
                # An unusable cache directory degrades to no caching —
                # never to a supervisor that cannot start.
                self.store = None
                self.stats.bump("serve.cache.disabled")
        for _ in range(max(1, self.config.workers)):
            self.pool.append(WorkerHandle(self.config))
        self._started = True

    def shutdown(self) -> None:
        """Drain the pool: polite shutdown frames, then SIGKILL.

        Breaker state is persisted first; the store itself needs no
        flush — every committed entry was already fsynced into place by
        the atomic write protocol."""
        self._persist_breakers()
        for worker in self.pool:
            worker.shutdown()
        self.pool.clear()
        self._started = False

    # ------------------------------------------------------------------
    # Breaker persistence (rides in the cache directory).
    # ------------------------------------------------------------------

    def _breaker_path(self) -> str:
        return os.path.join(self.config.cache_dir, "breakers.json")

    def _load_breakers(self) -> None:
        import json

        try:
            with open(self._breaker_path(), "rb") as handle:
                payload = json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError):
            return  # absent or unreadable snapshot: start fresh
        restored = self.breaker.restore(payload)
        if restored:
            self.stats.bump("serve.breakers-restored", restored)

    def _persist_breakers(self) -> None:
        if self.store is None:
            return
        import json

        from repro.store import atomic

        try:
            data = json.dumps(
                self.breaker.to_persist(), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            atomic.atomic_write_bytes(
                self._breaker_path(), data, tmp_dir=str(self.store.tmp_dir)
            )
        except (OSError, ValueError, TypeError):
            self.stats.bump("serve.breaker-persist-errors")

    def _checkout_worker(self) -> WorkerHandle:
        """Round-robin over the pool, replacing dead workers on the way."""
        self.start()
        slot = self._next_slot % len(self.pool)
        self._next_slot += 1
        worker = self.pool[slot]
        if not worker.alive():
            worker = self._replace_worker(slot)
        return worker

    def _replace_worker(self, slot: int) -> WorkerHandle:
        self.pool[slot].kill()
        self.pool[slot] = WorkerHandle(self.config)
        self.stats.bump("serve.respawned")
        return self.pool[slot]

    def _slot_of(self, worker: WorkerHandle) -> int:
        return self.pool.index(worker)

    def _maybe_recycle(self, worker: WorkerHandle) -> None:
        limit = self.config.recycle_after
        if limit > 0 and worker.served >= limit and worker in self.pool:
            slot = self._slot_of(worker)
            worker.shutdown(grace=0.5)
            self.pool[slot] = WorkerHandle(self.config)
            self.stats.bump("serve.recycled")

    # ------------------------------------------------------------------
    # Request handling.
    # ------------------------------------------------------------------

    def handle_request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one client frame synchronously; always returns a frame.

        Convenience wrapper over the queued path: admission control runs
        (so overload policy applies even to synchronous callers), then
        the queue is drained.  The last response produced belongs to this
        frame — either its service result, or its own shed response.
        """
        immediate = self.submit(frame)
        if immediate is not None:
            return immediate
        results = self.process_queue()
        return results[-1][1]

    def submit(
        self, frame: Dict[str, Any], arrived_at: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Admission control for one client frame.

        Returns a response to send *now* — a protocol error, a
        ``status``/``shutdown`` result, or an overload shed with a
        ``retry_after`` hint — or ``None`` when the request was admitted
        to the bounded queue.  ``arrived_at`` lets open-loop drivers
        stamp the true arrival time (supervisor clock) even when they
        pour a backlog of due arrivals in after a service step.
        """
        self.stats.bump("serve.requests")
        try:
            if not isinstance(frame, dict):
                raise protocol.ProtocolError(
                    f"request must be a JSON object, got {type(frame).__name__}"
                )
            frame = protocol.validate_request(dict(frame))
        except protocol.ProtocolError as exc:
            self.stats.bump("serve.protocol-errors")
            return protocol.error_response(
                frame.get("id") if isinstance(frame, dict) else None,
                "ProtocolError",
                str(exc),
            )
        if frame.get("id") is None:
            self._request_counter += 1
            frame["id"] = f"r{self._request_counter}"

        op = frame["op"]
        if op == "status":
            return self.status_payload(frame["id"])
        if op == "shutdown":
            self._stop = True
            return {"id": frame["id"], "status": "ok", "op": "shutdown"}

        now = arrived_at if arrived_at is not None else self._clock()
        deadline_at = None
        if frame.get("deadline_ms") is not None:
            deadline_at = now + frame["deadline_ms"] / 1000.0
            frame["_deadline_at"] = deadline_at
        reason = self.overload.admit(frame, now, deadline_at)
        if reason is not None:
            return self._shed_response(frame, reason)
        return None

    def pending(self) -> int:
        """Requests admitted but not yet served."""
        return self.overload.queue.depth()

    def process_one(self) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Serve the next queued request.

        Returns ``(frame, response)`` pairs: a shed response for every
        deadline-expired entry popped on the way (never dispatched — no
        worker slot is spent on a caller that gave up) and at most one
        service response.  Empty when the queue is empty.
        """
        out: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        entry, expired = self.overload.pop(self._clock())
        for stale in expired:
            out.append(
                (stale.frame, self._shed_response(stale.frame, "deadline-expired"))
            )
        if entry is not None:
            out.append((entry.frame, self._serve_compile_or_run(entry.frame)))
        return out

    def process_queue(self) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Drain the queue completely (synchronous serving, shutdown)."""
        out: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        while self.pending():
            out.extend(self.process_one())
        return out

    def shed_queued(self, reason: str) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Answer everything still queued with a shed response (drain on
        SIGTERM/EOF: an admitted request is never silently dropped)."""
        return [
            (entry.frame, self._shed_response(entry.frame, reason))
            for entry in self.overload.queue.drain()
        ]

    def _shed_response(self, frame: Dict[str, Any], reason: str) -> Dict[str, Any]:
        now = self._clock()
        self.stats.bump("serve.overload.shed")
        return protocol.shed_response(
            frame.get("id"),
            reason,
            self.overload.retry_after(now),
            self.overload.level(now),
        )

    def _deadline_expired(self, frame: Dict[str, Any]) -> bool:
        if not self.config.overload_enabled:
            return False  # pre-overload behavior: deadlines are ignored
        deadline_at = frame.get("_deadline_at")
        return deadline_at is not None and self._clock() >= deadline_at

    def _serve_compile_or_run(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one admitted ``run``/``compile`` frame at the current
        degradation level; every response is tagged with that level."""
        level = self.overload.level(self._clock())
        self.stats.bump(f"serve.overload.served-level{min(level, LEVEL_UNOPTIMIZED)}")
        response = self._serve_at_level(frame, level)
        response.setdefault("degrade_level", level)
        return response

    def _serve_at_level(
        self, frame: Dict[str, Any], level: int
    ) -> Dict[str, Any]:
        # Lazy start before the cache lookup, not at worker checkout: the
        # store handle is opened by start(), and the first request must be
        # able to hit (or capture into) it.
        self.start()
        fingerprint = function_fingerprint(frame["source"], frame["fn"])
        want_optimized = bool(frame.get("optimize", True))

        if level >= LEVEL_SHED:
            # Defensive: admission sheds before anything queues at level
            # 3; a request that raced an escalation still gets the hint.
            return self._shed_response(frame, "degrade-level")
        if level >= LEVEL_UNOPTIMIZED:
            return self._serve_degraded(frame, fingerprint, "overload")
        if not want_optimized:
            return self._serve_degraded(frame, fingerprint, "requested")

        # The store is consulted before the breaker: a hit executes code
        # whose every certificate just re-replayed, without touching the
        # optimizer — the machinery the breaker distrusts.  At level 1
        # (certification dropped) hits are still served — they are pure
        # savings — but misses skip capture: the forced certify compile
        # is exactly the optional effort this level sheds.
        if self.store is not None:
            store_fp = self._store_fingerprint(frame)
            if store_fp is not None:
                cached = self._serve_cached(frame, fingerprint, store_fp)
                if cached is not None:
                    return cached
                if level < LEVEL_NO_CERTIFY:
                    # Miss: ask the worker to capture a store entry
                    # alongside the normal optimized response.
                    frame["_cache_fp"] = store_fp
                else:
                    self.stats.bump("serve.overload.capture-dropped")

        if not self.breaker.allow_optimized(fingerprint):
            self.stats.bump("serve.breaker-open")
            return self._serve_degraded(frame, fingerprint, "breaker-open")
        if self.breaker.state_of(fingerprint).probing:
            self.stats.bump("serve.breaker-probes")

        attempts = 0
        last_failure = ""
        for attempt in range(self.config.retries + 1):
            if attempt:
                if self._deadline_expired(frame):
                    # The caller's budget ran out mid-retry: stop burning
                    # workers on an answer nobody is waiting for.
                    self.stats.bump("serve.overload.deadline-shed")
                    return self._shed_response(frame, "deadline-expired")
                self.stats.bump("serve.retried")
                self._sleep(self._backoff(attempt))
            attempts += 1
            kind, payload = self._dispatch(frame, "optimized", attempt)
            if kind == "response":
                if payload["status"] == "error":
                    # Deterministic user error: terminal, and says nothing
                    # about the optimizer's health — the breaker is not
                    # advanced in either direction.
                    self.stats.bump("serve.errors")
                    payload["fingerprint"] = fingerprint
                    return payload
                self.breaker.record_success(fingerprint)
                self.stats.bump("serve.optimized")
                self._absorb_store_entry(payload, frame.get("_cache_fp"))
                payload.update(
                    fingerprint=fingerprint, attempts=attempts, retried=attempt > 0
                )
                return payload
            last_failure = payload
            self.stats.bump("serve.worker-failures")

        # Optimized service failed outright: advance the breaker once per
        # *request* (its unit of "consecutive failures") and degrade.
        if self.breaker.record_failure(fingerprint):
            self.stats.bump("serve.breaker-opened")
            # An open breaker must survive a supervisor restart.
            self._persist_breakers()
        if self._deadline_expired(frame):
            self.stats.bump("serve.overload.deadline-shed")
            return self._shed_response(frame, "deadline-expired")
        response = self._serve_degraded(frame, fingerprint, "retries-exhausted")
        response["attempts"] = attempts + response.get("attempts", 0)
        response["last_failure"] = last_failure
        return response

    def _serve_degraded(
        self, frame: Dict[str, Any], fingerprint: str, reason: str
    ) -> Dict[str, Any]:
        """Unoptimized, checks-intact service — the always-available floor."""
        attempts = 0
        for attempt in range(self.config.retries + 1):
            if attempt:
                if self._deadline_expired(frame):
                    self.stats.bump("serve.overload.deadline-shed")
                    return self._shed_response(frame, "deadline-expired")
                self._sleep(self._backoff(attempt))
            attempts += 1
            kind, payload = self._dispatch(frame, "degraded", attempt)
            if kind == "response":
                if payload["status"] == "ok":
                    self.stats.bump("serve.degraded")
                payload.update(
                    fingerprint=fingerprint,
                    attempts=attempts,
                    degraded_reason=reason,
                )
                return payload
            self.stats.bump("serve.worker-failures")

        if not self.config.inline_fallback:
            self.stats.bump("serve.failed")
            return {
                "id": frame["id"],
                "status": "failure",
                "reason": "pool-exhausted",
                "message": "degraded dispatch failed and inline fallback is off",
                "fingerprint": fingerprint,
            }

        # The pool is being massacred: serve degraded in-process.  This
        # reuses the worker's own request handler, behind the worker
        # loop's last-ditch handler, as a plain library call — same
        # compile path, same response shape, no subprocess, and an
        # exception becomes a ``failure`` response, never a dead
        # supervisor.
        from repro.serve import worker as worker_module

        self.stats.bump("serve.inline-fallback")
        inline_frame = dict(frame)
        inline_frame["mode"] = "degraded"
        payload = worker_module._serve_contained(inline_frame, None, False, 0)
        if payload["status"] == "ok":
            self.stats.bump("serve.degraded")
        elif payload["status"] == "failure":
            self.stats.bump("serve.failed")
        payload.update(
            fingerprint=fingerprint,
            attempts=attempts,
            degraded_reason=reason,
            inline_fallback=True,
        )
        return payload

    # ------------------------------------------------------------------
    # The persistent certificate store (supervisor-owned).
    # ------------------------------------------------------------------

    def _store_fingerprint(self, frame: Dict[str, Any]) -> Optional[str]:
        """The request's store key; ``None`` when it cannot be computed
        (e.g. unlexable source — the worker will report the user error)."""
        try:
            from repro.core.abcd import ABCDConfig
            from repro.store.fingerprint import store_fingerprint

            return store_fingerprint(
                frame["source"],
                ABCDConfig(solver_backend=self.config.solver),
                standard_opts=True,
                inline=bool(frame.get("inline", False)),
            )
        except Exception:
            return None

    def _serve_cached(
        self, frame: Dict[str, Any], fingerprint: str, store_fp: str
    ) -> Optional[Dict[str, Any]]:
        """Try to answer from the store; ``None`` means miss (or a run
        hit whose execution dispatch failed) — serve the normal path.

        ``load`` climbs the full zero-trust ladder in the supervisor:
        pure analysis of durable bytes (parse, verify, certificate
        replay), no user-program execution.  A ``compile`` hit needs
        nothing more, so the supervisor answers it from the load's
        result and its response carries no worker ``served`` count.  A
        ``run`` hit executes user code, so its proven IR is pushed to a
        worker over the request frame as mode ``"cached"``.
        """
        from repro.core.abcd import ABCDConfig

        self.stats.bump("serve.cache.lookups")
        loaded = self.store.load(
            store_fp, ABCDConfig(solver_backend=self.config.solver)
        )
        if not loaded.hit:
            self.stats.bump("serve.cache.misses")
            if loaded.reason is not None:
                # Present-but-wrong bytes: quarantined by the store, and
                # this request falls back to a fresh compile.
                self.stats.bump("serve.cache.rejected")
            return None
        if frame["op"] == "compile":
            payload = {
                "id": frame["id"],
                "status": "ok",
                "op": "compile",
                "mode": "cached",
                "report": {
                    "analyzed": 0,
                    "eliminated": loaded.eliminations,
                    "rollbacks": 0,
                },
            }
        else:
            wire_extra = {
                "mode": "cached",
                "ir": loaded.ir_text,
                "eliminated": loaded.eliminations,
            }
            kind, payload = self._dispatch(frame, "cached", 0, wire_extra=wire_extra)
            if kind != "response" or payload.get("status") != "ok":
                # The hit was sound but its execution dispatch failed
                # (worker death, deadline, ...): never lose the request —
                # fall back to the ordinary optimized path.
                self.stats.bump("serve.cache.dispatch-failures")
                return None
        self.stats.bump("serve.cache.hits")
        payload.update(
            fingerprint=fingerprint,
            attempts=1,
            cache="hit",
            store_fingerprint=store_fp,
        )
        return payload

    def _absorb_store_entry(
        self, payload: Dict[str, Any], store_fp: Optional[str]
    ) -> None:
        """Strip a capture-mode response's store fields and commit the
        captured entry (the supervisor owns the only store handle)."""
        entry_obj = payload.pop("store_entry", None)
        uncacheable = payload.pop("store_uncacheable", None)
        if self.store is None or store_fp is None:
            return
        if entry_obj is None:
            self.stats.bump("serve.cache.uncacheable")
            payload["cache"] = f"miss-unstored: {uncacheable or 'not captured'}"
            return
        from repro.store.entry import EntryError, entry_from_payload

        try:
            entry = entry_from_payload(entry_obj)
            if entry.fingerprint != store_fp:
                raise EntryError("fingerprint", "captured entry key mismatch")
        except EntryError as exc:
            self.stats.bump("serve.cache.bad-entry")
            payload["cache"] = f"miss-unstored: {exc.reason}"
            return
        if self.store.put(entry):
            self.stats.bump("serve.cache.stored")
            payload["cache"] = "miss-stored"
        else:
            self.stats.bump("serve.cache.store-errors")
            payload["cache"] = "miss-unstored: store write failed"

    def _dispatch(
        self,
        frame: Dict[str, Any],
        mode: str,
        attempt: int,
        wire_extra: Optional[Dict[str, Any]] = None,
    ) -> Tuple[str, Any]:
        """One attempt on one worker.

        Returns ``("response", payload)`` for a terminal worker answer
        (``ok`` or ``error``) and ``("failure", detail)`` when the
        attempt must be retried — worker death, deadline, protocol
        violation, or a worker-contained ``failure`` report.
        """
        worker = self._checkout_worker()
        wire = {
            "op": frame["op"],
            "id": frame["id"],
            "source": frame["source"],
            "fn": frame["fn"],
            "args": frame["args"],
            "mode": mode,
            "attempt": attempt,
            "fuel": self.config.fuel,
            "solver": self.config.solver,
        }
        for optional in ("inline", "chaos"):
            if optional in frame:
                wire[optional] = frame[optional]
        if mode == "optimized" and frame.get("_cache_fp"):
            # Store miss in flight: ask the worker to certify + capture.
            wire["cache"] = "capture"
            wire["fingerprint"] = frame["_cache_fp"]
        if wire_extra:
            wire.update(wire_extra)
        # Deadline layering: one effective per-attempt deadline, the
        # minimum of the supervisor default and the request's remaining
        # ``deadline_ms`` budget — never two racing timers.  The same
        # budget rides the wire so the worker caps its own solver effort
        # (and arms ``limits.hard_deadline``) by what the caller will
        # actually wait for.
        timeout = self.config.deadline
        deadline_at = frame.get("_deadline_at")
        if self.config.propagate_deadlines and deadline_at is not None:
            remaining = deadline_at - self._clock()
            if remaining < timeout:
                timeout = max(0.001, remaining)
                wire["deadline_budget"] = round(timeout, 6)
        try:
            worker.send(wire)
            # The read deadline runs on the *real* clock even when the
            # supervisor clock is injected: a hung worker must be killed
            # in real seconds, and a frozen test clock would wait forever.
            response = worker.read_frame(timeout, time.monotonic)
            response = protocol.validate_worker_response(response, frame["id"])
        except WorkerTimeout as exc:
            self.stats.bump("serve.deadline-kills")
            self._replace_worker(self._slot_of(worker))
            self._tick("timeout")
            return ("failure", f"deadline: {exc}")
        except (WorkerDied, protocol.ProtocolError) as exc:
            self._replace_worker(self._slot_of(worker))
            self._tick("failure")
            return ("failure", f"{type(exc).__name__}: {exc}")
        self._tick("response")
        worker.served += 1
        self._maybe_recycle(worker)
        if response["status"] == "failure":
            return ("failure", f"{response.get('reason')}: {response.get('message')}")
        return ("response", response)

    def _tick(self, outcome: str) -> None:
        if self.dispatch_tick is not None:
            self.dispatch_tick(outcome)

    def _backoff(self, attempt: int) -> float:
        """Full-jitter exponential backoff: ``uniform(0, min(cap, base·2ⁿ))``.

        Deterministic backoff means every client of a just-died worker
        retries in the same tick; drawing uniformly from the whole
        interval (the AWS "full jitter" result) de-correlates them at no
        cost in expected delay.  The RNG is the supervisor's seeded
        jitter source, so tests and storms replay the exact draws.
        """
        ceiling = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2 ** (attempt - 1)),
        )
        return self.rng.uniform(0.0, ceiling)

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------

    def status_payload(self, request_id: Any = None) -> Dict[str, Any]:
        payload = {
            "id": request_id,
            "status": "ok",
            "op": "status",
            "counters": dict(sorted(self.stats.counters.items())),
            "breakers": self.breaker.to_json(),
            "open_fingerprints": self.breaker.open_fingerprints(),
            "workers": [
                {"pid": worker.pid, "served": worker.served, "alive": worker.alive()}
                for worker in self.pool
            ],
            "overload": self.overload.snapshot(self._clock()),
        }
        if self.store is not None:
            payload["cache"] = {
                "store": self.store.stats_payload(),
                "invariant_violations": self.store.invariant_violations(),
            }
        return payload

    # ------------------------------------------------------------------
    # Serve loops (stdio and Unix socket).
    # ------------------------------------------------------------------

    def _install_drain_handlers(self):
        """SIGTERM/SIGINT → finish the in-flight request, then drain.

        The handler only *raises* while the loop is blocked reading the
        next client frame; mid-request it just sets the stop flag, so the
        response already being computed is still written back.
        """
        def on_signal(signum, frame):
            self._stop = True
            if self._reading_client:
                raise _DrainRequested()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, on_signal)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        return previous

    @staticmethod
    def _restore_handlers(previous) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def serve_stdio(self, infile=None, outfile=None) -> Dict[str, Any]:
        """NDJSON server over stdin/stdout; returns final telemetry."""
        infile = infile if infile is not None else sys.stdin.buffer
        outfile = outfile if outfile is not None else sys.stdout.buffer
        self.start()
        previous = self._install_drain_handlers()
        try:
            while not self._stop:
                try:
                    self._reading_client = True
                    line = infile.readline()
                finally:
                    self._reading_client = False
                if not line:
                    break  # client EOF: drain
                if not line.strip():
                    continue
                response = self._serve_line(line)
                outfile.write(protocol.encode_frame(response))
                outfile.flush()
        except _DrainRequested:
            pass
        finally:
            self._restore_handlers(previous)
            # Anything still queued is answered, never dropped: the
            # no-lost-request invariant holds through a drain too.
            try:
                for _, shed in self.shed_queued("shutting-down"):
                    outfile.write(protocol.encode_frame(shed))
                outfile.flush()
            except (OSError, ValueError):  # pragma: no cover - client gone
                pass
            self.shutdown()
        return self.status_payload()

    def serve_socket(self, path: str) -> Dict[str, Any]:
        """NDJSON server on a Unix socket (one client at a time)."""
        import socket

        if os.path.exists(path):
            os.unlink(path)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)
        self.start()
        previous = self._install_drain_handlers()
        try:
            while not self._stop:
                try:
                    self._reading_client = True
                    conn, _ = server.accept()
                finally:
                    self._reading_client = False
                with conn:
                    reader = conn.makefile("rb")
                    writer = conn.makefile("wb")
                    while not self._stop:
                        try:
                            self._reading_client = True
                            line = reader.readline()
                        finally:
                            self._reading_client = False
                        if not line:
                            break
                        if not line.strip():
                            continue
                        response = self._serve_line(line)
                        writer.write(protocol.encode_frame(response))
                        writer.flush()
                    try:
                        for _, shed in self.shed_queued("shutting-down"):
                            writer.write(protocol.encode_frame(shed))
                        writer.flush()
                    except (OSError, ValueError):  # pragma: no cover
                        pass
        except _DrainRequested:
            pass
        finally:
            self._restore_handlers(previous)
            self.shed_queued("shutting-down")
            self.shutdown()
            server.close()
            if os.path.exists(path):
                os.unlink(path)
        return self.status_payload()

    def _serve_line(self, line: bytes) -> Dict[str, Any]:
        try:
            frame = protocol.decode_frame(line)
        except protocol.ProtocolError as exc:
            self.stats.bump("serve.protocol-errors")
            return protocol.error_response(None, "ProtocolError", str(exc))
        return self.handle_request(frame)
