"""The crash-isolated compile service (``repro serve``).

A long-running supervisor process dispatches each compile/run request to
a pool of forked worker processes, so a segfault, hang, or memory blowup in
any optimization pass is a recoverable event — the paper's Jalapeño
setting, where the optimizer lives inside a VM that must never die.

Layers (each its own module):

* :mod:`repro.serve.protocol` — newline-delimited JSON framing shared by
  clients, the supervisor, and workers;
* :mod:`repro.serve.worker` — the sandboxed worker process that
  actually compiles, optimizes (behind the differential gate), and
  executes;
* :mod:`repro.serve.breaker` — the per-function-fingerprint circuit
  breaker that routes repeatedly failing fingerprints to degraded
  (unoptimized, checks-intact) compilation;
* :mod:`repro.serve.supervisor` — worker lifecycle (fork/recycle/kill),
  per-request deadlines, retry with full-jitter exponential backoff, and
  the stdio / Unix-socket serve loops;
* :mod:`repro.serve.overload` — admission control (bounded queue +
  ``retry_after`` backpressure), client deadline propagation, and the
  adaptive degradation ladder that sheds certification, then
  optimization, then admission as queue latency climbs;
* :mod:`repro.serve.chaos` — the storm harness that drives the service
  under injected process faults, open-loop overload (``--burst``) and
  at-rest store corruption (``--corrupt``), and verifies the
  no-lost-request / degraded-but-correct guarantees.

The package re-exports nothing: import from the module that defines a
name.  ``python -m repro.serve.worker`` imports only
:mod:`~repro.serve.protocol` and :mod:`~repro.serve.worker` from here, so
supervisor, breaker, overload and harness code stay off its import path;
a forked worker holds whatever its supervisor imported.
"""
