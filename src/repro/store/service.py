"""The cached compile path: one call, hit-or-compile-and-store.

This is the seam shared by ``repro optimize --cache-dir`` and the serve
supervisor's one-shot fallback: look the unit up, and on a miss compile
it fresh **with certification forced on** (stored entries must carry
replayable certificates — that is the property that makes loads safe),
capture the pre-removal state, and store it for next time.

A miss that cannot be stored (pass failures, a quarantined function, a
gate revert upstream, disk full) is never an error: the caller gets the
freshly compiled result and the store simply stays cold for that key.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.abcd import ABCDConfig, ABCDReport
from repro.store.capture import StoreCapture
from repro.store.fingerprint import store_fingerprint
from repro.store.store import CertStore


@dataclass
class CachedOutcome:
    """Result of :func:`cached_optimize_source`."""

    program: object
    #: ``None`` on a hit — there was no fresh analysis to report.
    report: Optional[ABCDReport]
    #: "hit" | "miss-stored" | "miss-unstored"
    status: str
    fingerprint: str
    #: Why a miss was not stored (``None`` when stored or hit).
    unstored_reason: Optional[str] = None

    @property
    def hit(self) -> bool:
        return self.status == "hit"


def certifying_config(config: Optional[ABCDConfig]) -> ABCDConfig:
    """The compile config for cacheable compiles: the caller's config
    with certification forced on (excluded from the fingerprint, so this
    never changes the key)."""
    config = config or ABCDConfig()
    return dataclasses.replace(config, certify=True)


def cached_optimize_source(
    store: CertStore,
    source: str,
    config: Optional[ABCDConfig] = None,
    standard_opts: bool = True,
    inline: bool = False,
    profile=None,
) -> CachedOutcome:
    """Compile+optimize ``source`` through the store.

    On a hit the returned program came from a stored entry whose every
    elimination just re-certified; on a miss it came from a fresh
    certified compile, stored when cacheable.
    """
    from repro.passes.session import CompilationSession

    config = config or ABCDConfig()
    fingerprint = store_fingerprint(
        source, config, standard_opts=standard_opts, inline=inline, profile=profile
    )
    loaded = store.load(fingerprint, config)
    if loaded.hit:
        return CachedOutcome(
            program=loaded.program,
            report=None,
            status="hit",
            fingerprint=fingerprint,
        )

    session = CompilationSession(config=certifying_config(config))
    program = session.compile(source, standard_opts=standard_opts, inline=inline)
    capture = StoreCapture()
    report = session.optimize(program, profile=profile, capture=capture)
    entry = capture.build_entry(fingerprint, program, report)
    stored = entry is not None and store.put(entry)
    return CachedOutcome(
        program=program,
        report=report,
        status="miss-stored" if stored else "miss-unstored",
        fingerprint=fingerprint,
        unstored_reason=None if stored else (capture.reason or "store write failed"),
    )
