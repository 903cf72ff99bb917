"""Crash-safe persistent store for optimized IR + proof certificates.

See DESIGN.md §15 for the failure model.  Public surface:

* :class:`~repro.store.store.CertStore` — the on-disk store (atomic
  writes, zero-trust loads, quarantine, maintenance verbs);
* :func:`~repro.store.service.cached_optimize_source` — the one-call
  cached compile path;
* :func:`~repro.store.fingerprint.store_fingerprint` — the content
  address of a compilation unit;
* :class:`~repro.store.capture.StoreCapture` — the in-pipeline capture
  hook scheduled by ``CompilationSession.optimize(capture=...)``.
"""

from repro.store.capture import StoreCapture
from repro.store.entry import (
    Elimination,
    EntryError,
    StoreEntry,
    decode_entry,
    encode_entry,
    entry_from_payload,
    entry_payload,
)
from repro.store.fingerprint import (
    SCHEMA_VERSION,
    config_key,
    pipeline_id,
    source_structure_hash,
    store_fingerprint,
)
from repro.store.service import CachedOutcome, cached_optimize_source, certifying_config
from repro.store.store import CertStore, LoadResult

__all__ = [
    "CachedOutcome",
    "CertStore",
    "Elimination",
    "EntryError",
    "LoadResult",
    "SCHEMA_VERSION",
    "StoreCapture",
    "StoreEntry",
    "cached_optimize_source",
    "certifying_config",
    "config_key",
    "decode_entry",
    "encode_entry",
    "entry_from_payload",
    "entry_payload",
    "pipeline_id",
    "source_structure_hash",
    "store_fingerprint",
]
