"""The content-addressed, crash-safe certificate store.

Layout under one cache root::

    objects/<2-hex-shard>/<fingerprint>.entry    durable entries
    tmp/                                         in-flight writes
    quarantine/<fingerprint>.<reason>.entry      rejected bytes

Writes go through :mod:`repro.store.atomic` (tmp + fsync + rename), so a
crash mid-write leaves at worst a stray temporary that
:meth:`CertStore.recovery_scan` deletes on the next open.

Reads are **zero-trust** — the load ladder, in order:

1. envelope: checksum footer, truncation, JSON, schema, shape
   (:func:`repro.store.entry.decode_entry`);
2. identity: the payload's embedded fingerprint must match the address
   it was loaded from;
3. IR: the pre-removal text must parse and pass the IR verifier;
4. **certificate replay**: every elimination is re-proved through the
   independent certify checker against inequality graphs rebuilt from
   the loaded IR (:func:`repro.certify.driver.replay_elimination`);
5. only then are the eliminated checks removed, the result verified
   again, and the program released to the caller.

Any rung failing quarantines the entry (atomic rename out of
``objects/``) and reports a miss — the caller falls back to a fresh
compile.  There is **no code path that returns a hit without a passing
replay**; ``invariant_violations`` exposes the counter form of that
invariant for the chaos harness to assert.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.store import atomic
from repro.store.atomic import TMP_SUFFIX
from repro.store.entry import EntryError, StoreEntry, decode_entry, encode_entry

#: An entry larger than this is quarantined unread (a runaway or hostile
#: payload must not cost unbounded memory on the serve path).
MAX_ENTRY_BYTES = 32 * 1024 * 1024


@dataclass
class LoadResult:
    """Outcome of one :meth:`CertStore.load`."""

    status: str  # "hit" | "miss"
    fingerprint: str
    program: object = None
    #: Why a present entry was rejected (``None`` for a clean miss).
    reason: Optional[str] = None
    #: Checks whose certificates replayed on a hit.
    eliminations: int = 0

    @property
    def hit(self) -> bool:
        return self.status == "hit"

    @property
    def ir_text(self) -> Optional[str]:
        """The final optimized IR text (post-removal) of a hit, rendered
        on each access: only a hit that must execute needs it."""
        if self.program is None:
            return None
        from repro.ir.printer import format_program

        return format_program(self.program)


@dataclass
class VerifyResult:
    """Outcome of re-checking one entry via :meth:`CertStore.verify_all`."""

    fingerprint: str
    ok: bool
    reason: Optional[str] = None
    eliminations: int = 0


@dataclass
class _Revalidation:
    program: object = None
    reason: Optional[str] = None
    eliminations: int = 0


class CertStore:
    """One on-disk store rooted at ``root`` (created on open)."""

    def __init__(self, root, create: bool = True) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.tmp_dir = self.root / "tmp"
        self.quarantine_dir = self.root / "quarantine"
        self.counters: Dict[str, int] = {}
        if create:
            for directory in (self.objects_dir, self.tmp_dir, self.quarantine_dir):
                directory.mkdir(parents=True, exist_ok=True)
        self.recovery_scan()

    # ------------------------------------------------------------------
    # Bookkeeping.
    # ------------------------------------------------------------------

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def entry_path(self, fingerprint: str) -> Path:
        return self.objects_dir / fingerprint[:2] / f"{fingerprint}.entry"

    def recovery_scan(self) -> int:
        """Delete leftover in-flight temporaries (a crash or SIGKILL
        mid-write).  The rename protocol guarantees these never carry
        committed data, so deletion is always safe."""
        removed = 0
        if not self.tmp_dir.is_dir():
            return 0
        for stray in self.tmp_dir.iterdir():
            if stray.name.endswith(TMP_SUFFIX):
                try:
                    stray.unlink()
                    removed += 1
                except OSError:
                    pass
        if removed:
            self.bump("store.recovered_tmp", removed)
        return removed

    def iter_fingerprints(self) -> Iterator[str]:
        if not self.objects_dir.is_dir():
            return
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                if path.suffix == ".entry":
                    yield path.stem

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------

    def put(self, entry: StoreEntry) -> bool:
        """Durably store ``entry``; ``False`` (never an exception) when
        the write could not complete — the caller just stays uncached."""
        try:
            data = encode_entry(entry)
        except (RecursionError, ValueError, TypeError):
            self.bump("store.encode_errors")
            return False
        path = self.entry_path(entry.fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Call through the module so the disk-fault harness can patch
            # the writer (the same convention the opt passes follow).
            atomic.atomic_write_bytes(str(path), data, tmp_dir=str(self.tmp_dir))
        except OSError:
            self.bump("store.put_errors")
            return False
        self.bump("store.puts")
        return True

    # ------------------------------------------------------------------
    # The zero-trust read path.
    # ------------------------------------------------------------------

    def load(self, fingerprint: str, config) -> LoadResult:
        """Look up ``fingerprint`` and climb the full load ladder.

        A hit is only ever returned after every stored elimination
        re-certified against graphs rebuilt from the loaded IR; every
        other outcome is a miss (with the entry quarantined when bytes
        were present but wrong).
        """
        path = self.entry_path(fingerprint)
        entry, reason = self._read_entry(path, fingerprint)
        if entry is None:
            if reason is None:
                self.bump("store.misses")
                return LoadResult("miss", fingerprint)
            self._quarantine(path, fingerprint, reason)
            self.bump("store.misses")
            return LoadResult("miss", fingerprint, reason=reason)
        outcome = self._revalidate(entry, config)
        if outcome.reason is not None:
            self._quarantine(path, fingerprint, outcome.reason)
            self.bump("store.misses")
            return LoadResult("miss", fingerprint, reason=outcome.reason)
        self.bump("store.hits")
        return LoadResult(
            "hit",
            fingerprint,
            program=outcome.program,
            eliminations=outcome.eliminations,
        )

    def _read_entry(self, path: Path, fingerprint: str):
        """Envelope rungs: returns ``(entry, None)``, ``(None, None)``
        for a clean miss, or ``(None, reason)`` for rejectable bytes."""
        try:
            size = path.stat().st_size
        except OSError:
            return None, None
        if size > MAX_ENTRY_BYTES:
            return None, "oversize"
        try:
            data = path.read_bytes()
        except OSError:
            return None, None
        try:
            entry = decode_entry(data)
        except EntryError as exc:
            return None, exc.reason
        if entry.fingerprint != fingerprint:
            return None, "fingerprint"
        return entry, None

    def _revalidate(self, entry: StoreEntry, config) -> _Revalidation:
        """Rungs 3-5: parse, verify, replay every certificate, apply
        removals, verify again.  Any exception is a rejection reason,
        never a crash — corrupted bytes must not take down a server."""
        try:
            return self._revalidate_inner(entry, config)
        except Exception as exc:  # zero-trust: reject, don't propagate
            return _Revalidation(reason=f"replay-error: {exc}")

    def _revalidate_inner(self, entry: StoreEntry, config) -> _Revalidation:
        from repro.certify.checker import AssumeContext
        from repro.certify.driver import fresh_bundle, replay_elimination
        from repro.certify.witness import (
            WitnessDecodeError,
            _node_from_json,
            witness_from_json,
        )
        from repro.ir.instructions import CheckLower, CheckUpper, Var
        from repro.ir.parser import parse_ir_program
        from repro.ir.verifier import verify_program
        from repro.core.graph import const_node, var_node

        try:
            program = parse_ir_program(entry.ir)
            verify_program(program)
        except Exception as exc:
            self.bump("store.replay_rejected")
            return _Revalidation(reason=f"ir: {exc}")

        unknown = [n for n in entry.eliminations if n not in program.functions]
        if unknown:
            self.bump("store.replay_rejected")
            return _Revalidation(reason=f"shape: unknown functions {unknown}")

        replayed = 0
        removals = []  # (fn, label, instr)
        for name, elims in sorted(entry.eliminations.items()):
            if not elims:
                continue
            fn = program.functions[name]
            sites: Dict[tuple, tuple] = {}
            for label, block in fn.blocks.items():
                for instr in block.instructions():
                    if isinstance(instr, CheckLower):
                        sites[("lower", instr.check_id)] = (label, instr)
                    elif isinstance(instr, CheckUpper):
                        sites[("upper", instr.check_id)] = (label, instr)
            bundle = fresh_bundle(fn, config)
            gvn_cache: List[Optional[object]] = [None]
            for elim in elims:
                located = sites.get((elim.kind, elim.check_id))
                if located is None:
                    return self._reject(
                        f"certificate: {name}#{elim.check_id} not in the IR"
                    )
                label, instr = located
                array = getattr(instr, "array", None)
                if elim.array != array:
                    return self._reject(
                        f"certificate: {name}#{elim.check_id} array mismatch"
                    )
                operand = instr.index
                target = (
                    var_node(operand.name)
                    if isinstance(operand, Var)
                    else const_node(operand.value)
                )
                try:
                    stored_target = _node_from_json(elim.target)
                    witness = witness_from_json(elim.witness)
                    cert_source = (
                        _node_from_json(elim.cert_source)
                        if elim.cert_source is not None
                        else None
                    )
                except WitnessDecodeError as exc:
                    return self._reject(f"certificate: {exc}")
                if stored_target != target:
                    return self._reject(
                        f"certificate: {name}#{elim.check_id} target mismatch"
                    )
                assume = None
                if elim.pre:
                    if instr.guard_group is None:
                        return self._reject(
                            f"certificate: {name}#{elim.check_id} "
                            "PRE without guard group"
                        )
                    assume = AssumeContext(fn, elim.kind, elim.array, instr.guard_group)
                reason = replay_elimination(
                    fn,
                    bundle,
                    kind=elim.kind,
                    array=elim.array,
                    target=target,
                    witness=witness,
                    cert_source=cert_source,
                    assume=assume,
                    gvn_cache=gvn_cache,
                )
                if reason is not None:
                    return self._reject(
                        f"certificate: {name}#{elim.check_id} {reason}"
                    )
                replayed += 1
                if not elim.pre:
                    removals.append((fn, label, instr))

        # Every certificate re-checked; only now may checks disappear.
        for fn, label, instr in removals:
            fn.remove_instr(label, instr)
        try:
            verify_program(program)
        except Exception as exc:
            self.bump("store.replay_rejected")
            return _Revalidation(reason=f"ir-post: {exc}")
        self.bump("store.replay_ok")
        return _Revalidation(program=program, eliminations=replayed)

    def _reject(self, reason: str) -> _Revalidation:
        self.bump("store.replay_rejected")
        return _Revalidation(reason=reason)

    def _quarantine(self, path: Path, fingerprint: str, reason: str) -> None:
        """Atomically move rejected bytes out of ``objects/`` so they can
        never be served again (kept for post-mortem, not retried)."""
        slug = "".join(c if c.isalnum() else "-" for c in reason)[:40]
        target = self.quarantine_dir / f"{fingerprint}.{slug}.entry"
        try:
            os.replace(str(path), str(target))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.bump("store.quarantined")
        self.bump(f"store.quarantined.{reason.split(':', 1)[0].strip()}")

    # ------------------------------------------------------------------
    # Maintenance (the `repro cache` verbs).
    # ------------------------------------------------------------------

    def verify_all(self, config) -> List[VerifyResult]:
        """Re-run the full ladder over every entry; quarantine failures."""
        results: List[VerifyResult] = []
        for fingerprint in list(self.iter_fingerprints()):
            path = self.entry_path(fingerprint)
            entry, reason = self._read_entry(path, fingerprint)
            if entry is None:
                reason = reason or "unreadable"
                self._quarantine(path, fingerprint, reason)
                results.append(VerifyResult(fingerprint, ok=False, reason=reason))
                continue
            outcome = self._revalidate(entry, config)
            if outcome.reason is not None:
                self._quarantine(path, fingerprint, outcome.reason)
                results.append(
                    VerifyResult(fingerprint, ok=False, reason=outcome.reason)
                )
            else:
                results.append(
                    VerifyResult(
                        fingerprint, ok=True, eliminations=outcome.eliminations
                    )
                )
        return results

    def evict(self, fingerprint: str) -> bool:
        """Remove one entry; ``True`` when it existed."""
        path = self.entry_path(fingerprint)
        try:
            path.unlink()
        except OSError:
            return False
        self.bump("store.evicted")
        return True

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Prune by age and/or count (oldest-mtime first); returns the
        number removed.  Quarantined files older than ``max_age_seconds``
        are pruned too — post-mortems do not accumulate forever."""
        import time as _time

        now = _time.time() if now is None else now
        entries = []
        for fingerprint in self.iter_fingerprints():
            path = self.entry_path(fingerprint)
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, fingerprint))
        entries.sort()
        doomed = []
        if max_age_seconds is not None:
            doomed.extend(
                fp for mtime, fp in entries if now - mtime > max_age_seconds
            )
        if max_entries is not None and len(entries) - len(doomed) > max_entries:
            survivors = [fp for _, fp in entries if fp not in set(doomed)]
            doomed.extend(survivors[: len(survivors) - max_entries])
        removed = 0
        for fingerprint in doomed:
            if self.evict(fingerprint):
                removed += 1
        if max_age_seconds is not None and self.quarantine_dir.is_dir():
            for stray in self.quarantine_dir.iterdir():
                try:
                    if now - stray.stat().st_mtime > max_age_seconds:
                        stray.unlink()
                except OSError:
                    pass
        if removed:
            self.bump("store.gc_removed", removed)
        return removed

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------

    def stats_payload(self) -> Dict[str, object]:
        entries = 0
        total_bytes = 0
        for fingerprint in self.iter_fingerprints():
            entries += 1
            try:
                total_bytes += self.entry_path(fingerprint).stat().st_size
            except OSError:
                pass
        quarantined_files = 0
        if self.quarantine_dir.is_dir():
            quarantined_files = sum(1 for _ in self.quarantine_dir.iterdir())
        payload: Dict[str, object] = {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "quarantine_files": quarantined_files,
        }
        payload.update(sorted(self.counters.items()))
        return payload

    def invariant_violations(self) -> int:
        """Counter form of "no load without a passing re-check": hits in
        excess of successful replays.  Always 0 unless the ladder is
        bypassed — the chaos harness asserts this stays 0."""
        return max(
            0, self.counters.get("store.hits", 0) - self.counters.get("store.replay_ok", 0)
        )
