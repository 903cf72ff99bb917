"""Tests for the persistent certificate store (``src/repro/store/``).

Covers the cache-key contract (what must hit, what must miss), the
atomic write protocol and its crash recovery, the zero-trust load ladder
rung by rung, every registered disk fault's exact containment, the
byte-identity guarantee (a hit's program is byte-identical to a fresh
certified compile), the "no load without a passing re-check" invariant,
and a property sweep over fuzz-generated programs.
"""

from __future__ import annotations

import json

import pytest

from repro.core.abcd import ABCDConfig
from repro.ir.printer import format_program
from repro.robustness.faults import CORRUPTING_DISK_FAULTS, DISK_FAULTS
from repro.store import (
    CertStore,
    Elimination,
    EntryError,
    StoreEntry,
    cached_optimize_source,
    decode_entry,
    encode_entry,
    store_fingerprint,
)
from repro.store.atomic import atomic_write_bytes
from repro.store.fingerprint import config_key, source_structure_hash

SUM_SOURCE = """
fn main(): int {
  let a: int[] = new int[8];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i;
    s = s + a[i];
  }
  return s;
}
"""

# The same program with insignificant edits: whitespace, comments, and
# blank lines — token structure is untouched.
SUM_SOURCE_RESPACED = """
// a comment the key must not see
fn main(): int {
    let a: int[]   = new int[8];
    let s: int = 0;

    for (let i: int = 0; i < len(a); i = i + 1) {
        a[i] = i;   // accumulate
        s = s + a[i];
    }
    return s;
}
"""

# One structural token differs (array length 9, not 8).
SUM_SOURCE_EDITED = SUM_SOURCE.replace("new int[8]", "new int[9]")


def store_at(tmp_path) -> CertStore:
    return CertStore(tmp_path / "cache")


def populate(store: CertStore, source: str = SUM_SOURCE):
    """One cold certified compile into ``store``; returns (outcome, fp)."""
    outcome = cached_optimize_source(store, source)
    assert outcome.status == "miss-stored", outcome.unstored_reason
    return outcome, outcome.fingerprint


# ----------------------------------------------------------------------
# Cache-key semantics.
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_whitespace_and_comments_do_not_change_the_key(self):
        assert source_structure_hash(SUM_SOURCE) == source_structure_hash(
            SUM_SOURCE_RESPACED
        )
        assert store_fingerprint(SUM_SOURCE, ABCDConfig()) == store_fingerprint(
            SUM_SOURCE_RESPACED, ABCDConfig()
        )

    def test_structural_edit_changes_the_key(self):
        assert store_fingerprint(SUM_SOURCE, ABCDConfig()) != store_fingerprint(
            SUM_SOURCE_EDITED, ABCDConfig()
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pre", True),
            ("gvn_mode", "off"),
            ("upper", False),
            ("lower", False),
            ("allocation_facts", False),
            ("solver_backend", "closure"),
            ("solver_backend", "hybrid"),
        ],
    )
    def test_semantic_config_flags_change_the_key(self, field, value):
        base = ABCDConfig()
        changed = ABCDConfig()
        setattr(changed, field, value)
        assert store_fingerprint(SUM_SOURCE, base) != store_fingerprint(
            SUM_SOURCE, changed
        )

    @pytest.mark.parametrize("field", ["certify", "strict", "certify_quarantine"])
    def test_checking_only_flags_do_not_change_the_key(self, field):
        # These flags change how much checking happens, never what code
        # comes out — a certified entry must serve an uncertified caller.
        base = ABCDConfig()
        changed = ABCDConfig()
        setattr(changed, field, not getattr(changed, field))
        assert config_key(base) == config_key(changed)

    def test_pipeline_selection_changes_the_key(self):
        config = ABCDConfig()
        plain = store_fingerprint(SUM_SOURCE, config)
        assert plain != store_fingerprint(SUM_SOURCE, config, standard_opts=False)
        assert plain != store_fingerprint(SUM_SOURCE, config, inline=True)

    def test_profile_changes_the_key(self):
        from repro.runtime.profiler import Profile

        config = ABCDConfig()
        profile = Profile()
        profile.block_counts[("main", "entry")] = 10
        assert store_fingerprint(SUM_SOURCE, config) != store_fingerprint(
            SUM_SOURCE, config, profile=profile
        )

    def test_corpus_keys_are_pinned(self):
        """``store_keys_golden.json`` holds the keys of the 15 corpus
        programs under the default config, without and with inlining, as
        the store computed them before the lexer became a compiled
        scanner; entries written then must keep hitting."""
        from pathlib import Path

        from repro.bench.corpus import CORPUS

        golden = json.loads(
            (Path(__file__).parent / "store_keys_golden.json").read_text()
        )
        observed = {
            p.name: {
                "plain": store_fingerprint(p.source(), ABCDConfig()),
                "inline": store_fingerprint(p.source(), ABCDConfig(), inline=True),
            }
            for p in CORPUS
        }
        assert observed == golden


class TestCacheKeyBehavior:
    def test_hit_and_miss_follow_the_key(self, tmp_path):
        store = store_at(tmp_path)
        populate(store)
        # Insignificant edit: hit.  Structural edit: miss.
        assert cached_optimize_source(store, SUM_SOURCE_RESPACED).hit
        assert not cached_optimize_source(store, SUM_SOURCE_EDITED).hit

    def test_config_change_misses(self, tmp_path):
        store = store_at(tmp_path)
        populate(store)
        changed = ABCDConfig()
        changed.gvn_mode = "off"
        assert not cached_optimize_source(store, SUM_SOURCE, config=changed).hit

    def test_solver_backend_change_misses(self, tmp_path):
        # Demand- and closure-produced entries must never alias: an
        # aliased hit would mask a backend divergence instead of
        # surfacing it at compile time.
        store = store_at(tmp_path)
        populate(store)
        for backend in ("closure", "hybrid"):
            changed = ABCDConfig(solver_backend=backend)
            assert not cached_optimize_source(
                store, SUM_SOURCE, config=changed
            ).hit, backend

    def test_hit_is_byte_identical_to_fresh_compile(self, tmp_path):
        store = store_at(tmp_path)
        cold, _ = populate(store)
        warm = cached_optimize_source(store, SUM_SOURCE)
        assert warm.hit
        assert format_program(warm.program) == format_program(cold.program)

    def test_invariant_holds(self, tmp_path):
        store = store_at(tmp_path)
        populate(store)
        cached_optimize_source(store, SUM_SOURCE)
        assert store.counters.get("store.hits") == 1
        assert store.invariant_violations() == 0


# ----------------------------------------------------------------------
# Atomic writes and crash recovery.
# ----------------------------------------------------------------------


class TestAtomicAndRecovery:
    def test_atomic_write_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(str(target), b"payload", tmp_dir=str(tmp_path))
        assert target.read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_recovery_scan_deletes_stray_temporaries(self, tmp_path):
        store = store_at(tmp_path)
        populate(store)
        stray = store.tmp_dir / "killed-writer.tmp"
        stray.write_bytes(b'{"fingerprint":"dea')
        reopened = CertStore(store.root)
        assert not stray.exists()
        assert reopened.counters.get("store.recovered_tmp") == 1
        # The committed entry survived the fake crash.
        assert reopened.load(
            store_fingerprint(SUM_SOURCE, ABCDConfig()), ABCDConfig()
        ).hit

    def test_put_failure_is_contained(self, tmp_path):
        store = store_at(tmp_path)
        bad = StoreEntry(fingerprint="ab" * 32, ir="", eliminations={}, meta={})
        # The shard path is occupied by a plain file, so the write cannot
        # land: put must return False, never raise.
        (store.objects_dir / "ab").write_bytes(b"not a directory")
        assert store.put(bad) is False
        assert store.counters.get("store.put_errors") == 1


# ----------------------------------------------------------------------
# The envelope rungs.
# ----------------------------------------------------------------------


class TestEntryEnvelope:
    def entry(self):
        return StoreEntry(
            fingerprint="cd" * 32,
            ir="fn main() {}",
            eliminations={},
            meta={"eliminated": 0},
        )

    def test_round_trip(self):
        entry = self.entry()
        decoded = decode_entry(encode_entry(entry))
        assert decoded.fingerprint == entry.fingerprint
        assert decoded.ir == entry.ir

    def reason_of(self, data: bytes) -> str:
        with pytest.raises(EntryError) as excinfo:
            decode_entry(data)
        return excinfo.value.reason

    def test_rung_classification(self):
        good = encode_entry(self.entry())
        assert self.reason_of(good[: len(good) // 2]) == "truncated"
        assert self.reason_of(good[:-1]) == "truncated"
        flipped = bytearray(good)
        flipped[10] ^= 0x20
        assert self.reason_of(bytes(flipped)) == "checksum"

    def test_schema_drift(self):
        import hashlib

        payload = json.dumps(
            {"schema": 999, "fingerprint": "x", "ir": "", "eliminations": {},
             "meta": {}},
            sort_keys=True, separators=(",", ":"),
        ).encode()
        digest = hashlib.sha256(payload).hexdigest().encode()
        assert self.reason_of(payload + b"\n#sha256:" + digest + b"\n") == "schema"

    def test_shape_violation(self):
        entry = self.entry()
        entry.eliminations = {
            "main": [
                Elimination(
                    check_id=0, kind="upper", array="a", target={}, witness={}
                )
            ]
        }
        data = encode_entry(entry)
        # Re-encode with a string check_id inside a *valid* envelope.
        obj = json.loads(data[: data.rfind(b"\n#sha256:")].decode())
        obj["eliminations"]["main"][0]["check_id"] = "zero"
        import hashlib

        payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        digest = hashlib.sha256(payload).hexdigest().encode()
        assert self.reason_of(payload + b"\n#sha256:" + digest + b"\n") == "shape"


# ----------------------------------------------------------------------
# Disk faults: every registered fault's exact containment.
# ----------------------------------------------------------------------


class TestDiskFaults:
    @pytest.mark.parametrize(
        "name",
        [n for n, s in sorted(DISK_FAULTS.items()) if s.mode == "at-rest"],
    )
    def test_at_rest_fault_contained(self, tmp_path, name):
        spec = DISK_FAULTS[name]
        store = store_at(tmp_path)
        _, fingerprint = populate(store)
        spec.corrupt(store.entry_path(fingerprint))
        result = store.load(fingerprint, ABCDConfig())
        if spec.expect_reason is None:
            # disk-stray-tmp: the entry itself still serves.
            assert result.hit
        else:
            assert not result.hit
            assert result.reason.startswith(spec.expect_reason)
            # The bad bytes are quarantined, never retried.
            assert not store.entry_path(fingerprint).exists()
            assert store.counters.get("store.quarantined") == 1
        assert store.invariant_violations() == 0

    def test_forged_certificate_survives_envelope_but_not_replay(self, tmp_path):
        # The adversarial case the checksum cannot catch: a perfectly
        # valid envelope whose certificate proves the wrong thing.
        store = store_at(tmp_path)
        _, fingerprint = populate(store)
        DISK_FAULTS["disk-forged-certificate"].corrupt(
            store.entry_path(fingerprint)
        )
        raw = store.entry_path(fingerprint).read_bytes()
        decode_entry(raw)  # the envelope itself is intact
        result = store.load(fingerprint, ABCDConfig())
        assert not result.hit
        assert result.reason.startswith("certificate")

    @pytest.mark.parametrize(
        "name",
        [n for n, s in sorted(DISK_FAULTS.items()) if s.mode == "write"],
    )
    def test_write_fault_contained(self, tmp_path, name):
        spec = DISK_FAULTS[name]
        store = store_at(tmp_path)
        with spec.inject():
            outcome = cached_optimize_source(store, SUM_SOURCE)
        if spec.expect_write == "uncached":
            assert outcome.status == "miss-unstored"
            assert store.counters.get("store.put_errors") == 1
        else:  # benign (concurrent writer): last write wins wholesale
            assert outcome.status == "miss-stored"
            assert store.load(outcome.fingerprint, ABCDConfig()).hit

    def test_corruption_then_recompile_repopulates(self, tmp_path):
        store = store_at(tmp_path)
        _, fingerprint = populate(store)
        DISK_FAULTS["disk-torn-write"].corrupt(store.entry_path(fingerprint))
        outcome = cached_optimize_source(store, SUM_SOURCE)
        assert outcome.status == "miss-stored"  # quarantined, then re-stored
        assert cached_optimize_source(store, SUM_SOURCE).hit


# ----------------------------------------------------------------------
# Maintenance verbs.
# ----------------------------------------------------------------------


class TestMaintenance:
    def test_verify_all_passes_clean_and_quarantines_corrupt(self, tmp_path):
        store = store_at(tmp_path)
        _, fp_one = populate(store)
        _, fp_two = populate(store, SUM_SOURCE_EDITED)
        DISK_FAULTS["disk-flip-payload-byte"].corrupt(store.entry_path(fp_two))
        results = store.verify_all(ABCDConfig())
        verdicts = {r.fingerprint: r for r in results}
        assert verdicts[fp_one].ok and verdicts[fp_one].eliminations > 0
        assert not verdicts[fp_two].ok
        # Second pass: the store healed itself by quarantining.
        assert all(r.ok for r in store.verify_all(ABCDConfig()))

    def test_evict_and_gc(self, tmp_path):
        store = store_at(tmp_path)
        _, fp_one = populate(store)
        _, fp_two = populate(store, SUM_SOURCE_EDITED)
        assert store.evict(fp_one)
        assert not store.evict(fp_one)
        assert store.gc(max_entries=0) == 1
        assert list(store.iter_fingerprints()) == []

    def test_stats_payload_shape(self, tmp_path):
        store = store_at(tmp_path)
        populate(store)
        payload = store.stats_payload()
        assert payload["entries"] == 1
        assert payload["bytes"] > 0
        assert payload["quarantine_files"] == 0


# ----------------------------------------------------------------------
# Property sweep: fuzz-generated programs round-trip through the store.
# ----------------------------------------------------------------------


class TestGeneratedPrograms:
    @pytest.mark.parametrize("seed", range(6))
    def test_hit_means_byte_identical(self, tmp_path, seed):
        from repro.fuzz.generator import generate_source

        source = generate_source(seed)
        store = store_at(tmp_path)
        cold = cached_optimize_source(store, source)
        warm = cached_optimize_source(store, source)
        if cold.status == "miss-stored":
            assert warm.hit, warm.unstored_reason
            assert format_program(warm.program) == format_program(cold.program)
        else:
            # Uncacheable programs must stay uncacheable, never wrong.
            assert not warm.hit
        assert store.invariant_violations() == 0
