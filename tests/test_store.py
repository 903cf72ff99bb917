"""Tests for the persistent certificate store (``src/repro/store/``).

Covers the cache-key contract (what must hit, what must miss), the
atomic write protocol and its crash recovery, the zero-trust load ladder
rung by rung, every registered disk fault's exact containment, forged
witness tables (each must stop at the ``certificate`` rung), the
table's round trip, the refusal of a capture past the load bound, the
byte-identity guarantee (a hit's program is byte-identical to a fresh
certified compile), the "no load without a passing re-check" invariant,
and a property sweep over fuzz-generated programs.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.bench.corpus import CORPUS
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


def payload_of(data: bytes) -> str:
    return data[: data.rfind(b"\n#sha256:")].decode()


def envelope(obj) -> bytes:
    """``obj`` as entry bytes with a *valid* checksum footer."""
    import hashlib

    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(payload).hexdigest().encode()
    return payload + b"\n#sha256:" + digest + b"\n"


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
        ],
    )
    def test_semantic_config_flags_change_the_key(self, field, value):
        base = ABCDConfig()
        changed = ABCDConfig()
        setattr(changed, field, value)
        assert store_fingerprint(SUM_SOURCE, base) != store_fingerprint(
            SUM_SOURCE, changed
        )

    @pytest.mark.parametrize("field", ["certify", "strict"])
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
        programs under the default config, without and with inlining.
        Keys move only on a schema bump, which regenerates the file; a
        lexer or hashing change that would orphan stored entries must
        fail here instead."""
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
                Elimination(check_id=0, kind="upper", array="a", target=0, witness=0)
            ]
        }
        data = encode_entry(entry)
        # Re-encode with a string check_id inside a *valid* envelope.
        obj = json.loads(data[: data.rfind(b"\n#sha256:")].decode())
        obj["eliminations"]["main"][0]["check_id"] = "zero"
        assert self.reason_of(envelope(obj)) == "shape"

    @pytest.mark.parametrize("field", ["vertices", "witnesses"])
    def test_table_that_is_not_a_list_is_a_shape_violation(self, field):
        obj = json.loads(payload_of(encode_entry(self.entry())))
        obj[field] = {"0": ["const", 0]}
        assert self.reason_of(envelope(obj)) == "shape"

    def test_schema_1_payload_at_a_schema_2_key(self, tmp_path):
        # An entry written before the table encoding: one JSON tree per
        # certificate, schema 1.  Its key is unreachable after the bump;
        # planted at a current key anyway, it must stop at ``schema``.
        store = store_at(tmp_path)
        fingerprint = store_fingerprint(SUM_SOURCE, ABCDConfig())
        tree = {"node": "axiom", "vertex": {"kind": "const", "value": 0},
                "rule": "source"}
        old = {
            "schema": 1,
            "fingerprint": fingerprint,
            "ir": "fn main() {}",
            "eliminations": {"main": [{
                "check_id": 0, "kind": "lower", "array": None,
                "target": {"kind": "var", "name": "i.3"}, "witness": tree,
                "cert_source": None, "pre": False,
            }]},
            "meta": {},
        }
        path = store.entry_path(fingerprint)
        path.parent.mkdir(parents=True)
        path.write_bytes(envelope(old))
        result = store.load(fingerprint, ABCDConfig())
        assert not result.hit and result.reason == "schema"


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
# The certificate table: forged tables inside valid envelopes.
# ----------------------------------------------------------------------

#: A loop whose first lower proof closes a cycle on its own target
#: ``i``: the loop φ's increment branch returns to ``i`` through the join
#: φ of the first ``if``.  The second check, on ``i + 1``, proves from
#: that join φ.
CYCLE_SOURCE = """
fn f(a: int[], n: int, k: int): int {
  let s: int = 0;
  let i: int = 0;
  while (i < n) {
    if (k > 0) { s = s + a[i]; }
    if (k > 1) { s = s + a[i + 1]; }
    i = i + 1;
  }
  return s;
}
fn main(): int {
  let a: int[] = new int[8];
  return f(a, 5, 1);
}
"""

#: ``b`` and ``c`` are congruent φs, so ``c[i]`` is proven against
#: ``len(b)`` (a Section-7.1 retry) and shares ``b[i]``'s proof.
CONGRUENT_SOURCE = """
fn f(x: int[], y: int[], k: int): int {
  let b: int[] = x;
  let c: int[] = x;
  if (k > 0) { b = y; c = y; }
  let s: int = 0;
  for (let i: int = 0; i < len(b); i = i + 1) { s = s + c[i] + b[i]; }
  return s;
}
fn main(): int {
  let x: int[] = new int[8];
  let y: int[] = new int[8];
  return f(x, y, 1);
}
"""


def _reachable(rows, root):
    seen, stack = set(), [root]
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        row = rows[index]
        if row[0] == "edge":
            stack.append(row[4])
        elif row[0] == "phi":
            stack.extend(branch[2] for branch in row[2])
    return seen


def _escaping(rows):
    """Rows whose subtree holds a cycle leaf that does not close in it."""
    open_targets = []
    for row in rows:
        if row[0] == "cycle":
            targets = {row[1]}
        elif row[0] == "edge":
            targets = open_targets[row[4]] - {row[1]}
        elif row[0] == "phi":
            targets = set().union(*(open_targets[b[2]] for b in row[2]))
            targets -= {row[1]}
        else:
            targets = set()
        open_targets.append(targets)
    return [index for index, targets in enumerate(open_targets) if targets]


class TestCertificateTable:
    """Every forged table clears the envelope and must stop at the
    ``certificate`` rung: quarantined, reported as a miss."""

    def forge(self, tmp_path, mutate, source=SUM_SOURCE):
        store = store_at(tmp_path)
        _, fingerprint = populate(store, source)
        path = store.entry_path(fingerprint)
        obj = json.loads(payload_of(path.read_bytes()))
        mutate(obj)
        path.write_bytes(envelope(obj))
        started = time.perf_counter()
        result = store.load(fingerprint, ABCDConfig())
        self.load_seconds = time.perf_counter() - started
        assert not result.hit
        assert result.reason.startswith("certificate"), result.reason
        assert not path.exists()
        assert store.counters.get("store.quarantined") == 1
        assert store.invariant_violations() == 0
        return result.reason

    @staticmethod
    def upper(obj):
        return [e for e in obj["eliminations"]["main"] if e["kind"] == "upper"]

    @pytest.mark.parametrize("where", ["forward", "self"])
    def test_sub_must_index_an_earlier_row(self, tmp_path, where):
        def mutate(obj):
            rows = obj["witnesses"]
            index = next(i for i, row in enumerate(rows) if row[0] == "edge")
            rows[index][4] = index + 1 if where == "forward" else index

        assert "earlier row" in self.forge(tmp_path, mutate)

    @pytest.mark.parametrize(
        "field,offset", [("target", 0), ("target", -1), ("witness", 0),
                         ("cert_source", 0)]
    )
    def test_elimination_index_out_of_range(self, tmp_path, field, offset):
        def mutate(obj):
            table = obj["witnesses" if field == "witness" else "vertices"]
            elim = obj["eliminations"]["main"][0]
            elim[field] = -1 if offset < 0 else len(table)

        assert "out of range" in self.forge(tmp_path, mutate)

    def test_row_vertex_index_out_of_range(self, tmp_path):
        def mutate(obj):
            obj["witnesses"][0][1] = len(obj["vertices"])

        assert "bad vertex index" in self.forge(tmp_path, mutate)

    def test_root_row_proving_another_vertex(self, tmp_path):
        # The second upper certificate names the first one's root row,
        # verified and cached a moment earlier in the same replay.
        def mutate(obj):
            first, second = self.upper(obj)
            second["witness"] = first["witness"]

        assert "witness proves" in self.forge(tmp_path, mutate)

    def test_tightened_edge_row_shared_by_two_certificates(self, tmp_path):
        def mutate(obj):
            rows = obj["witnesses"]
            roots = [e["witness"] for e in obj["eliminations"]["main"]]
            reach = [_reachable(rows, root) for root in roots]
            shared = next(
                index
                for index, row in enumerate(rows)
                if row[0] == "edge" and sum(index in r for r in reach) >= 2
            )
            rows[shared][3] -= 1

        assert "no graph edge" in self.forge(tmp_path, mutate)

    def test_diamond_chain_rejected_before_replay(self, tmp_path, monkeypatch):
        # 64 shared φ diamonds over a cycle leaf no subtree closes: a few
        # hundred bytes that expand to 2**64 tree nodes.  Replaying it
        # would never finish; the size bound must stop it first.
        from repro.certify.checker import _Replay

        def never(*args, **kwargs):
            raise AssertionError("a certificate replayed")

        def mutate(obj):
            rows = obj["witnesses"]
            rows.append(["cycle", 0])
            for _ in range(64):
                below = len(rows) - 1
                rows.append(["phi", 0, [[0, 0, below], [1, 0, below]]])
            obj["eliminations"]["main"][0]["witness"] = len(rows) - 1
            monkeypatch.setattr(_Replay, "check", never)

        assert "expand past" in self.forge(tmp_path, mutate)
        assert self.load_seconds < 1.0

    # Cross-certificate cases of ``TestPerFunctionReplay`` in
    # ``test_certify.py``, reached through the store's per-function
    # replay.

    def test_smaller_budget_rejected_across_certificates(self, tmp_path):
        # The second upper proof descends through edge rows into the
        # first one's root row.  Claiming the last edge 1 weaker (the
        # graph still backs it) reaches that row at a smaller budget,
        # where it does not hold, so its cache entry must not answer.
        def mutate(obj):
            first, second = self.upper(obj)
            rows = obj["witnesses"]
            row = rows[second["witness"]]
            while row[4] != first["witness"]:
                row = rows[row[4]]
                assert row[0] == "edge"
            row[3] += 1

        assert "source axiom" in self.forge(tmp_path, mutate)

    def test_escaping_cycle_rejected_across_certificates(self, tmp_path):
        # The first proof walks the join φ with its cycle leaf on ``i``
        # active.  The second proof's root edge is pointed at that φ
        # subtree, reached at the same budget but with ``i`` not active.
        def mutate(obj):
            first, second = obj["eliminations"]["f"]
            rows = obj["witnesses"]
            root = rows[second["witness"]]
            assert root[0] == "edge"
            root[4] = next(
                index
                for index in _escaping(rows)
                if rows[index][0] == "phi"
                and rows[index][1] == root[2]
                and index in _reachable(rows, first["witness"])
            )

        reason = self.forge(tmp_path, mutate, CYCLE_SOURCE)
        assert "not active" in reason

    def test_congruent_source_kept_apart(self, tmp_path):
        # ``c[i]`` shares ``b[i]``'s proof against ``len(b)``.  With
        # ``b[i]`` replayed first, a ``c[i]`` certificate that drops its
        # Section-7.1 source proves against ``len(c)``: it needs a replay
        # of its own, where the ``len(b)`` source axiom fails.
        def mutate(obj):
            elims = obj["eliminations"]["f"]
            vertices = obj["vertices"]
            upper = [e for e in elims if e["kind"] == "upper"]
            retried = next(
                e for e in upper
                if vertices[e["cert_source"]] != ["len", e["array"]]
            )
            direct = next(
                e for e in upper
                if e["cert_source"] == retried["cert_source"] and e is not retried
            )
            retried["cert_source"] = None
            elims.remove(direct)
            elims.insert(0, direct)

        assert "source axiom" in self.forge(tmp_path, mutate, CONGRUENT_SOURCE)


class TestReplayError:
    def test_exception_in_replay_is_a_counted_rejection(self, tmp_path, monkeypatch):
        """An exception the ladder did not expect is a ``replay-error``
        rejection, counted like every other rung's."""
        from repro.certify import driver

        store = store_at(tmp_path)
        source = next(p for p in CORPUS if p.name == "Sieve").source()
        _, fingerprint = populate(store, source)

        def broken(*args, **kwargs):
            raise RuntimeError("replay bug")

        monkeypatch.setattr(driver, "replay_function", broken)
        result = store.load(fingerprint, ABCDConfig())
        assert not result.hit
        assert result.reason == "replay-error: replay bug"
        assert store.counters.get("store.quarantined.replay-error") == 1
        assert store.counters.get("store.replay_rejected") == 1


class TestTableRoundTrip:
    """Decoding the stored table gives back every captured witness, and
    the table never needs more rows than the trees have nodes."""

    @staticmethod
    def tree_nodes(witness) -> int:
        from repro.certify.witness import EdgeWitness, PhiWitness

        count, stack = 0, [witness]
        while stack:
            w = stack.pop()
            count += 1
            if isinstance(w, EdgeWitness):
                stack.append(w.sub)
            elif isinstance(w, PhiWitness):
                stack.extend(sub for _, _, sub in w.branches)
        return count

    @pytest.mark.parametrize(
        "name", [p.name for p in CORPUS] + [f"seed{s}" for s in range(50)]
    )
    def test_decode_inverts_encode(self, name):
        from repro.certify.witness import decode_witness_table, witness_to_json
        from repro.fuzz.generator import generate_source
        from repro.passes.session import CompilationSession
        from repro.store import StoreCapture, certifying_config, entry_payload

        if name.startswith("seed"):
            source = generate_source(int(name[4:]))
        else:
            source = next(p for p in CORPUS if p.name == name).source()
        session = CompilationSession(config=certifying_config(None))
        program = session.compile(source)
        capture = StoreCapture()
        report = session.optimize(program, capture=capture)
        entry = capture.build_entry("ef" * 32, program, report)
        if entry is None:
            return  # uncacheable: nothing is stored
        originals = {(a.function, a.check_id): a.witness for a in report.analyses}
        payload = json.loads(json.dumps(entry_payload(entry)))
        nodes, witnesses, sizes = decode_witness_table(
            payload["vertices"], payload["witnesses"]
        )
        assert sizes == capture.table.sizes
        tree_nodes = 0
        for function, elims in entry.eliminations.items():
            for elim in elims:
                original = originals[function, elim.check_id]
                decoded = witnesses[elim.witness]
                assert witness_to_json(decoded) == witness_to_json(original)
                assert nodes[elim.target] == decoded.vertex
                tree_nodes += self.tree_nodes(original)
        assert len(payload["witnesses"]) <= tree_nodes


class TestOversizedCapture:
    """A capture whose certificates expand past the load ladder's bound
    is refused at capture time: storing it would only make every load
    reject and quarantine it, and every request compile it again."""

    BOUND = 4

    @pytest.fixture
    def small_bound(self, monkeypatch):
        import repro.store.store as store_module

        monkeypatch.setattr(store_module, "MAX_WITNESS_NODES", self.BOUND)

    def test_cached_compile_stays_unstored(self, tmp_path, small_bound):
        store = store_at(tmp_path)
        source = next(p for p in CORPUS if p.name == "Sieve").source()
        for _ in range(2):
            outcome = cached_optimize_source(store, source)
            assert outcome.status == "miss-unstored"
            assert outcome.unstored_reason == (
                f"witnesses expand past {self.BOUND} nodes"
            )
        assert store.counters.get("store.puts", 0) == 0
        assert not any(name.startswith("store.quarantined")
                       for name in store.counters)
        assert list(store.iter_fingerprints()) == []

    def test_serve_capture_answers_uncacheable(self, small_bound):
        from repro.serve.worker import _serve_request

        response = _serve_request(
            {"op": "compile", "id": "a", "source": SUM_SOURCE,
             "cache": "capture", "fingerprint": "ab" * 32},
            None, False, 0,
        )
        assert response["status"] == "ok"
        assert "store_entry" not in response
        assert response["store_uncacheable"] == (
            f"witnesses expand past {self.BOUND} nodes"
        )


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
        assert verdicts[fp_one].hit and verdicts[fp_one].eliminations > 0
        assert not verdicts[fp_two].hit
        # Second pass: the store healed itself by quarantining.
        assert all(r.hit for r in store.verify_all(ABCDConfig()))

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


# ----------------------------------------------------------------------
# One replay loop for the certify pass and the load ladder.
# ----------------------------------------------------------------------


class TestOneReplayLoop:
    def test_compile_and_load_each_replay_once_per_eliminating_function(
        self, tmp_path, monkeypatch
    ):
        """A certified compile and a store load both re-prove through
        ``replay_function``, once per function that has eliminations, so
        a second replay loop cannot come back unnoticed."""
        from repro.bench.corpus import get
        from repro.certify import driver

        calls = []
        real = driver.replay_function

        def counted(fn, config, claims):
            calls.append(fn.name)
            return real(fn, config, claims)

        monkeypatch.setattr(driver, "replay_function", counted)
        store = store_at(tmp_path)
        outcome, fingerprint = populate(store, get("jack").source())
        eliminating = sorted(
            {a.function for a in outcome.report.analyses if a.eliminated}
        )
        assert 0 < len(eliminating) < len(outcome.program.functions)
        assert sorted(calls) == eliminating
        calls.clear()
        loaded = store.load(fingerprint, ABCDConfig())
        assert loaded.hit
        assert sorted(calls) == eliminating
