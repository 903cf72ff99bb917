"""Equivalence of the unified dual-direction traversal.

The shared session solves upper and lower queries in one traversal over
the dual inequality graph with a direction-tagged memo, in plain and
certify mode alike.  That sharing is purely an engine optimization:
every observable decision — which checks are eliminated, at what scope,
via which mechanism, and the checker's verdict on each certificate —
must be identical to two independent single-direction runs (one fresh
per-site prover per query, as the pre-unification pipeline did).
Certificate *bytes* may differ: a shared-session witness can embed the
closed proof an earlier site earned, where the per-query reference
re-derives it, so the bytes are pinned across fresh sessions instead.

The single-direction baseline is recovered by stripping ``dual`` from
every :class:`~repro.core.constraints.GraphBundle` the analysis builds,
which forces ``analyze_checks`` down its per-site fallback path over the
``upper``/``lower`` views.  The property is then checked over the whole
bench corpus (plain and certify mode) and 200 fuzzed programs.
"""

import contextlib
import json

import pytest

from repro.bench.corpus import CORPUS
from repro.certify.driver import certificates_to_json
from repro.core import abcd as abcd_module
from repro.core.abcd import ABCDConfig
from repro.fuzz.generator import GeneratorConfig, generate_source
from repro.pipeline import abcd, compile_source

CORPUS_NAMES = [p.name for p in CORPUS]

FUZZ_SEEDS = range(200)
_SEED_CHUNKS = [range(start, start + 25) for start in range(0, 200, 25)]


@contextlib.contextmanager
def _single_direction_sessions():
    """Force the per-site single-direction fallback in analyze_checks."""
    original = abcd_module.build_graphs

    def stripped(*args, **kwargs):
        bundle = original(*args, **kwargs)
        bundle.dual = None
        return bundle

    abcd_module.build_graphs = stripped
    try:
        yield
    finally:
        abcd_module.build_graphs = original


def _decisions(report):
    """Every observable per-check outcome of one run.

    ``result`` is compared as proven-ness, not as the exact lattice
    value: the shared memo may answer a later query with a
    cycle-tainted-but-proven entry (``REDUCED``) where a fresh per-site
    traversal never meets the cycle and reports ``TRUE``.  Both
    establish the bound, and nothing downstream of the solver
    distinguishes them (only ``ProofResult.proven`` is consulted).
    """
    return [
        (
            record.check_id,
            record.kind,
            record.function,
            record.block,
            record.result.proven,
            record.eliminated,
            record.scope,
            record.via_gvn,
            record.budget_exhausted,
            record.exhausted_budget,
            record.certificate,
            record.revoked,
        )
        for record in report.analyses
    ]


def test_plain_and_certify_label_every_check_identically():
    # Both modes share one session per function and certify mode only
    # adds witnesses, so every check gets the same lattice value and
    # the same elimination decision.
    for bench in CORPUS:
        _, plain = _run(bench.source())
        _, certified = _run(bench.source(), certify=True)
        labels = {
            (a.function, a.check_id, a.kind): (a.result, a.eliminated)
            for a in certified.analyses
        }
        assert len(labels) == len(plain.analyses), bench.name
        for record in plain.analyses:
            key = (record.function, record.check_id, record.kind)
            assert labels[key] == (record.result, record.eliminated), (
                bench.name,
                key,
            )


def _run(source: str, certify: bool = False):
    program = compile_source(source)
    config = ABCDConfig(certify=certify)
    report = abcd(program, config=config)
    return program, report


def _compare(source: str, certify: bool = False):
    _, unified = _run(source, certify=certify)
    with _single_direction_sessions():
        _, split = _run(source, certify=certify)
    assert _decisions(unified) == _decisions(split)
    return unified, split


def _certified_json(report) -> str:
    return json.dumps(certificates_to_json(report), indent=2)


class TestCorpusEquivalence:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_decisions_identical(self, name):
        source = next(p for p in CORPUS if p.name == name).source()
        _compare(source)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_certificates_byte_identical(self, name):
        # Certify mode: same decisions as the per-query reference, every
        # certificate of both runs accepted, and the shared session's
        # certificate bytes identical across two fresh sessions.
        source = next(p for p in CORPUS if p.name == name).source()
        unified, split = _compare(source, certify=True)
        for report in (unified, split):
            assert report.certificates_emitted == report.certificates_accepted
            assert report.certificates_emitted > 0
            assert report.certificates_rejected == 0
            assert report.revoked_count == 0
        _, again = _run(source, certify=True)
        assert _certified_json(unified) == _certified_json(again)


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seeds", _SEED_CHUNKS, ids=lambda r: f"{r.start}-{r.stop - 1}")
    def test_decisions_identical(self, seeds):
        for seed in seeds:
            source = generate_source(seed, GeneratorConfig())
            _compare(source)
