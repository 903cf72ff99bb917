"""Equivalence of the unified dual-direction traversal.

The shared session solves upper and lower queries in one traversal over
the dual inequality graph with a direction-tagged memo.  That sharing is
purely an engine optimization: every observable outcome — which checks
are eliminated, at what scope, via which mechanism, and the certificate
emitted for each — must be identical to two independent single-direction
runs (one fresh per-site prover per query, as the pre-unification
pipeline did).

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
from repro.core.lattice import ProofResult
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
    :data:`MEMO_SUBSUMED_LABELS` pins where this happens on the corpus.
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


#: ``(program, function, check id, kind)`` of the corpus checks that the
#: plain-mode shared session labels ``REDUCED`` (a memo entry earned
#: under a looser budget subsumes the query) and certify mode's fresh
#: per-query sessions label ``TRUE``.
MEMO_SUBSUMED_LABELS = {
    ("bubbleSort", "bubble_sort", 7, "upper"),
    ("biDirBubbleSort", "sort", 19, "upper"),
    ("bytemark", "numeric_sort", 22, "lower"),
}


def test_plain_and_certify_differ_only_on_memo_subsumed_labels():
    relabelled = set()
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
            result, eliminated = labels[key]
            assert record.eliminated == eliminated, (bench.name, key)
            if record.result != result:
                assert (record.result, result) == (
                    ProofResult.REDUCED,
                    ProofResult.TRUE,
                ), (bench.name, key)
                relabelled.add((bench.name,) + key)
    assert relabelled == MEMO_SUBSUMED_LABELS


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
    if certify:
        unified_json = json.dumps(certificates_to_json(unified), indent=2)
        split_json = json.dumps(certificates_to_json(split), indent=2)
        assert unified_json == split_json


class TestCorpusEquivalence:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_decisions_identical(self, name):
        source = next(p for p in CORPUS if p.name == name).source()
        _compare(source)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_certificates_byte_identical(self, name):
        source = next(p for p in CORPUS if p.name == name).source()
        _compare(source, certify=True)


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seeds", _SEED_CHUNKS, ids=lambda r: f"{r.start}-{r.stop - 1}")
    def test_decisions_identical(self, seeds):
        for seed in seeds:
            source = generate_source(seed, GeneratorConfig())
            _compare(source)
