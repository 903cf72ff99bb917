"""Per-function certification and the revocation ladder.

``certify_state`` runs between the ``pre`` and ``check-removal`` passes:
every elimination the analysis decided on is still undone cheaply at this
point (removals are pending in ``state.to_remove``; PRE only appended
instructions).  For each elimination the driver

1. rebuilds the inequality graphs **freshly** from the function as it
   stands (independent of the analysis-time bundle — a corrupted bundle
   cannot vouch for itself), recomputing GVN congruences from scratch for
   eliminations that rested on a Section-7.1 retry;
2. replays the recorded witness through the independent checker
   (:mod:`repro.certify.checker`).  The function's non-PRE
   certificates replay through one checker replay per (kind,
   certificate source), so a proof that several certificates share
   verifies once; each PRE certificate replays fresh under its own
   assumption context;
3. on rejection, climbs the **revocation ladder**:

   * first rung — revoke exactly that elimination: the check stays in the
     program, its :class:`~repro.core.abcd.CheckAnalysis` is marked
     ``revoked`` (for PRE, the compensating checks are removed and the
     guarded check reverts to unconditional);
   * second rung — once ``config.certify_quarantine`` rejections accrue
     in one function, quarantine it: every elimination in the function is
     revoked and it compiles unoptimized;
   * ``--strict`` — escalate the first rejection to a
     :class:`~repro.errors.CertificateError` instead.

All compiler-side imports (graph construction, GVN) are function-local:
this module is imported by the solver via the package ``__init__`` and
must not complete the cycle at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.certify.checker import (
    AssumeContext,
    CertificateRejected,
    _Replay,
    check_witness,
)
from repro.certify.witness import witness_to_json
from repro.core.graph import Node, const_node, len_node
from repro.errors import CertificateError


@dataclass
class CertVerdict:
    """The checker's verdict on one eliminated check."""

    check_id: int
    function: str
    kind: str
    status: str  # "accepted" | "rejected"
    reason: Optional[str] = None


def certify_state(fn, state, config, report=None) -> List[CertVerdict]:
    """Certify every elimination recorded in ``state`` (an
    :class:`~repro.core.abcd.AbcdState`), revoking the rejected ones.

    Mutates ``state`` (rejected sites leave ``to_remove``) and, for
    rejected PRE transformations, ``fn`` (compensating checks are removed
    and the guarded check reverts to unconditional).  Appends quarantined
    function names to ``report.quarantined_functions`` when a report is
    given.
    """
    verdicts: List[CertVerdict] = []
    bundle = fresh_bundle(fn, config)
    records: Dict[int, object] = {a.check_id: a for a in state.analyses}
    gvn_cache: List[Optional[object]] = [None]
    # One replay per (kind, certificate source) for the whole function,
    # so subtrees shared between its certificates verify once.
    replays: Dict[tuple, _Replay] = {}
    rejections = 0

    surviving = []
    for site in state.to_remove:
        record = records.get(site.instr.check_id)
        reason = _check_one(fn, bundle, site, record, gvn_cache, replays=replays)
        verdict = _verdict(fn, site, reason)
        verdicts.append(verdict)
        if reason is None:
            record.certificate = "accepted"
            surviving.append(site)
        else:
            rejections += 1
            _revoke(record, "rejected")
            _escalate(config, verdict)
    state.to_remove[:] = surviving

    # PRE-transformed checks: the guarded check stays in the IR, so the
    # certificate covers the compensating-check assumptions instead.
    for site, record in state.pre_candidates:
        if not getattr(record, "pre_applied", False) or not record.eliminated:
            continue
        assume = AssumeContext(
            fn, site.kind, site.array, site.instr.guard_group
        )
        reason = _check_one(fn, bundle, site, record, gvn_cache, assume=assume)
        verdict = _verdict(fn, site, reason)
        verdicts.append(verdict)
        if reason is None:
            record.certificate = "accepted"
        else:
            rejections += 1
            _undo_pre(fn, site)
            _revoke(record, "rejected")
            _escalate(config, verdict)

    if rejections >= config.certify_quarantine > 0:
        _quarantine(fn, state, records)
        if report is not None:
            report.quarantined_functions.append(fn.name)
    return verdicts


# ----------------------------------------------------------------------
# One elimination.
# ----------------------------------------------------------------------


def _check_one(
    fn, bundle, site, record, gvn_cache, assume=None, replays=None
) -> Optional[str]:
    """Replay one elimination's certificate; ``None`` means accepted,
    otherwise the rejection reason.  ``replays`` maps ``(kind, source)``
    to the function's shared replay; without it the certificate replays
    fresh."""
    graph, source, budget = _query(bundle, site)
    try:
        if record is None:
            raise CertificateRejected("no analysis record for this elimination")
        cert_source = record.cert_source or source
        if cert_source != source:
            _validate_congruent_source(fn, bundle, site, cert_source, gvn_cache)
            source = cert_source
        if replays is None:
            check_witness(graph, source, site.target, budget, record.witness, assume)
        else:
            replay = replays.get((site.kind, source))
            if replay is None:
                replay = replays[site.kind, source] = _Replay(graph, source)
            replay.check(site.target, budget, record.witness)
    except CertificateRejected as exc:
        return str(exc)
    return None


def _query(bundle, site):
    if site.kind == "upper":
        return bundle.upper, len_node(site.array), -1
    return bundle.lower, const_node(0), 0


def _validate_congruent_source(fn, bundle, site, cert_source: Node, gvn_cache) -> None:
    """A Section-7.1 elimination proves against a *congruent* array's
    length; re-derive the congruence with a fresh value numbering."""
    if cert_source.kind != "len" or site.kind != "upper":
        raise CertificateRejected(
            f"certificate source {cert_source} does not match the query"
        )
    if gvn_cache[0] is None:
        from repro.opt.gvn import value_number

        gvn_cache[0] = value_number(fn)
    other = cert_source.name
    if other not in gvn_cache[0].class_members(site.array):
        raise CertificateRejected(
            f"{other} is not value-congruent to {site.array}"
        )
    if other not in bundle.array_vars:
        raise CertificateRejected(f"{other} is not an array variable")


def fresh_bundle(fn, config):
    """Rebuild the inequality graphs from the function as it stands,
    mirroring the analysis-time construction flags but sharing none of its
    objects (the store rebuilds a loaded function's graphs with it too)."""
    from repro.core.constraints import build_graphs

    gvn = None
    domtree = None
    if config.gvn_mode == "augment":
        from repro.analysis.dominance import DominatorTree
        from repro.opt.gvn import value_number

        gvn = value_number(fn)
        domtree = DominatorTree.compute(fn)
    return build_graphs(
        fn,
        allocation_facts=config.allocation_facts,
        gvn=gvn,
        pi_constraints=config.pi_constraints,
        domtree=domtree,
    )


def _verdict(fn, site, reason: Optional[str]) -> CertVerdict:
    return CertVerdict(
        check_id=site.instr.check_id,
        function=fn.name,
        kind=site.kind,
        status="accepted" if reason is None else "rejected",
        reason=reason,
    )


# ----------------------------------------------------------------------
# Replay of stored eliminations (the persistent store's re-check hook).
# ----------------------------------------------------------------------


@dataclass
class _ReplaySite:
    """The site fields ``_check_one``/``_query`` consume, minus the IR
    instruction — a stored elimination carries them explicitly."""

    kind: str
    array: Optional[str]
    target: Node


@dataclass
class _ReplayRecord:
    cert_source: Optional[Node]
    witness: object


def replay_elimination(
    fn,
    bundle,
    kind: str,
    array: Optional[str],
    target: Node,
    witness,
    cert_source: Optional[Node] = None,
    assume: Optional[AssumeContext] = None,
    gvn_cache: Optional[list] = None,
    replays: Optional[Dict[tuple, _Replay]] = None,
) -> Optional[str]:
    """Replay one *stored* elimination through the independent checker.

    Exactly the validation ``certify_state`` applies to an in-memory
    elimination, addressed by value instead of by live ``AbcdState``
    objects: the caller supplies the check's kind/array/proof target and
    the decoded witness, and gets back ``None`` (accepted) or the
    rejection reason.  ``gvn_cache`` is a one-slot list shared across
    calls on the same function so Section-7.1 congruence replays number
    values once.  ``replays`` is the function's shared replay map, as in
    ``certify_state``: pass one per function for non-PRE certificates
    and none for a PRE certificate, which replays fresh under its own
    ``assume`` context.
    """
    site = _ReplaySite(kind=kind, array=array, target=target)
    record = _ReplayRecord(cert_source=cert_source, witness=witness)
    if gvn_cache is None:
        gvn_cache = [None]
    return _check_one(fn, bundle, site, record, gvn_cache, assume, replays)


# ----------------------------------------------------------------------
# The revocation ladder.
# ----------------------------------------------------------------------


def _revoke(record, certificate: Optional[str]) -> None:
    if certificate is not None:
        record.certificate = certificate
    record.revoked = True
    record.eliminated = False
    record.scope = None


def _undo_pre(fn, site) -> None:
    """Revert one PRE transformation: drop its compensating checks and
    make the guarded check unconditional again (the materialized index
    temporaries are dead but harmless)."""
    from repro.ir.instructions import SpeculativeCheck

    group = site.instr.guard_group
    site.instr.guard_group = None
    if group is None:
        return
    # Locate the group's compensating checks through the def-use type
    # index and remove them with the chain-maintaining mutator.
    chains = fn.def_use()
    for instr in chains.instrs_of_type(SpeculativeCheck):
        if instr.guard_group == group:  # type: ignore[union-attr]
            fn.remove_instr(chains.block_of(instr), instr)


def _quarantine(fn, state, records) -> None:
    """Second rung: revoke every elimination in the function."""
    for site in state.to_remove:
        record = records.get(site.instr.check_id)
        if record is not None:
            _revoke(record, None)
    state.to_remove[:] = []
    for site, record in state.pre_candidates:
        if getattr(record, "pre_applied", False) and record.eliminated:
            _undo_pre(fn, site)
            _revoke(record, None)


def _escalate(config, verdict: CertVerdict) -> None:
    if config.strict:
        raise CertificateError(
            f"certificate rejected for check #{verdict.check_id} in "
            f"{verdict.function}: {verdict.reason}"
        )


# ----------------------------------------------------------------------
# Serialization.
# ----------------------------------------------------------------------


def certificates_to_json(report) -> Dict[str, object]:
    """Deterministic JSON form of a report's certificate outcomes (the
    payload behind ``repro certify --json``)."""
    analyses = sorted(report.analyses, key=lambda a: (a.function, a.check_id))
    return {
        "summary": {
            "analyzed": len(report.analyses),
            "eliminated": report.eliminated_count(),
            "emitted": report.certificates_emitted,
            "accepted": report.certificates_accepted,
            "rejected": report.certificates_rejected,
            "revoked": report.revoked_count,
            "quarantined": sorted(report.quarantined_functions),
        },
        "checks": [
            {
                "check_id": a.check_id,
                "function": a.function,
                "kind": a.kind,
                "eliminated": a.eliminated,
                "certificate": a.certificate,
                "revoked": a.revoked,
                "exhausted_budget": a.exhausted_budget,
                "witness": witness_to_json(a.witness),
            }
            for a in analyses
        ],
    }
