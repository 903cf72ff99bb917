"""Per-function certification and the revocation ladder.

``certify_state`` runs between the ``pre`` and ``check-removal`` passes:
every elimination the analysis decided on is still undone cheaply at this
point (removals are pending in ``state.to_remove``; PRE only appended
instructions).  It hands the function's eliminations, as :class:`Claim`
records, to :func:`replay_function` — the one replay loop, which the
persistent store's load ladder calls too — and

1. rebuilds the inequality graphs **freshly** from the function as it
   stands (independent of the analysis-time bundle — a corrupted bundle
   cannot vouch for itself), recomputing GVN congruences from scratch for
   eliminations that rested on a Section-7.1 retry;
2. replays each claim's witness through the independent checker
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
   * second rung — once :data:`QUARANTINE_AFTER` rejections accrue in
     one function, quarantine it: every elimination in the function is
     revoked and it compiles unoptimized;
   * ``--strict`` — escalate the first rejection to a
     :class:`~repro.errors.CertificateError` instead.

All compiler-side imports (graph construction, GVN, the ABCD query) are
function-local: this module is imported by the solver via the package
``__init__`` and must not complete the cycle at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.certify.checker import (
    AssumeContext,
    CertificateRejected,
    _Replay,
    check_witness,
)
from repro.certify.witness import witness_to_json
from repro.core.graph import Node
from repro.errors import CertificateError

#: Quarantine a function to unoptimized compilation once this many of its
#: certificates are rejected (the revocation ladder's second rung).
QUARANTINE_AFTER = 2


@dataclass
class CertVerdict:
    """The checker's verdict on one eliminated check."""

    check_id: int
    function: str
    kind: str
    status: str  # "accepted" | "rejected"
    reason: Optional[str] = None


class Claim(NamedTuple):
    """One elimination to re-prove, as :func:`replay_elimination` takes
    it; ``assume`` is set for a PRE transformation."""

    kind: str
    array: Optional[str]
    target: Node
    witness: object
    cert_source: Optional[Node]
    assume: Optional[AssumeContext]


def certify_state(fn, state, config, report=None) -> List[CertVerdict]:
    """Certify every elimination recorded in ``state`` (an
    :class:`~repro.core.abcd.AbcdState`), revoking the rejected ones.

    Mutates ``state`` (rejected sites leave ``to_remove``) and, for
    rejected PRE transformations, ``fn`` (compensating checks are removed
    and the guarded check reverts to unconditional).  Appends quarantined
    function names to ``report.quarantined_functions`` when a report is
    given.
    """
    eliminations = list(state.eliminations())
    if not eliminations:
        return []
    claims = []
    for site, record, pre in eliminations:
        # A PRE check stays in the IR as a guarded check, so its
        # certificate covers the compensating-check assumptions instead.
        group = site.instr.guard_group
        assume = AssumeContext(fn, site.kind, site.array, group) if pre else None
        claims.append(Claim(site.kind, site.array, site.target, record.witness,
                            record.cert_source, assume))
    verdicts: List[CertVerdict] = []
    reasons = replay_function(fn, config, claims)
    for (site, record, pre), reason in zip(eliminations, reasons):
        status = "accepted" if reason is None else "rejected"
        verdict = CertVerdict(site.instr.check_id, fn.name, site.kind, status, reason)
        verdicts.append(verdict)
        if reason is None:
            record.certificate = "accepted"
            continue
        if pre:
            _undo_pre(fn, site)
        _revoke(record, "rejected")
        if config.strict:
            raise CertificateError(
                f"certificate rejected for check #{verdict.check_id} in "
                f"{fn.name}: {reason}"
            )
    state.to_remove[:] = [
        site for site, record, pre in eliminations if not pre and not record.revoked
    ]
    if sum(v.status == "rejected" for v in verdicts) >= QUARANTINE_AFTER:
        # Second rung: revoke every elimination left in the function.
        for site, record, pre in list(state.eliminations()):
            if pre:
                _undo_pre(fn, site)
            _revoke(record, None)
        state.to_remove[:] = []
        if report is not None:
            report.quarantined_functions.append(fn.name)
    return verdicts


# ----------------------------------------------------------------------
# Replay: one function, one elimination.
# ----------------------------------------------------------------------


def replay_function(fn, config, claims: Iterable[Claim]) -> Iterator[Optional[str]]:
    """Replay one function's claims through the independent checker and
    yield each one's rejection reason (``None``: accepted), in order; a
    caller may stop early.

    The graphs are rebuilt from ``fn`` once and values are numbered at
    most once.  Plain claims share one checker replay per (kind,
    certificate source); each PRE claim replays fresh under its own
    assumption context.
    """
    bundle = fresh_bundle(fn, config)
    cache: List[Optional[object]] = [None]  # the function's value numbering
    replays: Dict[tuple, _Replay] = {}
    for claim in claims:
        shared = replays if claim.assume is None else None
        yield replay_elimination(fn, bundle, *claim, gvn_cache=cache, replays=shared)


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
    """Replay one elimination's certificate; ``None`` means accepted,
    otherwise the rejection reason.  ``cert_source`` is set when the proof
    started from another vertex than the check's query (a Section-7.1
    retry against a congruent array); ``gvn_cache`` is a one-slot list
    that numbers the function's values once across calls.  ``replays``
    maps ``(kind, source)`` to the function's shared replay; without it
    the certificate replays fresh, under ``assume``.
    """
    from repro.core.abcd import _query_for

    graph, source, budget = _query_for(bundle, kind, array)
    try:
        if cert_source is not None and cert_source != source:
            _validate_congruent_source(
                fn, bundle, kind, array, cert_source, gvn_cache or [None]
            )
            source = cert_source
        if replays is None:
            check_witness(graph, source, target, budget, witness, assume)
        else:
            replay = replays.get((kind, source))
            if replay is None:
                replay = replays[kind, source] = _Replay(graph, source)
            replay.check(target, budget, witness)
    except CertificateRejected as exc:
        return str(exc)
    return None


def _validate_congruent_source(
    fn, bundle, kind: str, array: Optional[str], cert_source: Node, gvn_cache
) -> None:
    """A Section-7.1 elimination proves against a *congruent* array's
    length; re-derive the congruence with a fresh value numbering."""
    if cert_source.kind != "len" or kind != "upper":
        raise CertificateRejected(
            f"certificate source {cert_source} does not match the query"
        )
    if gvn_cache[0] is None:
        from repro.opt.gvn import value_number

        gvn_cache[0] = value_number(fn)
    other = cert_source.name
    if other not in gvn_cache[0].class_members(array):
        raise CertificateRejected(
            f"{other} is not value-congruent to {array}"
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


# ----------------------------------------------------------------------
# Serialization.
# ----------------------------------------------------------------------


def certificates_to_json(report) -> Dict[str, object]:
    """Deterministic JSON form of a report's certificate outcomes (the
    payload behind ``repro optimize --json``)."""
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
