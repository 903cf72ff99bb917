"""The unified pass registry: every transformation as a declared Pass.

This is the single source of truth for pass order and for which passes
mutate.  ``pipeline.compile_source``/``abcd``, the CLI, the
differential gate, and the bench harness all build their pipelines from
these definitions through :class:`~repro.passes.session.
CompilationSession` — there is no second hand-rolled pass sequence
anywhere.

Invalidation follows one rule: a pass declares whether it ``mutates``
the function, and after a run that can change it the manager drops every
cached analysis of that function.  ``abcd`` and ``store-capture`` only
read the IR (``mutates=False``), so the dominator tree and GVN that
``abcd`` computes are still cached when ``pre`` runs; every other pass
mutates.  ``certify`` narrows that per function
(:meth:`~repro.passes.manager.Pass.may_change`): it changes only a
function with a PRE transformation to undo, so only such a function is
snapshotted and verified around it.

Transformation functions are looked up through their defining modules at
call time (``opt.optimize_worklist``, not a captured reference) so the
fault-injection harness — and monkeypatching tests — keep working against
the module bindings.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.abcd import ABCDConfig
from repro.ir.function import Function
from repro.passes.manager import Pass, PassContext


class InlinePass(Pass):
    """Bounded function inlining (whole-program, before e-SSA)."""

    name = "inline"
    scope = "program"

    def run(self, fn: Optional[Function], ctx: PassContext) -> int:
        from repro.opt.inline import inline_program

        assert ctx.program is not None
        return inline_program(ctx.program)


class EssaConstructionPass(Pass):
    """Edge splitting, π placement and SSA renaming in one CFG walk
    (paper Section 3)."""

    name = "essa"
    # ``standard-pipeline``'s guard verifies the result, or else
    # ``compile`` does; a verify here would walk the function twice.
    verify = False

    def should_run(self, fn: Function, ctx: PassContext) -> bool:
        return fn.ssa_form == "none"

    def run(self, fn: Function, ctx: PassContext) -> None:
        from repro.ssa.essa import construct_essa

        construct_essa(fn)
        return None


class StandardPipelinePass(Pass):
    """Copy-prop + const-fold + DCE fused into one sparse worklist.

    The worklist (:mod:`repro.opt.worklist`) seeds every instruction once
    and then revisits only transitively affected users/defs through the
    function's def-use chains, reaching the fixpoint of the dense
    ``repro.opt.run_standard_pipeline`` rounds in a single invocation.
    All mutation goes through the chain-maintaining ``Function`` mutator
    API, which debug mode checks with a rebuild-and-compare after every
    run.
    """

    name = "standard-pipeline"

    def should_run(self, fn: Function, ctx: PassContext) -> bool:
        # The suite assumes single-assignment form; a function whose e-SSA
        # construction was rolled back stays untouched.
        return fn.ssa_form != "none"

    def run(self, fn: Function, ctx: PassContext) -> int:
        import repro.opt as opt

        result = opt.optimize_worklist(fn)
        ctx.stats.count_worklist(
            self.name, result.instructions_visited, result.worklist_revisits
        )
        return result.changes


class AbcdAnalysisPass(Pass):
    """The demand-driven proofs (paper Figure 2) — analysis only.

    Builds the inequality graphs, proves each check, and stashes the
    resulting :class:`~repro.core.abcd.AbcdState` in the context for the
    ``pre`` and ``check-removal`` passes.  Nothing is mutated, so a crash
    here needs no rollback — the guard records the failure and the
    downstream passes simply find no state to act on.
    """

    name = "abcd"
    mutates = False
    snapshot = False
    verify = False

    def run(self, fn: Function, ctx: PassContext) -> None:
        from repro.core import abcd as abcd_module

        config = ctx.config or ABCDConfig()
        state = abcd_module.analyze_checks(
            fn, ctx.program, config, analysis=ctx.analysis, stats=ctx.stats
        )
        ctx.state[("abcd", id(fn))] = state
        return None


class PreInsertionPass(Pass):
    """Section-6 PRE of partially redundant checks.

    Self-guarded: each insertion attempt is individually rolled back on
    failure inside :func:`repro.core.abcd._guarded_pre` (the failure lands
    in ``ctx.report.pass_failures`` as pass ``"pre"``), so the manager
    adds no snapshot/verify of its own.
    """

    name = "pre"
    snapshot = False
    verify = False

    def should_run(self, fn: Function, ctx: PassContext) -> bool:
        state = ctx.state.get(("abcd", id(fn)))
        return (
            state is not None
            and ctx.config is not None
            and ctx.config.pre
            and ctx.profile is not None
            and bool(state.pre_candidates)
        )

    def run(self, fn: Function, ctx: PassContext) -> int:
        from repro.core import abcd as abcd_module

        state = ctx.state[("abcd", id(fn))]
        return abcd_module.apply_pre(
            fn,
            ctx.program,
            state,
            ctx.config,
            ctx.profile,
            ctx.report,
            analysis=ctx.analysis,
        )


class CertifyPass(Pass):
    """Replay every pending elimination's proof witness through the
    independent checker (``repro.certify``) before any check is removed.

    Rejections climb the revocation ladder inside
    :func:`repro.certify.driver.certify_state`: the elimination is revoked
    (the site leaves ``state.to_remove``; a PRE transformation is undone),
    repeated rejections quarantine the function, and strict mode raises
    :class:`~repro.errors.CertificateError`.  Only revocations of PRE
    transformations mutate the IR, so the manager snapshots and verifies
    only a function with a PRE transformation to undo.
    """

    name = "certify"

    def should_run(self, fn: Function, ctx: PassContext) -> bool:
        return (
            ctx.config is not None
            and getattr(ctx.config, "certify", False)
            and ("abcd", id(fn)) in ctx.state
        )

    def may_change(self, fn: Function, ctx: PassContext) -> bool:
        state = ctx.state[("abcd", id(fn))]
        return any(pre for _, _, pre in state.eliminations())

    def run(self, fn: Function, ctx: PassContext) -> int:
        from repro.certify.driver import certify_state

        state = ctx.state[("abcd", id(fn))]
        verdicts = certify_state(fn, state, ctx.config, ctx.report)
        return sum(1 for v in verdicts if v.status == "rejected")


class StoreCapturePass(Pass):
    """Snapshot one function for the persistent certificate store.

    Scheduled by ``CompilationSession.optimize`` (never part of the
    default pipeline — pipeline fingerprints must not depend on whether a
    cache is attached) between ``certify`` and ``check-removal``: the
    window where PRE has run, every surviving elimination carries an
    accepted certificate, and the checks are still in the IR — exactly
    the form certificate replay needs at load time.  Pure observation;
    nothing is mutated.
    """

    name = "store-capture"
    mutates = False
    snapshot = False
    verify = False

    def should_run(self, fn: Function, ctx: PassContext) -> bool:
        return ctx.store_capture is not None and ("abcd", id(fn)) in ctx.state

    def run(self, fn: Function, ctx: PassContext) -> None:
        ctx.store_capture.add_function(fn, ctx.state[("abcd", id(fn))])
        return None


class CheckRemovalPass(Pass):
    """Delete the checks the analysis proved redundant and publish the
    per-check records into the context's report.

    Verification happens *inside* the run, before publishing: if removal
    left malformed IR, the manager rolls the function back and the records
    are never published — the report stays consistent with the IR.
    """

    name = "check-removal"
    verify = False  # verified in run(), before the records are published

    def should_run(self, fn: Function, ctx: PassContext) -> bool:
        return ("abcd", id(fn)) in ctx.state

    def run(self, fn: Function, ctx: PassContext) -> int:
        from repro.core import abcd as abcd_module
        from repro.ir.verifier import verify_function

        state = ctx.state.pop(("abcd", id(fn)))
        removed = abcd_module.remove_checks(fn, state)
        verify_function(fn)
        ctx.report.analyses.extend(state.analyses)
        return removed


# ----------------------------------------------------------------------
# Registry and default pipelines.
# ----------------------------------------------------------------------

#: Every registered pass by name (instances are stateless).
PASS_REGISTRY: Dict[str, Pass] = {
    p.name: p
    for p in [
        InlinePass(),
        EssaConstructionPass(),
        StandardPipelinePass(),
        AbcdAnalysisPass(),
        PreInsertionPass(),
        CertifyPass(),
        StoreCapturePass(),
        CheckRemovalPass(),
    ]
}


def default_compile_passes(
    standard_opts: bool = True,
    inline: bool = False,
) -> List:
    """The pass list ``compile_source`` runs after lowering."""
    passes: List = []
    if inline:
        passes.append(PASS_REGISTRY["inline"])
    passes.append(PASS_REGISTRY["essa"])
    if standard_opts:
        passes.append(PASS_REGISTRY["standard-pipeline"])
    return passes


def default_optimize_passes() -> List[Pass]:
    """The pass list ``CompilationSession.optimize`` (and so ``abcd``)
    runs."""
    return [
        PASS_REGISTRY["abcd"],
        PASS_REGISTRY["pre"],
        PASS_REGISTRY["certify"],
        PASS_REGISTRY["check-removal"],
    ]
