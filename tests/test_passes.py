"""Pass-manager architecture tests: CompilationSession, AnalysisManager
caching and invalidation, the pass registry, structural cloning, and the
SessionStats surfaces (--time-passes, bench --json)."""

import copy
import json

import pytest

from repro import CompilationSession, abcd, clone_program, compile_source, run
from repro.bench.corpus import CORPUS
from repro.cli import main
from repro.core.abcd import ABCDConfig
from repro.errors import PassGuardError
from repro.ir.printer import format_program
from repro.passes import (
    AnalysisManager,
    PASS_REGISTRY,
    Pass,
    PassContext,
    PassManager,
    SessionStats,
    default_compile_passes,
    default_optimize_passes,
)
from repro.robustness.guard import PassGuard

SRC = """
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

TWO_FN_SRC = """
fn sum(a: int[]): int {
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}

fn main(): int {
  let a: int[] = new int[5];
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i * 2;
  }
  return sum(a);
}
"""


def _session_through_pipeline(source=SRC):
    session = CompilationSession()
    program = session.compile(source)
    report = session.optimize(program)
    return session, program, report


# ----------------------------------------------------------------------
# Tentpole: the session API.
# ----------------------------------------------------------------------


class TestCompilationSession:
    def test_compile_optimize_run(self):
        session, program, report = _session_through_pipeline()
        assert program.function("main").ssa_form == "essa"
        assert report.eliminated_count() == report.analyzed > 0
        assert run(program, "main").value == 28

    def test_matches_one_shot_helpers(self):
        _, session_program, session_report = _session_through_pipeline()
        helper_program = compile_source(SRC)
        helper_report = abcd(helper_program)
        assert format_program(session_program) == format_program(helper_program)
        assert session_report.eliminated_count() == helper_report.eliminated_count()

    def test_report_carries_session_stats(self):
        session, _, report = _session_through_pipeline()
        assert report.session_stats is session.stats
        names = set(report.session_stats.passes)
        assert {"essa", "abcd", "check-removal"} <= names

    def test_one_shot_abcd_carries_session_stats(self):
        program = compile_source(SRC)
        report = abcd(program)
        assert report.session_stats is not None
        assert "abcd" in report.session_stats.passes

    def test_stats_cover_compile_and_optimize(self):
        session, _, _ = _session_through_pipeline()
        recorded = session.stats.passes
        assert recorded["essa"].invocations == 1
        assert recorded["check-removal"].changes > 0
        assert session.stats.total_seconds >= 0.0
        assert session.stats.rollback_count == 0

    def test_strict_session_escalates(self, monkeypatch):
        import repro.core.abcd as abcd_module

        session = CompilationSession(strict=True)
        program = session.compile(SRC)

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(abcd_module, "build_graphs", boom)
        with pytest.raises(PassGuardError):
            session.optimize(program)


# ----------------------------------------------------------------------
# Satellite 1: the analysis cache is demonstrably effective.
# ----------------------------------------------------------------------


class TestAnalysisCaching:
    def test_dominance_computed_at_most_twice_per_function(self, monkeypatch):
        """Through the full default pipeline (e-SSA + standard opts + ABCD)
        the cache computes dominance at most once per function: e-SSA
        construction needs none, so the ABCD passes compute the only one."""
        from repro.analysis.dominance import DominatorTree

        computed = []
        original = DominatorTree.compute.__func__

        def counting(cls, fn, *args, **kwargs):
            computed.append(fn.name)
            return original(cls, fn, *args, **kwargs)

        monkeypatch.setattr(DominatorTree, "compute", classmethod(counting))
        session = CompilationSession()
        program = session.compile(TWO_FN_SRC)
        session.optimize(program)
        monkeypatch.undo()
        for name in program.functions:
            assert computed.count(name) <= 1, name
        assert session.analysis.misses["domtree"] == len(computed)

    def test_cache_hits_are_recorded(self):
        # ``augment`` looks up gvn, which computes domtree, and then
        # domtree itself: the second lookup is served from the cache.
        session = CompilationSession(config=ABCDConfig(gvn_mode="augment"))
        session.optimize(session.compile(SRC))
        assert session.analysis.hits["domtree"] > 0
        assert session.analysis.total_misses > 0
        stats = session.analysis.stats()
        assert set(stats) == {"hits", "misses", "seconds"}

    def test_get_caches_and_invalidate_drops(self):
        manager = AnalysisManager()
        program = compile_source(SRC)
        fn = program.function("main")
        first = manager.get("domtree", fn)
        assert manager.get("domtree", fn) is first
        assert manager.hits["domtree"] == 1
        manager.invalidate(fn)
        assert manager.get("domtree", fn) is not first
        assert manager.misses["domtree"] == 2


class _Noop(Pass):
    """Keeps the default ``mutates=True`` and changes nothing: the rule
    goes by the declaration, not by what a run did."""

    name = "noop"
    snapshot = False
    verify = False

    def run(self, fn, ctx):
        return 0


class _Observer(_Noop):
    name = "observer"
    mutates = False


def _manager_over_main():
    """A pass manager over ``SRC``'s compiled program, and its ``main``."""
    program = compile_source(SRC)
    analysis = AnalysisManager()
    ctx = PassContext(
        program=program,
        analysis=analysis,
        guard=PassGuard(),
        stats=SessionStats(analysis),
    )
    return PassManager(ctx), program.function("main")


class TestInvalidationRule:
    """One rule: a mutating pass drops its function's analyses; a pass
    with ``mutates=False`` keeps them."""

    def _lookup_after(self, p):
        manager, fn = _manager_over_main()
        analysis = manager.ctx.analysis
        first = analysis.get("domtree", fn)
        manager.run_function_pass(p, fn)
        return first, analysis.get("domtree", fn), analysis

    def test_mutating_pass_drops_the_cache(self):
        first, again, analysis = self._lookup_after(_Noop())
        assert again is not first
        assert analysis.hits.get("domtree", 0) == 0
        assert analysis.misses["domtree"] == 2

    def test_non_mutating_pass_keeps_the_cache(self):
        first, again, analysis = self._lookup_after(_Observer())
        assert again is first
        assert analysis.hits["domtree"] == 1
        assert analysis.misses["domtree"] == 1

    def test_pre_reuses_the_abcd_dominator_tree(self, monkeypatch):
        """On a PRE compile, every ``domtree`` lookup PRE makes is a hit
        on the tree the ``abcd`` pass computed (through GVN)."""
        import repro.core.abcd as abcd_module
        from repro.bench.harness import run_benchmark

        deltas = []
        original = abcd_module._guarded_pre

        def guarded_pre(*args, analysis=None, **kwargs):
            def counts():
                return (analysis.hits.get("domtree", 0),
                        analysis.misses.get("domtree", 0))

            before = counts()
            result = original(*args, analysis=analysis, **kwargs)
            after = counts()
            deltas.append((after[0] - before[0], after[1] - before[1]))
            return result

        monkeypatch.setattr(abcd_module, "_guarded_pre", guarded_pre)
        run_benchmark(next(p for p in CORPUS if p.name == "Hanoi"))
        assert deltas and all(delta == (1, 0) for delta in deltas)


# ----------------------------------------------------------------------
# Verified since last change: a function is verified and snapshotted only
# when it can have changed.
# ----------------------------------------------------------------------


def _count_walks_and_clones(monkeypatch):
    """Record, per call, the pass running (``None`` outside any pass) and
    the function name of every verifier walk (``verify_function``, also
    inside ``verify_program``) and every ``Function.clone``."""
    from repro.ir import verifier
    from repro.ir.function import Function
    from repro.passes import manager

    walks, clones, running = [], [], [None]
    real_verify, real_clone = verifier.verify_function, Function.clone
    real_run = manager.PassManager.run_function_pass

    def verify(fn):
        walks.append((running[-1], fn.name))
        return real_verify(fn)

    def clone(self):
        clones.append((running[-1], self.name))
        return real_clone(self)

    def run_function_pass(self, p, fn):
        running.append(p.name)
        try:
            return real_run(self, p, fn)
        finally:
            running.pop()

    monkeypatch.setattr(verifier, "verify_function", verify)
    monkeypatch.setattr(manager, "verify_function", verify)
    monkeypatch.setattr(Function, "clone", clone)
    monkeypatch.setattr(manager.PassManager, "run_function_pass", run_function_pass)
    return walks, clones


class _Verified(_Noop):
    """A sandboxed pass that changes nothing."""

    name = "verified"
    snapshot = True
    verify = True


class _Failing(_Verified):
    name = "failing"

    def run(self, fn, ctx):
        raise RuntimeError("injected")


class TestVerifiedSinceLastChange:
    def test_manager_records_the_last_verify(self):
        manager, fn = _manager_over_main()
        assert fn.name not in manager.verified
        manager.run_function_pass(_Verified(), fn)
        assert fn.name in manager.verified
        manager.run_function_pass(_Observer(), fn)  # cannot change fn
        assert fn.name in manager.verified
        manager.run_function_pass(_Noop(), fn)  # may change, unverified
        assert fn.name not in manager.verified

    @pytest.mark.parametrize("verified_before", [False, True])
    def test_rollback_restores_the_snapshot_flag(self, verified_before):
        manager, fn = _manager_over_main()
        if verified_before:
            manager.run_function_pass(_Verified(), fn)
        manager.run_function_pass(_Failing(), fn)
        assert manager.ctx.guard.rollback_count == 1
        assert (fn.name in manager.verified) is verified_before

    @pytest.mark.parametrize("certify", [False, True], ids=["default", "certify"])
    def test_corpus_walks_and_clones_per_function(self, monkeypatch, certify):
        """Per ``compile()`` + ``optimize()``, every corpus function is
        walked twice (``standard-pipeline``'s guard and ``check-removal``;
        ``compile`` re-verifies none) and cloned three times (the
        ``essa``, ``standard-pipeline`` and ``check-removal`` snapshots;
        ``certify`` has no PRE transformation to undo here)."""
        walks, clones = _count_walks_and_clones(monkeypatch)
        for program in CORPUS:
            del walks[:], clones[:]
            session = CompilationSession(config=ABCDConfig(certify=certify))
            compiled = session.compile(program.source())
            session.optimize(compiled)
            names = list(compiled.functions)
            assert sorted(name for _, name in walks) == sorted(names * 2), program.name
            assert sorted(name for _, name in clones) == sorted(names * 3), program.name

    def test_certify_guards_only_functions_with_pre_transformations(self, monkeypatch):
        from repro.runtime.profiler import collect_profile

        qsort = next(p for p in CORPUS if p.name == "Qsort")
        session = CompilationSession(config=ABCDConfig(pre=True, certify=True))
        program = session.compile(qsort.source())
        profile = collect_profile(program, "main")
        walks, clones = _count_walks_and_clones(monkeypatch)
        report = session.optimize(program, profile=profile)
        transformed = {a.function for a in report.analyses if a.pre_applied and a.eliminated}
        assert transformed == {"qsort"}
        assert [name for pass_name, name in clones if pass_name == "certify"] == ["qsort"]
        assert [name for pass_name, name in walks if pass_name == "certify"] == ["qsort"]

    def test_rollback_onto_unverified_essa_is_verified_by_compile(self, monkeypatch):
        """``essa`` is not verified by its pass; when ``standard-pipeline``
        then rolls back onto its output, ``compile`` still verifies it."""
        import repro.opt as opt
        import repro.ssa.essa as essa
        from repro.errors import IRVerificationError
        from repro.ir.instructions import Copy, Var

        real = essa.construct_essa

        def construct_with_undefined_use(fn):
            real(fn)
            fn.blocks[fn.entry].body.insert(0, Copy("bogus.0", Var("undefined.9")))

        def worklist_raises(fn):
            raise RuntimeError("injected")

        monkeypatch.setattr(essa, "construct_essa", construct_with_undefined_use)
        monkeypatch.setattr(opt, "optimize_worklist", worklist_raises)
        session = CompilationSession()
        with pytest.raises(IRVerificationError, match="undefined.9"):
            session.compile(SRC)
        assert [f.pass_name for f in session.guard.failures] == ["standard-pipeline"]


# ----------------------------------------------------------------------
# Debug mode: the def-use index is checked after every pass.
# ----------------------------------------------------------------------


class TestDebugInvalidationCheck:
    def test_debug_session_runs_default_pipeline_clean(self):
        """Every registered pass leaves a def-use index that matches a
        rebuild (debug mode checks it after each pass)."""
        session = CompilationSession(debug=True)
        program = session.compile(TWO_FN_SRC)
        report = session.optimize(program)
        assert report.eliminated_count() > 0
        assert session.stats.rollback_count == 0

    @pytest.mark.parametrize("inline", [False, True])
    def test_debug_session_runs_corpus_clean(self, inline):
        """The def-use index that e-SSA construction builds and every later
        pass maintains matches a rebuild over the whole corpus, certified,
        with and without inlining."""
        for program in CORPUS:
            source = program.source()
            debug = CompilationSession(config=ABCDConfig(certify=True), debug=True)
            report = debug.optimize(debug.compile(source, inline=inline))
            assert debug.stats.rollback_count == 0, program.name
            plain = CompilationSession(config=ABCDConfig(certify=True))
            expected = plain.optimize(plain.compile(source, inline=inline))
            assert report.eliminated_ids == expected.eliminated_ids, program.name
            assert report.certificates_rejected == 0, program.name


# ----------------------------------------------------------------------
# The registry and default pipelines.
# ----------------------------------------------------------------------


class TestRegistry:
    def test_all_passes_registered(self):
        assert set(PASS_REGISTRY) == {
            "inline",
            "essa",
            "standard-pipeline",
            "abcd",
            "pre",
            "certify",
            "check-removal",
            "store-capture",
        }
        for name, p in PASS_REGISTRY.items():
            assert p.name == name

    def test_default_compile_passes_shapes(self):
        names = [
            getattr(p, "name") for p in default_compile_passes(inline=True)
        ]
        assert names == ["inline", "essa", "standard-pipeline"]
        bare = [getattr(p, "name") for p in default_compile_passes(standard_opts=False)]
        assert bare == ["essa"]

    def test_default_optimize_passes(self):
        assert [p.name for p in default_optimize_passes()] == [
            "abcd",
            "pre",
            "certify",
            "check-removal",
        ]


# ----------------------------------------------------------------------
# Satellite 2: structural clone replaces deepcopy.
# ----------------------------------------------------------------------


class TestStructuralClone:
    def test_clone_matches_deepcopy_output(self):
        program = compile_source(TWO_FN_SRC)
        assert format_program(program.clone()) == format_program(
            copy.deepcopy(program)
        )

    def test_clone_is_independent(self):
        program = compile_source(SRC)
        cloned = clone_program(program)
        fn = cloned.function("main")
        label = next(iter(fn.blocks))
        fn.blocks[label].body.clear()
        assert format_program(program) != format_program(cloned)

    def test_clone_preserves_counters_and_form(self):
        program = compile_source(SRC)
        cloned = program.clone()
        assert cloned._next_check_id == program._next_check_id
        assert cloned._next_guard_group == program._next_guard_group
        fn, cfn = program.function("main"), cloned.function("main")
        assert cfn.ssa_form == fn.ssa_form
        assert cfn._next_label == fn._next_label
        assert cfn._next_temp == fn._next_temp

    def test_cloned_program_behaves_identically(self):
        program = compile_source(SRC)
        cloned = clone_program(program)
        abcd(cloned)
        assert run(cloned, "main").value == run(program, "main").value


# ----------------------------------------------------------------------
# Satellite 3: CLI surfaces (--time-passes, bench --json).
# ----------------------------------------------------------------------


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mj"
    path.write_text(SRC)
    return str(path)


class TestCliSurfaces:
    def test_time_passes_prints_table(self, source_file, capsys):
        assert main(["optimize", source_file, "--time-passes"]) == 0
        out = capsys.readouterr().out
        assert "eliminated 4 of 4 checks" in out
        assert "analysis cache" in out
        assert "essa" in out
        assert "check-removal" in out

    def test_optimize_without_flag_omits_table(self, source_file, capsys):
        assert main(["optimize", source_file]) == 0
        assert "analysis cache" not in capsys.readouterr().out

    def test_bench_json_includes_session_stats(self, capsys):
        assert main(["bench", "--names", "Sieve", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        row = payload[0]
        assert row["name"] == "Sieve"
        stats = row["session_stats"]
        pass_names = {entry["name"] for entry in stats["passes"]}
        assert {"essa", "abcd", "check-removal"} <= pass_names
        assert "hits" in stats["analysis"]
        assert stats["total_seconds"] >= 0.0


# ----------------------------------------------------------------------
# SessionStats bookkeeping.
# ----------------------------------------------------------------------


class TestSessionStats:
    def test_record_accumulates(self):
        stats = SessionStats()
        stats.record("p", 0.5, changed=2)
        stats.record("p", 0.25, rollback=True)
        entry = stats.passes["p"]
        assert entry.invocations == 2
        assert entry.changes == 2
        assert entry.rollbacks == 1
        assert stats.total_seconds == pytest.approx(0.75)
        assert stats.rollback_count == 1

    def test_to_json_round_trips(self):
        session, _, _ = _session_through_pipeline()
        payload = json.loads(json.dumps(session.stats.to_json()))
        assert payload["total_seconds"] >= 0.0
        assert any(entry["name"] == "abcd" for entry in payload["passes"])
        assert payload["analysis"]["misses"]["domtree"] >= 1

    def test_rollbacks_counted_per_pass(self, monkeypatch):
        import repro.core.abcd as abcd_module

        session = CompilationSession()
        program = session.compile(SRC)

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(abcd_module, "build_graphs", boom)
        report = session.optimize(program)
        assert report.rollbacks_by_pass() == {"abcd": 1}
        assert session.stats.passes["abcd"].rollbacks == 1
        # The program still runs, unoptimized but correct.
        assert run(program, "main").value == 28
