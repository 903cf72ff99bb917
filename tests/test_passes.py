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
from repro.errors import AnalysisInvalidationError, PassGuardError
from repro.ir.instructions import Jump
from repro.ir.printer import format_program
from repro.passes import (
    ANALYSES,
    AnalysisManager,
    FixpointGroup,
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
    def test_dominance_computed_at_most_twice_per_function(self):
        """Through the full default pipeline (e-SSA + standard opts + ABCD)
        dominance is computed at most once per function: e-SSA
        construction needs none, so the ABCD passes compute the only one."""
        session = CompilationSession()
        program = session.compile(TWO_FN_SRC)
        session.optimize(program)
        for name in program.functions:
            assert session.analysis.misses_for(name, "domtree") <= 1, name

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
        manager.invalidate(fn, ("domtree",))
        assert manager.cached("domtree", fn) is None
        assert manager.get("domtree", fn) is not first

    def test_retain_only_keeps_declared(self):
        manager = AnalysisManager()
        program = compile_source(SRC)
        fn = program.function("main")
        manager.get("domtree", fn)
        manager.get("gvn", fn)
        manager.retain_only(fn, ("domtree",))
        assert manager.cached("domtree", fn) is not None
        assert manager.cached("gvn", fn) is None


# ----------------------------------------------------------------------
# Satellite 4: invalidation-correctness checking (debug mode).
# ----------------------------------------------------------------------


class _CfgMutatingLiar(Pass):
    """Mutates the CFG while falsely declaring it preserves dominance."""

    name = "cfg-liar"
    requires = ("domtree",)
    preserves = ("domtree",)
    snapshot = False
    verify = False

    def run(self, fn, ctx):
        for label in fn.reachable_blocks():
            block = fn.blocks[label]
            term = block.terminator
            if isinstance(term, Jump) and not fn.blocks[term.target].phis:
                mid = fn.new_block("split")
                mid.terminator = Jump(term.target)
                term.target = mid.label
                return 1
        raise AssertionError("no splittable edge found")


class _HonestNoop(Pass):
    name = "honest-noop"
    requires = ("domtree",)
    preserves = ("domtree",)
    snapshot = False
    verify = False

    def run(self, fn, ctx):
        return 0


def _debug_context(program):
    analysis = AnalysisManager(debug=True)
    return PassContext(
        program=program,
        analysis=analysis,
        guard=PassGuard(),
        stats=SessionStats(analysis),
    )


class TestDebugInvalidationCheck:
    def test_lying_pass_is_caught(self):
        program = compile_source(SRC)
        fn = program.function("main")
        ctx = _debug_context(program)
        manager = PassManager(ctx)
        with pytest.raises(AnalysisInvalidationError, match="cfg-liar"):
            manager.run_function_pass(_CfgMutatingLiar(), fn)
        # The stale entry was dropped: the next get recomputes cleanly.
        assert ctx.analysis.cached("domtree", fn) is None

    def test_honest_pass_passes(self):
        program = compile_source(SRC)
        fn = program.function("main")
        manager = PassManager(_debug_context(program))
        assert manager.run_function_pass(_HonestNoop(), fn) == 0

    def test_debug_session_runs_default_pipeline_clean(self):
        """Every registered pass's ``preserves`` declaration survives the
        recompute-and-compare check over a real program."""
        session = CompilationSession(debug=True)
        program = session.compile(TWO_FN_SRC)
        report = session.optimize(program)
        assert report.eliminated_count() > 0
        assert session.stats.rollback_count == 0

    @pytest.mark.parametrize("inline", [False, True])
    def test_debug_session_runs_corpus_clean(self, inline):
        """The ``preserves`` declarations and the def-use index that e-SSA
        construction leaves hold over the whole corpus, certified, with
        and without inlining."""
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
            assert isinstance(p.preserves, tuple)
            assert all(analysis in ANALYSES for analysis in p.preserves)

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

    def test_fixpoint_group_preserves_is_member_intersection(self):
        def stub(preserves):
            member = Pass()
            member.preserves = preserves
            return member

        cfg_shape = ("domtree", "loops")
        group = FixpointGroup("g", [stub(cfg_shape), stub(cfg_shape + ("uses",))])
        assert group.preserves == ("domtree", "loops")
        with_folding = FixpointGroup("g2", [stub(cfg_shape), stub(())])
        assert with_folding.preserves == ()


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
