"""Differential-fuzzing subsystem tests.

Covers the four fuzz components plus the miscompile the fuzzer found
while this subsystem was being built:

* generator — per-seed determinism, cross-seed diversity, well-typedness;
* oracle — check-id-insensitive equivalence, fuel-race tolerance;
* campaign — byte-identical JSON for equal ``--seed-base`` (the
  acceptance determinism property, at unit scale);
* shrinker — quality bound under an injected solver fault: the minimized
  program must stay on the same triage signature and get much smaller;
* the DCE purity fix — unused ``div``/``mod`` with a possibly-zero
  divisor must not be deleted (trap erasure found by the fuzzer).
"""

import json

import pytest

from repro.errors import ReproError
from repro.frontend.parser import parse_source
from repro.fuzz.campaign import format_summary, run_campaign
from repro.fuzz.generator import GeneratorConfig, generate_source
from repro.fuzz.oracle import OracleConfig, check_source, outcomes_equivalent
from repro.fuzz.render import render_program
from repro.fuzz.shrink import shrink_source
from repro.fuzz.triage import (
    Signature,
    TriageEntry,
    read_reproducer,
    write_reproducer,
)
from repro.ir.instructions import BinOp, Const, Var
from repro.opt.dce import is_removable
from repro.pipeline import compile_source
from repro.robustness.differential import ExecutionOutcome
from repro.robustness.faults import FAULTS

# Deadlines use SIGALRM; keep unit tests signal-free.
FAST = OracleConfig(deadline=None)


class TestGenerator:
    def test_deterministic_per_seed(self):
        for seed in range(10):
            assert generate_source(seed) == generate_source(seed)

    def test_distinct_across_seeds(self):
        sources = {generate_source(seed) for seed in range(20)}
        assert len(sources) == 20

    def test_generated_programs_are_well_typed(self):
        for seed in range(30):
            source = generate_source(seed)
            try:
                compile_source(source)
            except ReproError as exc:  # pragma: no cover - failure path
                pytest.fail(f"seed {seed} generated a rejected program: {exc}")

    def test_config_bounds_respected(self):
        tiny = GeneratorConfig(max_helpers=0, max_statements=2)
        source = generate_source(7, tiny)
        assert "fn helper" not in source
        assert "fn main" in source

    def test_render_round_trip_is_fixpoint(self):
        for seed in range(10):
            source = generate_source(seed)
            rendered = render_program(parse_source(source))
            assert render_program(parse_source(rendered)) == rendered


class TestOracleEquivalence:
    def test_matching_program(self):
        verdict = check_source(generate_source(0), FAST)
        assert verdict.classification == "match"
        assert verdict.signature is None

    def test_trap_equality_ignores_check_id_and_message(self):
        base = ExecutionOutcome(
            trap="BoundsCheckError", trap_message="check #3 failed",
            check_id=3, index=5, length=4, kind="upper",
        )
        optimized = ExecutionOutcome(
            trap="BoundsCheckError", trap_message="check #9 failed",
            check_id=9, index=5, length=4, kind="upper",
        )
        assert outcomes_equivalent(base, optimized)

    def test_different_failing_index_diverges(self):
        base = ExecutionOutcome(
            trap="BoundsCheckError", check_id=1, index=5, length=4, kind="upper"
        )
        optimized = ExecutionOutcome(
            trap="BoundsCheckError", check_id=1, index=6, length=4, kind="upper"
        )
        assert not outcomes_equivalent(base, optimized)

    def test_trap_vs_return_diverges(self):
        trapped = ExecutionOutcome(trap="DivisionByZeroError")
        returned = ExecutionOutcome(value=1)
        assert not outcomes_equivalent(trapped, returned)
        assert not outcomes_equivalent(returned, trapped)

    def test_fuel_race_is_benign(self):
        source = """
        fn main(): int {
          let n: int = 0;
          while (n < 1000000) { n = n + 1; }
          return n;
        }
        """
        verdict = check_source(source, OracleConfig(fuel=500, deadline=None))
        assert verdict.classification == "fuel-limit"
        assert verdict.signature is None


class TestCodegenCounters:
    """``--codegen`` compares the optimized run's counters, not only its
    outcome, with the generated code's."""

    CODEGEN = OracleConfig(deadline=None, codegen=True)

    def test_counter_mismatch_is_a_codegen_divergence(self, monkeypatch):
        from repro.runtime import codegen

        # The generated code charges an allocation 11 cycles; the
        # interpreter 10.
        costs = dict(codegen.DEFAULT_COSTS, arraynew=11)
        monkeypatch.setattr(codegen, "DEFAULT_COSTS", costs)
        verdict = check_source(generate_source(0), self.CODEGEN)
        assert verdict.classification == "codegen-divergence"
        assert verdict.signature == Signature(
            kind="codegen-divergence", error="counters:cycles"
        )
        assert "cycles: interpreter" in verdict.detail
        # The same program agrees once the generated code is honest again.
        monkeypatch.undo()
        assert check_source(generate_source(0), self.CODEGEN).classification == "match"


class TestCampaignDeterminism:
    def test_equal_seed_base_gives_byte_identical_json(self):
        first = run_campaign(12, seed_base=0, oracle_config=FAST)
        second = run_campaign(12, seed_base=0, oracle_config=FAST)
        assert first.verdicts == second.verdicts
        assert json.dumps(first.to_json(), sort_keys=True) == json.dumps(
            second.to_json(), sort_keys=True
        )
        assert format_summary(first) == format_summary(second)

    def test_different_seed_base_differs(self):
        first = run_campaign(6, seed_base=0, oracle_config=FAST)
        second = run_campaign(6, seed_base=100, oracle_config=FAST)
        assert first.verdicts != second.verdicts

    def test_triage_report_bytes_identical_under_fault(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            # Seed 10's program is small, keeping the double shrink cheap.
            with FAULTS["solver-always-true"].inject():
                run_campaign(
                    1,
                    seed_base=10,
                    shrink=True,
                    oracle_config=FAST,
                    report_path=str(path),
                    max_shrink_iterations=50,
                )
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_counters_cover_every_program(self):
        result = run_campaign(8, seed_base=0, oracle_config=FAST)
        counters = result.counters
        assert counters["programs"] == 8
        classified = sum(
            count
            for name, count in counters.items()
            if name
            in (
                "match",
                "fuel-limit",
                "value-divergence",
                "trap-divergence",
                "codegen-divergence",
                "crash",
                "rejected",
                "timeout",
            )
        )
        assert classified == 8
        # Campaign counters are folded into SessionStats for --json parity.
        assert result.stats.counters["fuzz.programs"] == 8


class TestShrinkerQuality:
    def test_minimized_program_keeps_signature_and_shrinks(self):
        source = generate_source(10)
        with FAULTS["solver-always-true"].inject():
            verdict = check_source(source, FAST)
            assert verdict.classification == "trap-divergence"
            result = shrink_source(source, verdict.signature, FAST)
            # The minimizer must stay on the same bucket...
            final = check_source(result.source, FAST)
        assert result.reproduced
        assert final.signature == verdict.signature
        # ...and actually minimize: the injected-fault repro needs only an
        # allocation and one out-of-bounds access, a few lines at most.
        assert len(result.source) <= len(source) // 4
        assert len(result.source.splitlines()) <= 10
        assert result.accepted > 0

    def test_non_reproducing_input_reports_failure(self):
        source = generate_source(0)  # matches: nothing to reproduce
        result = shrink_source(
            source, Signature(kind="crash", error="ValueError"), FAST
        )
        assert not result.reproduced
        assert result.source == source

    def test_structural_clone_matches_deepcopy_candidates(self):
        # The shrinker's candidate generation switched from
        # ``copy.deepcopy`` to the structural ``ProgramAST.clone()``;
        # every enumerated mutation must render the same candidate
        # source either way, and cloning must never leak a mutation
        # back into the shared original.  (The mutation-by-mutation
        # deepcopy reference runs on generated programs — the corpus
        # files get the cheaper whole-program comparison below, since
        # the deep-chain reproducer is ~27k lines.)
        import copy
        import itertools

        from repro.frontend.parser import parse_source
        from repro.fuzz.render import render_program
        from repro.fuzz.shrink import _apply_mutation, _enumerate_mutations

        for seed in (3, 10, 17):
            original = parse_source(generate_source(seed))
            baseline = render_program(original)
            mutations = itertools.islice(_enumerate_mutations(original), 80)
            for mutation in mutations:
                via_clone = original.clone()
                via_deepcopy = copy.deepcopy(original)
                applied_clone = _apply_mutation(via_clone, mutation)
                applied_deepcopy = _apply_mutation(via_deepcopy, mutation)
                assert applied_clone == applied_deepcopy
                if applied_clone:
                    assert render_program(via_clone) == render_program(
                        via_deepcopy
                    )
                # The shared original must be untouched either way.
                assert render_program(original) == baseline

    def test_clone_round_trips_the_fuzz_corpus(self):
        # Over the committed reproducers (including the 27k-line
        # deep-chain one) the structural clone must render byte-identical
        # source, and mutating the clone must leave the original intact.
        import itertools
        import pathlib

        from repro.frontend.parser import parse_source
        from repro.fuzz.render import render_program
        from repro.fuzz.shrink import _apply_mutation, _enumerate_mutations
        from repro.fuzz.triage import read_reproducer

        corpus = sorted(
            (pathlib.Path(__file__).parent / "fuzz_corpus").glob("*.mj")
        )
        assert corpus
        for path in corpus:
            _, source = read_reproducer(path)
            original = parse_source(source)
            baseline = render_program(original)
            clone = original.clone()
            assert render_program(clone) == baseline
            for mutation in itertools.islice(
                _enumerate_mutations(original), 5
            ):
                _apply_mutation(clone, mutation)
            assert render_program(original) == baseline

    def test_clone_preserves_interned_types(self):
        # ``Type`` instances are interned singletons compared by ``is``;
        # deepcopy silently broke that on its copies, clone must not.
        from repro.frontend import ast
        from repro.frontend.parser import parse_source
        from repro.frontend.types import NAMED_TYPES

        program = parse_source(generate_source(3)).clone()

        def walk(stmts):
            for stmt in stmts:
                if isinstance(stmt, ast.LetStmt):
                    assert stmt.declared_type in NAMED_TYPES.values()
                for attr in ("then_body", "else_body", "body"):
                    walk(getattr(stmt, attr, []))

        for fn in program.functions:
            assert fn.return_type in NAMED_TYPES.values()
            for param in fn.params:
                assert param.type in NAMED_TYPES.values()
            walk(fn.body)


class TestTriagePersistence:
    def test_reproducer_round_trip(self, tmp_path):
        signature = Signature(kind="crash", error="ValueError", frame="repro.x:f")
        entry = TriageEntry(signature)
        entry.record(41, "fn main(): int { return 3; }\n", "boom")
        path = write_reproducer(str(tmp_path), entry)
        parsed_signature, source = read_reproducer(path)
        assert parsed_signature == signature
        assert source == "fn main(): int { return 3; }\n"

    def test_signature_key_round_trip(self):
        signature = Signature(
            kind="trap-divergence", error="BoundsCheckError[upper]->return"
        )
        assert Signature.parse(signature.key()) == signature


class TestDcePurityFix:
    """The miscompile this fuzzer found: both DCE passes deleted unused
    ``div``/``mod`` instructions whose divisor could be zero, erasing the
    mandatory trap (committed as a corpus reproducer)."""

    def test_div_by_possibly_zero_not_removable(self):
        assert not is_removable(BinOp("t", "div", Var("x"), Var("y")))
        assert not is_removable(BinOp("t", "mod", Var("x"), Const(0)))

    def test_div_by_nonzero_const_removable(self):
        assert is_removable(BinOp("t", "div", Var("x"), Const(2)))
        assert is_removable(BinOp("t", "mod", Var("x"), Const(-3)))

    def test_other_binops_still_removable(self):
        assert is_removable(BinOp("t", "add", Var("x"), Var("y")))

    def test_unused_division_trap_preserved_end_to_end(self):
        source = """
        fn main(): int {
          let z: int = 0;
          let dead: int = 17 % z;
          return 66;
        }
        """
        verdict = check_source(source, FAST)
        assert verdict.classification == "match"
        assert verdict.base.trap == "DivisionByZeroError"
        assert verdict.optimized.trap == "DivisionByZeroError"


class TestCliFuzz:
    def test_json_campaign_exits_zero(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--seeds", "3", "--json", "--quiet"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["programs"] == 3
        assert payload["unexplained"] == 0
