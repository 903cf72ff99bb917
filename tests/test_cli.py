"""CLI tests (direct invocation of repro.cli.main)."""

import pytest

from repro.cli import main

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

FAILING_SRC = """
fn main(): int {
  let a: int[] = new int[2];
  let i: int = 5;
  return a[i];
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mj"
    path.write_text(SRC)
    return str(path)


class TestRun:
    def test_run_prints_result_and_checks(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        assert "result: 28" in out
        assert "checks: 32" in out

    def test_run_optimized_removes_checks(self, source_file, capsys):
        assert main(["run", source_file, "--optimize"]) == 0
        out = capsys.readouterr().out
        assert "result: 28" in out
        assert "checks: 0" in out

    def test_runtime_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.mj"
        path.write_text(FAILING_SRC)
        assert main(["run", str(path)]) == 1
        assert "bounds check" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/prog.mj"]) == 2
        assert "error" in capsys.readouterr().err

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.mj"
        path.write_text("fn main(): int { return true; }")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        # One-line file:line:col: message diagnostic, not a traceback.
        assert err.startswith(f"{path}:1:")
        assert "Traceback" not in err

    def test_syntax_error_locates_offending_line(self, tmp_path, capsys):
        path = tmp_path / "syntax.mj"
        path.write_text("fn main(): int {\n  let x int = 3;\n  return x;\n}")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:2:")

    def test_non_decimal_digit_is_a_lex_diagnostic(self, tmp_path, capsys):
        # ``'²'.isdigit()`` is true, but ``int('²')`` raises ValueError.
        path = tmp_path / "superscript.mj"
        path.write_text("fn main(): int { return ²; }", encoding="utf-8")
        assert main(["optimize", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:1:25: unexpected character '²'")
        assert "Traceback" not in err


class TestOptimize:
    def test_report_table(self, source_file, capsys):
        assert main(["optimize", source_file]) == 0
        out = capsys.readouterr().out
        assert "eliminated 4 of 4 checks" in out
        assert "mean steps/check" in out

    def test_compare_flag(self, source_file, capsys):
        assert main(["optimize", source_file, "--compare"]) == 0
        out = capsys.readouterr().out
        assert "dynamic checks: 32 -> 0" in out

    def test_emit_ir(self, source_file, capsys):
        assert main(["optimize", source_file, "--emit-ir"]) == 0
        out = capsys.readouterr().out
        assert "fn main()" in out

    def test_upper_only(self, source_file, capsys):
        assert main(["optimize", source_file, "--upper-only"]) == 0
        out = capsys.readouterr().out
        assert "2/2 upper, 0/0 lower" in out

    def test_pre_flag(self, tmp_path, capsys):
        path = tmp_path / "pre.mj"
        path.write_text("""
fn kernel(a: int[], k: int, n: int): int {
  let s: int = 0;
  let r: int = 0;
  while (r < n) {
    s = s + a[k];
    r = r + 1;
  }
  return s;
}
fn main(): int {
  let a: int[] = new int[8];
  return kernel(a, 3, 50);
}
""")
        assert main(["optimize", str(path), "--pre", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "pre(" in out

    def test_robustness_summary_line(self, source_file, capsys):
        assert main(["optimize", source_file]) == 0
        out = capsys.readouterr().out
        assert "robustness: 0 pass rollback(s), 0 budget-exhausted check(s)" in out

    def test_max_steps_budget_reports_exhaustion(self, source_file, capsys):
        assert main(["optimize", source_file, "--max-steps", "1"]) == 0
        out = capsys.readouterr().out
        # Exhausted proofs keep their checks and are flagged in the table.
        assert "budget!" in out
        assert "eliminated 0 of 4 checks" in out

    def test_max_steps_budget_still_executes_correctly(self, source_file, capsys):
        assert main(["run", source_file, "--optimize", "--max-steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "result: 28" in out
        assert "checks: 32" in out  # nothing proven, every check retained


class TestIRAndDot:
    def test_ir_whole_program(self, source_file, capsys):
        assert main(["ir", source_file]) == 0
        out = capsys.readouterr().out
        assert "checkupper" in out
        assert ":= phi(" in out

    def test_ir_single_function(self, source_file, capsys):
        assert main(["ir", source_file, "--fn", "main"]) == 0
        assert "fn main()" in capsys.readouterr().out

    def test_dot_cfg(self, source_file, capsys):
        assert main(["dot", source_file, "--fn", "main"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_dot_inequality_graph(self, source_file, capsys):
        assert main(["dot", source_file, "--fn", "main", "--graph", "upper"]) == 0
        out = capsys.readouterr().out
        assert "doublecircle" in out  # φ vertices present


class TestBench:
    def test_bench_subset(self, capsys):
        assert main(["bench", "--names", "Sieve"]) == 0
        out = capsys.readouterr().out
        assert "Sieve" in out
        assert "Figure 6" in out

    def test_bench_unknown_name(self, capsys):
        assert main(["bench", "--names", "nothing"]) == 1


class TestCacheCLI:
    def cache_args(self, tmp_path):
        return str(tmp_path / "cache")

    def test_optimize_cache_miss_then_hit(self, source_file, tmp_path, capsys):
        cache = self.cache_args(tmp_path)
        assert main(["optimize", source_file, "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "cache: miss" in first
        assert "stored" in first
        assert main(["optimize", source_file, "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "cache: hit" in second
        assert "re-checked" in second

    def test_cache_stats_and_verify(self, source_file, tmp_path, capsys):
        cache = self.cache_args(tmp_path)
        main(["optimize", source_file, "--cache-dir", cache])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert main(["cache", "verify", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "replayed" in out

    def test_cache_verify_rejects_corruption(self, source_file, tmp_path, capsys):
        from repro.robustness.faults import DISK_FAULTS
        from repro.store import CertStore

        cache = self.cache_args(tmp_path)
        main(["optimize", source_file, "--cache-dir", cache])
        capsys.readouterr()
        store = CertStore(cache)
        fingerprint = next(store.iter_fingerprints())
        DISK_FAULTS["disk-flip-payload-byte"].corrupt(store.entry_path(fingerprint))
        assert main(["cache", "verify", "--cache-dir", cache]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_cache_gc_and_evict(self, source_file, tmp_path, capsys):
        cache = self.cache_args(tmp_path)
        main(["optimize", source_file, "--cache-dir", cache])
        capsys.readouterr()
        from repro.store import CertStore

        fingerprint = next(CertStore(cache).iter_fingerprints())
        assert main(["cache", "evict", fingerprint, "--cache-dir", cache]) == 0
        assert main(["cache", "evict", fingerprint, "--cache-dir", cache]) == 1
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache, "--max-entries", "0"]) == 0

    def test_cache_stats_json(self, source_file, tmp_path, capsys):
        import json

        cache = self.cache_args(tmp_path)
        main(["optimize", source_file, "--cache-dir", cache])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
