"""The sparse worklist pass: convergence, equivalence, and sparseness.

Three contracts from the PR that introduced :mod:`repro.opt.worklist`:

1. **Single convergence** — one ``optimize_worklist`` call reaches
   quiescence (a second call makes zero changes), shown on the paper's
   bubble-sort running example and the whole corpus.
2. **Equivalence** — the fused pass computes exactly the fixpoint of the
   three legacy dense passes (copy-prop / const-fold / DCE), byte-identical
   formatted IR.
3. **Sparseness** — ``instructions_visited`` is at most half of what the
   dense fixpoint-group sweep pays on the same input.
"""

import builtins
import weakref

import pytest

import repro.opt as opt
import repro.opt.worklist as worklist_module
from repro.bench.corpus import get, names
from repro.ir import format_function
from repro.pipeline import compile_source
from tests.test_paper_example import FIGURE1_SRC


def fresh(source: str):
    """Compile to e-SSA with the standard opts *not* yet applied."""
    return compile_source(source, standard_opts=False)


def legacy_to_quiescence(fn) -> int:
    """The dense baseline, iterated until it stops changing."""
    total = 0
    while True:
        changes = opt.run_standard_pipeline(fn)
        total += changes
        if changes == 0:
            return total


def dense_visits_to_quiescence(fn) -> int:
    """Instructions a dense sweep touches: each legacy pass reads every
    instruction of the function once per round (the FixpointGroup model),
    rounds repeating until a quiet one."""
    members = (
        opt.propagate_copies,
        opt.fold_constants,
        opt.eliminate_dead_code,
    )
    visited = 0
    while True:
        changes = 0
        for member in members:
            visited += sum(1 for _ in fn.all_instructions())
            changes += member(fn)
        if changes == 0:
            return visited


# ----------------------------------------------------------------------
# Convergence.
# ----------------------------------------------------------------------


class TestConvergence:
    def test_bubble_sort_single_convergence(self):
        program = fresh(FIGURE1_SRC)
        for fn in program.functions.values():
            result = opt.optimize_worklist(fn)
            assert result.converged_in_one_pass
            again = opt.optimize_worklist(fn)
            assert again.changes == 0, (
                f"{fn.name}: second worklist run still changed IR"
            )

    @pytest.mark.parametrize("name", names())
    def test_corpus_single_convergence(self, name):
        program = fresh(get(name).source())
        for fn in program.functions.values():
            opt.optimize_worklist(fn)
            assert opt.optimize_worklist(fn).changes == 0

    def test_requires_ssa(self):
        program = compile_source(
            FIGURE1_SRC, standard_opts=False, verify=False
        )
        fn = program.function("sort")
        fn.ssa_form = "none"
        with pytest.raises(ValueError):
            opt.optimize_worklist(fn)

    def test_quiescent_run_visits_each_instruction_once(self):
        program = fresh(FIGURE1_SRC)
        fn = program.function("sort")
        opt.optimize_worklist(fn)
        quiet = opt.optimize_worklist(fn)
        assert quiet.worklist_revisits == 0
        assert quiet.instructions_visited == fn.def_use().instruction_count()


# ----------------------------------------------------------------------
# Equivalence with the legacy dense pipeline.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", names())
def test_matches_legacy_fixpoint_on_corpus(name):
    dense = fresh(get(name).source())
    sparse = fresh(get(name).source())
    for fn_name in dense.functions:
        legacy_to_quiescence(dense.function(fn_name))
        opt.optimize_worklist(sparse.function(fn_name))
        assert format_function(dense.function(fn_name)) == format_function(
            sparse.function(fn_name)
        ), f"{name}.{fn_name}: worklist IR diverges from legacy fixpoint"


def test_matches_legacy_fixpoint_on_paper_example():
    dense = fresh(FIGURE1_SRC)
    sparse = fresh(FIGURE1_SRC)
    for fn_name in dense.functions:
        legacy_to_quiescence(dense.function(fn_name))
        opt.optimize_worklist(sparse.function(fn_name))
        assert format_function(dense.function(fn_name)) == format_function(
            sparse.function(fn_name)
        )


# ----------------------------------------------------------------------
# Sparseness.
# ----------------------------------------------------------------------


def test_visits_at_most_half_of_dense_sweep_across_corpus():
    sparse_total = 0
    dense_total = 0
    for name in names():
        dense = fresh(get(name).source())
        sparse = fresh(get(name).source())
        for fn_name in dense.functions:
            dense_total += dense_visits_to_quiescence(dense.function(fn_name))
            result = opt.optimize_worklist(sparse.function(fn_name))
            sparse_total += result.instructions_visited
    assert sparse_total * 2 <= dense_total, (
        f"worklist visited {sparse_total} instructions vs {dense_total} "
        "for the dense sweep — sparseness regressed below 2x"
    )


def test_session_stats_carry_worklist_counters():
    from repro.passes.session import CompilationSession

    session = CompilationSession(debug=True)
    compile_source(FIGURE1_SRC, inline=True, session=session)
    entry = session.stats.passes.get("standard-pipeline")
    assert entry is not None
    assert entry.instructions_visited > 0
    payload = session.stats.to_json()
    recorded = {p["name"]: p for p in payload["passes"]}
    assert recorded["standard-pipeline"]["instructions_visited"] > 0
    assert "worklist_revisits" in recorded["standard-pipeline"]


class _ReusingIds:
    """An ``id`` that hands a dead object's address to the next new one,
    as CPython's allocator may."""

    def __init__(self) -> None:
        self.assigned = {}
        self.free = []

    def __call__(self, obj) -> int:
        key = builtins.id(obj)
        address = self.assigned.get(key)
        if address is None:
            if self.free:
                address = self.free.pop()
            else:
                address = len(self.assigned) + len(self.free)
            self.assigned[key] = address
            weakref.finalize(obj, self._release, key)
        return address

    def _release(self, key) -> None:
        self.free.append(self.assigned.pop(key))


class _FreshIds:
    """An ``id`` that never reuses an address (it keeps every object)."""

    def __init__(self) -> None:
        self.held = {}

    def __call__(self, obj) -> int:
        key = builtins.id(obj)
        if key not in self.held:
            self.held[key] = (obj, len(self.held))
        return self.held[key][1]


#: Folding ``a`` frees its BinOp; the Copy that folding ``b`` creates
#: next is the first new instruction that could take the freed address.
FOLDS_SRC = """
fn main(): int {
  let a: int = 1 + 2;
  let b: int = 3 + 4;
  let c: int = a + b;
  return c * 2;
}
"""


def test_revisits_do_not_depend_on_address_reuse(monkeypatch):
    counts = []
    for ids in (_ReusingIds(), _FreshIds()):
        fn = fresh(FOLDS_SRC).function("main")
        monkeypatch.setattr(worklist_module, "id", ids, raising=False)
        counts.append(opt.optimize_worklist(fn).worklist_revisits)
    reused, fresh_count = counts
    assert reused == fresh_count
