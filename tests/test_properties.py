"""Property-based tests (hypothesis) for the core invariants.

1. **Solver soundness**: on random φ-invariant inequality graphs,
   ``demand_prove`` never claims a bound the exact constraint-system
   semantics does not entail.
2. **Fixpoint conservativeness**: the batch fixpoint distance is always an
   upper approximation of the exact distance.
3. **Optimization soundness**: randomly generated MiniJ programs behave
   identically (value or exception, including the failing check's
   identity) before and after ABCD — with and without PRE — and after the
   range-analysis baseline.
4. **VM arithmetic**: Java-style division/modulo identities.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exhaustive import compute_distances, exact_distance
from repro.core.graph import InequalityGraph, const_node, len_node, var_node
from repro.core.solver import demand_prove
from repro.errors import MiniJRuntimeError
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.runtime.profiler import collect_profile
from repro.runtime.values import minij_div, minij_mod

# ----------------------------------------------------------------------
# Random inequality graphs.
# ----------------------------------------------------------------------


@st.composite
def inequality_graphs(draw, acyclic=False):
    """A random graph satisfying the structural invariant that every cycle
    contains a φ vertex: non-φ vertices only receive in-edges from
    strictly lower-indexed vertices (plus the source), while φ vertices may
    receive arbitrary in-edges (including back edges).

    ``acyclic=True`` restricts φ in-edges to forward edges as well.  The
    exact sup-semantics oracle (``exact_distance``) is only the right
    referee on DAGs: on cyclic graphs the paper's semantics is *inductive
    over loop iterations* — a φ-broken cycle of weight <= 0 preserves the
    outside bound (base case + step), even though the pure
    difference-constraint system would leave the vertex unconstrained for
    a weight-0 cycle (``v <= max(o, v)`` is a tautology).  Cyclic behaviour
    is covered by the paper-example unit tests and, for real soundness, by
    the differential program properties below.
    """
    direction = draw(st.sampled_from(["upper", "lower"]))
    graph = InequalityGraph(direction)
    n_vars = draw(st.integers(2, 7))
    nodes = [len_node("A")] + [var_node(f"v{i}") for i in range(n_vars)]
    const_values = draw(st.lists(st.integers(-3, 8), max_size=2, unique=True))
    nodes.extend(const_node(c) for c in const_values)

    phi_indices = draw(
        st.sets(st.integers(1, len(nodes) - 1), max_size=3)
    )
    # Constants and the length literal are never φ; only var vertices.
    phis = {
        nodes[i]
        for i in phi_indices
        if nodes[i].kind == "var"
    }
    for phi in phis:
        graph.mark_phi(phi)

    # Random edges target variable vertices only: program-derived graphs
    # put in-edges on constants solely via (consistent) allocation facts,
    # and a random edge into a constant could encode a contradiction
    # (an infeasible system proves everything vacuously).
    var_indices = [i for i, n in enumerate(nodes) if n.kind == "var"]
    n_edges = draw(st.integers(1, 14))
    for _ in range(n_edges):
        target_index = draw(st.sampled_from(var_indices))
        target = nodes[target_index]
        if target in phis and not acyclic:
            source_index = draw(st.integers(0, len(nodes) - 1))
        else:
            source_index = draw(st.integers(0, target_index - 1))
        source = nodes[source_index]
        if source == target:
            continue
        weight = draw(st.integers(-3, 3))
        graph.add_edge(source, target, weight)
    target = draw(st.sampled_from(nodes[1:]))
    budget = draw(st.integers(-4, 4))
    source = len_node("A") if direction == "upper" else const_node(0)
    return graph, source, target, budget


@settings(max_examples=300, deadline=None)
@given(inequality_graphs(acyclic=True))
def test_solver_sound_against_exact_semantics(case):
    graph, source, target, budget = case
    outcome = demand_prove(graph, source, target, budget)
    if outcome.proven:
        exact = exact_distance(graph, source, target)
        assert exact <= budget, (
            f"solver proved {target} - {source} <= {budget} but the exact "
            f"distance is {exact}"
        )


@settings(max_examples=300, deadline=None)
@given(inequality_graphs(acyclic=True))
def test_solver_complete_on_dags(case):
    """On acyclic graphs the demand solver is also complete: whatever the
    exact semantics entails, it proves."""
    graph, source, target, budget = case
    exact = exact_distance(graph, source, target)
    if exact == -math.inf:
        return  # infeasible system: vacuous entailment, nothing to prove
    if exact <= budget:
        assert demand_prove(graph, source, target, budget).proven


@settings(max_examples=200, deadline=None)
@given(inequality_graphs())
def test_solver_terminates_and_is_deterministic_on_cyclic_graphs(case):
    graph, source, target, budget = case
    first = demand_prove(graph, source, target, budget)
    second = demand_prove(graph, source, target, budget)
    assert first.result is second.result


@settings(max_examples=200, deadline=None)
@given(inequality_graphs(acyclic=True))
def test_fixpoint_upper_approximates_exact(case):
    graph, source, target, budget = case
    del budget
    exact = exact_distance(graph, source, target)
    approx = compute_distances(graph, source, extra_nodes=[target]).get(
        target, math.inf
    )
    assert approx >= exact


@settings(max_examples=200, deadline=None)
@given(inequality_graphs(acyclic=True))
def test_fixpoint_prove_implies_solver_semantics_sound(case):
    """If the batch fixpoint proves a bound, the exact semantics entails it
    (the batch solver is also usable for elimination)."""
    graph, source, target, budget = case
    approx = compute_distances(graph, source, extra_nodes=[target]).get(
        target, math.inf
    )
    if approx <= budget:
        assert exact_distance(graph, source, target) <= budget


# ----------------------------------------------------------------------
# Random MiniJ programs.
# ----------------------------------------------------------------------

_KERNELS = [
    # (template, needs_second_array)
    ("for (let i{k}: int = 0; i{k} < len(a); i{k} = i{k} + 1) {{ s = s + a[i{k}]; }}", False),
    ("for (let i{k}: int = 0; i{k} < len(a); i{k} = i{k} + 1) {{ a[i{k}] = i{k} * {m}; }}", False),
    ("for (let i{k}: int = 0; i{k} < len(a) - 1; i{k} = i{k} + 1) {{ s = s + a[i{k} + 1]; }}", False),
    ("let j{k}: int = len(a) - 1; while (j{k} >= 0) {{ s = s + a[j{k}]; j{k} = j{k} - 1; }}", False),
    ("if ({x} >= 0 && {x} < len(a)) {{ s = s + a[{x}]; }}", False),
    ("s = s + a[{x}];", False),  # may raise: exercised differentially
    ("let t{k}: int = 0; while (t{k} < {m}) {{ s = s + a[{p}]; t{k} = t{k} + 1; }}", False),
    ("for (let i{k}: int = 0; i{k} < len(b) && i{k} < len(a); i{k} = i{k} + 1) {{ b[i{k}] = a[i{k}]; }}", True),
    ("let u{k}: int = {m}; while (u{k} < len(a)) {{ s = s + a[u{k}]; u{k} = u{k} + {step}; }}", False),
]


@st.composite
def minij_programs(draw):
    size_a = draw(st.integers(1, 12))
    size_b = draw(st.integers(1, 12))
    n_stmts = draw(st.integers(1, 4))
    statements = []
    for k in range(n_stmts):
        template, _ = draw(st.sampled_from(_KERNELS))
        statements.append(
            template.format(
                k=k,
                m=draw(st.integers(0, 6)),
                x=draw(st.integers(-2, 14)),
                p=draw(st.integers(0, 13)),
                step=draw(st.integers(1, 3)),
            )
        )
    body = "\n  ".join(statements)
    return f"""
fn main(): int {{
  let a: int[] = new int[{size_a}];
  let b: int[] = new int[{size_b}];
  let s: int = 0;
  for (let w: int = 0; w < len(a); w = w + 1) {{
    a[w] = w * 3 - 5;
  }}
  {body}
  return s;
}}
"""


def observe(program):
    """Run to an observable outcome: value, or exception identity."""
    try:
        result = run(program, "main", fuel=2_000_000)
        return ("value", result.value)
    except MiniJRuntimeError as exc:
        check_id = getattr(exc, "check_id", None)
        return ("exception", type(exc).__name__, check_id)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(minij_programs(), st.booleans())
def test_abcd_preserves_behaviour(source, use_pre):
    program = compile_source(source)
    baseline = clone_program(program)
    profile = None
    if use_pre:
        try:
            profile = collect_profile(program, "main", fuel=2_000_000)
        except MiniJRuntimeError:
            profile = None  # training run raised: skip PRE, plain ABCD
    abcd(program, pre=profile is not None, profile=profile)
    assert observe(program) == observe(baseline)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(minij_programs())
def test_abcd_never_unsound_unchecked_access(source):
    """The interpreter hard-fails (UNSOUND) on any unchecked out-of-range
    access; optimized runs must never trip it."""
    program = compile_source(source)
    abcd(program)
    outcome = observe(program)
    if outcome[0] == "exception":
        assert outcome[1] != "MiniJRuntimeError" or "UNSOUND" not in outcome[1]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(minij_programs())
def test_range_baseline_preserves_behaviour(source):
    from repro.baselines.range_analysis import eliminate_program_with_ranges

    program = compile_source(source, standard_opts=False)
    baseline = clone_program(program)
    eliminate_program_with_ranges(program)
    assert observe(program) == observe(baseline)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(minij_programs())
def test_compiled_programs_verify(source):
    from repro.ir.verifier import verify_program

    program = compile_source(source)
    verify_program(program)
    abcd(program)
    verify_program(program)


# ----------------------------------------------------------------------
# VM arithmetic.
# ----------------------------------------------------------------------


@given(st.integers(-1000, 1000), st.integers(-1000, 1000).filter(lambda x: x != 0))
def test_div_mod_euclid_identity(lhs, rhs):
    assert minij_div(lhs, rhs) * rhs + minij_mod(lhs, rhs) == lhs


@given(st.integers(-1000, 1000), st.integers(1, 1000))
def test_mod_magnitude_bound(lhs, rhs):
    assert abs(minij_mod(lhs, rhs)) < rhs


@given(st.integers(-1000, 1000), st.integers(-1000, 1000).filter(lambda x: x != 0))
def test_div_truncates_toward_zero(lhs, rhs):
    expected = int(lhs / rhs)  # float division truncates toward zero
    assert minij_div(lhs, rhs) == expected
