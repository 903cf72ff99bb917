"""Golden replay of the interpreter's observable behaviour.

``interpreter_golden.json`` records, for a fixed set of programs each run
four ways, the value or trap of the run and every counter of its
:class:`ExecutionStats`. A change to the interpreter's dispatch must
reproduce the file exactly: the same value, the same trap with the same
message, and the same counters at completion and at every trap.

Inputs: the Figure-6 corpus except jess (12 s of interpretation alone)
and ``generate_source`` seeds 0-59. Modes, per input:

* ``base``: the compiled program (standard pre-passes, every check kept);
* ``profile``: the same run with ``record_profile=True`` (block and edge
  counts);
* ``optimized``: ABCD+PRE driven by that profile, the way
  ``run_benchmark(pre=True)`` prepares it (speculative and guarded checks);
* ``fuel``: the optimized program under ``fuel=137``, which traps.

``interpreter_trap_golden.json`` pins the counters of runs that stop in
the middle of a block, where a dispatch that charges counters per
segment rather than per instruction would first go wrong:

* ``sweep``: the optimized programs of the run-corpus benchmark
  (bubbleSort, biDirBubbleSort, Qsort, Hanoi, Dhrystone) and of
  ``generate_source`` seeds 0-19, each run under every fuel below
  ``SWEEP_DENSE`` and at ``SWEEP_SLICES - 1`` evenly spaced fuels up to
  its full run, so that some fuel tests fire in a callee while the caller
  is in the middle of a block.  Consecutive fuels with the same outcome
  are stored as one row ``[first, last, record]``; a fuel trap's message
  is stored with its fuel replaced by ``F``;
* ``ir``: hand-written IR that traps in the middle of a block (an unset
  read for every instruction kind, division by zero, a failing check
  after a call, a π run failing at its second π, an unset compare
  operand feeding a branch, guarded checks with the flag up and down),
  and one fuel sweep over every fuel of a program whose calls sit in the
  middle of blocks.

Regenerate both files (only when the interpreter's semantics change on
purpose): ``PYTHONPATH=src python tests/test_interpreter_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.corpus import CORPUS
from repro.core.abcd import ABCDConfig
from repro.errors import BoundsCheckError, CompileError, MiniJRuntimeError
from repro.fuzz.generator import generate_source
from repro.ir.parser import parse_ir_program
from repro.passes.session import CompilationSession
from repro.pipeline import clone_program
from repro.runtime.interpreter import Interpreter
from repro.runtime.profiler import Profile
from repro.runtime.values import ArrayValue

GOLDEN_PATH = Path(__file__).with_name("interpreter_golden.json")
TRAP_GOLDEN_PATH = Path(__file__).with_name("interpreter_trap_golden.json")
SEEDS = range(60)
TRAP_FUEL = 137
SWEEP_PROGRAMS = ("bubbleSort", "biDirBubbleSort", "Qsort", "Hanoi", "Dhrystone")
SWEEP_SEEDS = range(20)
SWEEP_DENSE = 160
SWEEP_SLICES = 24
SCALAR_FIELDS = (
    "instructions",
    "cycles",
    "lower_checks",
    "upper_checks",
    "unsigned_checks",
    "speculative_checks",
    "speculation_failures",
)
MAP_FIELDS = ("check_counts", "block_counts", "edge_counts")


def golden_inputs():
    """(name, source) of every input, in a fixed order."""
    inputs = [(p.name, p.source()) for p in CORPUS if p.name != "jess"]
    inputs += [(f"gen-{seed}", generate_source(seed)) for seed in SEEDS]
    return inputs


def _digest(counts) -> str:
    items = sorted(counts.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def observe(program, fuel=50_000_000, record_profile=False):
    """One run of ``main``: (observation record, the run's stats)."""
    interp = Interpreter(program, fuel=fuel, record_profile=record_profile)
    record = {"value": None, "trap": None}
    try:
        value = interp.run("main").value
        record["value"] = value.to_list() if isinstance(value, ArrayValue) else value
    except BoundsCheckError as exc:
        record["trap"] = [type(exc).__name__, str(exc), exc.check_id,
                          exc.index, exc.length, exc.kind]
    except MiniJRuntimeError as exc:
        record["trap"] = [type(exc).__name__, str(exc), None, None, None, None]
    stats = interp.stats
    for name in SCALAR_FIELDS:
        record[name] = getattr(stats, name)
    for name in MAP_FIELDS:
        record[name + "_sha256"] = _digest(getattr(stats, name))
    return record, stats


def profile_of(stats) -> Profile:
    return Profile(
        block_counts=dict(stats.block_counts),
        edge_counts=dict(stats.edge_counts),
        check_counts=dict(stats.check_counts),
    )


def observe_source(source: str):
    """The four mode records of one input."""
    session = CompilationSession(config=ABCDConfig(pre=True))
    try:
        compiled = session.compile(source)
    except CompileError as exc:
        return {"rejected": type(exc).__name__}
    records = {}
    records["base"], _ = observe(compiled)
    records["profile"], stats = observe(compiled, record_profile=True)
    optimized = clone_program(compiled)
    session.optimize(optimized, profile=profile_of(stats))
    records["optimized"], _ = observe(optimized)
    records["fuel"], _ = observe(optimized, fuel=TRAP_FUEL)
    return records


# ----------------------------------------------------------------------
# Traps in the middle of a block.
# ----------------------------------------------------------------------


def optimized_program(source: str):
    """``source`` compiled and optimized the way ``observe_source``'s
    ``optimized`` mode prepares it."""
    session = CompilationSession(config=ABCDConfig(pre=True))
    program = session.compile(source)
    _, stats = observe(program, record_profile=True)
    session.optimize(program, profile=profile_of(stats))
    return program


def fuel_sweep(program, fuels):
    """Rows ``[first, last, record]``: the record of every fuel in
    ``fuels``, consecutive equal records merged."""
    rows = []
    for fuel in fuels:
        record, _ = observe(program, fuel=fuel)
        trap = record["trap"]
        if trap is not None and trap[0] == "TrapLimitExceeded":
            trap[1] = trap[1].replace(f" {fuel} ", " F ")
        for name in ("block_counts_sha256", "edge_counts_sha256"):
            del record[name]
        if rows and rows[-1][2] == record:
            rows[-1][1] = fuel
        else:
            rows.append([fuel, fuel, record])
    return rows


def sweep_fuels(program):
    """Every fuel below ``SWEEP_DENSE``, then evenly spaced slices of the
    full run (stopping where the run ends by itself)."""
    _, stats = observe(program)
    total = stats.instructions
    slices = {total * k // SWEEP_SLICES for k in range(1, SWEEP_SLICES)}
    return sorted(f for f in set(range(SWEEP_DENSE)) | slices if f < total)


def sweep_inputs():
    """(name, source) of every fuel-swept input, in a fixed order."""
    corpus = {p.name: p.source() for p in CORPUS}
    inputs = [(name, corpus[name]) for name in SWEEP_PROGRAMS]
    inputs += [(f"gen-{seed}", generate_source(seed)) for seed in SWEEP_SEEDS]
    return inputs


def observe_sweep(source: str):
    try:
        program = optimized_program(source)
    except CompileError as exc:
        return {"rejected": type(exc).__name__}
    return fuel_sweep(program, sweep_fuels(program))


#: ``main`` of most IR cases: φs, then straight-line code around the
#: trapping line(s), so each trap has a segment prefix to account for.
IR_HEAD = """fn main() {
entry0:
    a.0 := newarray 4
    n.0 := 7
    jump b1
b1:
    x.1 := phi(entry0: 2)
    m.1 := phi(entry0: n.0)
    y.0 := add x.1, 3
    t.0 := cmp.lt y.0, m.1
"""
IR_TAIL = """    z.0 := add y.0, 1
    return z.0
}"""
IR_HELPERS = """

fn ten() {
entry0:
    k.0 := 5
    l.0 := add k.0, 5
    return l.0
}

fn id(p.0) {
entry0:
    return p.0
}

fn bad(p.0) {
entry0:
    q.0 := add p.0, 1
    r.0 := div q.0, 0
    return r.0
}"""


def _ir_case(*lines: str, tail: str = IR_TAIL) -> str:
    body = "".join(f"    {line}\n" for line in lines)
    return IR_HEAD + body + tail + IR_HELPERS


_BRANCH_TAIL = """    branch c.0 ? b2 : b3
b2:
    return 1
b3:
    return 0
}"""

IR_TRAPS = {
    "unset-copy": _ir_case("w.0 := u.0"),
    "unset-binop-lhs": _ir_case("w.0 := add u.0, 1"),
    "unset-binop-rhs": _ir_case("w.0 := div 1, u.0"),
    "unset-cmp": _ir_case("w.0 := cmp.lt y.0, u.0"),
    "unset-checklower": _ir_case("checklower #0 u.0"),
    "unset-checkupper": _ir_case("checkupper #0 a.0[u.0]"),
    "unset-checkunsigned": _ir_case("checkunsigned #0+#1 a.0[u.0]"),
    "unset-speculative": _ir_case("speculate.upper #0 a.0[u.0] -> guard 0"),
    "unset-load": _ir_case("w.0 := load a.0[u.0]"),
    "unset-store-index": _ir_case("store a.0[u.0] := 1"),
    "unset-store-value": _ir_case("store a.0[1] := u.0"),
    "unset-arraylen": _ir_case("w.0 := arraylen u.0"),
    "unset-newarray": _ir_case("w.0 := newarray u.0"),
    "unset-call-arg": _ir_case("w.0 := call id(u.0)"),
    "unset-pi": _ir_case("w.1 := pi(u.0) [lt 3]"),
    "unset-return": _ir_case("w.0 := add y.0, 2", tail="    return u.0\n}"),
    "unset-branch": _ir_case("c.0 := add y.0, 2", tail=_BRANCH_TAIL.replace("branch c.0", "branch u.0")),
    "unset-phi-source": _ir_case().replace("m.1 := phi(entry0: n.0)", "m.1 := phi(entry0: u.0)"),
    "phi-without-edge": _ir_case().replace("m.1 := phi(entry0: n.0)", "m.1 := phi(other: n.0)"),
    "not-array-load": _ir_case("w.0 := load n.0[0]"),
    "negative-newarray": _ir_case("w.0 := newarray -1"),
    "div-by-zero": _ir_case("w.0 := div y.0, 0"),
    "mod-by-zero": _ir_case("w.0 := mod y.0, 0"),
    "check-after-call": _ir_case("r.0 := call ten()", "w.0 := add r.0, 1",
                                 "checkupper #0 a.0[r.0]"),
    "callee-trap": _ir_case("w.0 := add y.0, 2", "r.0 := call bad(w.0)"),
    "trap-after-two-calls": _ir_case("r.0 := call ten()", "s.0 := call id(r.0)",
                                     "w.0 := add s.0, 1", "v.0 := load a.0[w.0]"),
    "pi-run-second": _ir_case("i.1 := pi(y.0) [lt m.1]", "j.1 := pi(u.0) [lt 3]",
                              "k.1 := pi(x.1) [lt 3]"),
    "pi-run-first": _ir_case("i.1 := pi(u.0) [lt m.1]", "j.1 := pi(y.0) [lt 3]"),
    "pi-run-completes": _ir_case("i.1 := pi(y.0) [lt m.1]", "j.1 := pi(i.1) [lt 3]",
                                 "w.0 := div j.1, 0"),
    "cmp-branch-unset-lhs": _ir_case("c.0 := cmp.lt u.0, m.1", tail=_BRANCH_TAIL),
    "cmp-branch-unset-rhs": _ir_case("c.0 := cmp.ge y.0, u.0", tail=_BRANCH_TAIL),
    "cmp-branch-taken": _ir_case("c.0 := cmp.lt y.0, m.1", tail=_BRANCH_TAIL),
    "guard-up-upper": _ir_case("speculate.upper #0 a.0[n.0] -> guard 0",
                               "checkupper #1 a.0[n.0] guard=0"),
    "guard-up-lower": _ir_case("w.0 := sub 0, 1", "speculate.lower #0 [w.0] -> guard 0",
                               "checklower #1 w.0 guard=0"),
    "guard-up-unsigned": _ir_case("speculate.upper #0 a.0[n.0] -> guard 0",
                                  "checkunsigned #1+#2 a.0[n.0] guard=0"),
    "guard-up-unset-index": _ir_case("speculate.upper #0 a.0[n.0] -> guard 0",
                                     "checkupper #1 a.0[u.0] guard=0"),
    "guard-down-then-trap": _ir_case("speculate.upper #0 a.0[x.1] -> guard 0",
                                     "checkupper #1 a.0[n.0] guard=0",
                                     "checklower #2 u.0 guard=0",
                                     "w.0 := div y.0, 0"),
    "guard-down-completes": _ir_case("speculate.upper #0 a.0[x.1] -> guard 0",
                                     "checkunsigned #1+#2 a.0[n.0] guard=0"),
}

#: Calls in the middle of blocks, swept over every fuel of its run.
IR_CALLS_MID_BLOCK = """fn main() {
entry0:
    s.0 := 0
    jump loop1
loop1:
    i.1 := phi(entry0: 0, body2: i.2)
    s.1 := phi(entry0: s.0, body2: s.2)
    c.0 := cmp.lt i.1, 3
    branch c.0 ? body2 : exit3
body2:
    j.1 := pi(i.1) [lt 3]
    d.0 := mul j.1, 2
    r.0 := call step(d.0)
    e.0 := add r.0, s.1
    r2.0 := call step(e.0)
    s.2 := add r2.0, 1
    i.2 := add j.1, 1
    jump loop1
exit3:
    return s.1
}

fn step(p.0) {
entry0:
    q.0 := add p.0, 1
    c.0 := cmp.gt q.0, 4
    branch c.0 ? big1 : small2
big1:
    h.0 := div q.0, 2
    return h.0
small2:
    return q.0
}"""


def observe_ir_traps():
    records = {}
    for name, text in IR_TRAPS.items():
        records[name], _ = observe(parse_ir_program(text))
    program = parse_ir_program(IR_CALLS_MID_BLOCK)
    _, stats = observe(program)
    records["calls-mid-block-sweep"] = fuel_sweep(
        program, range(stats.instructions + 1)
    )
    return records


def render_trap_golden(sweeps, ir) -> str:
    """One line per IR record and per sweep row, so a diff names the
    input and fuel that moved."""

    def entry(name, value):
        if isinstance(value, list):
            rows = ",\n".join(f"   {json.dumps(row, sort_keys=True)}" for row in value)
            return f" {json.dumps(name)}: [\n{rows}\n ]"
        return f" {json.dumps(name)}: {json.dumps(value, sort_keys=True)}"

    def section(entries):
        return "{\n" + ",\n".join(entry(n, v) for n, v in sorted(entries.items())) + "\n}"

    return f'{{"ir": {section(ir)},\n"sweep": {section(sweeps)}}}\n'


def render(observations) -> str:
    return json.dumps(observations, indent=1, sort_keys=True) + "\n"


INPUTS = dict(golden_inputs())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(INPUTS))
def test_replay_matches_golden(golden, name):
    assert observe_source(INPUTS[name]) == golden[name]


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(INPUTS)


SWEEP_INPUTS = dict(sweep_inputs())


@pytest.fixture(scope="module")
def trap_golden():
    return json.loads(TRAP_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(SWEEP_INPUTS))
def test_fuel_sweep_matches_golden(trap_golden, name):
    assert observe_sweep(SWEEP_INPUTS[name]) == trap_golden["sweep"][name]


def test_ir_traps_match_golden(trap_golden):
    observed = observe_ir_traps()
    assert sorted(observed) == sorted(trap_golden["ir"])
    for name, record in observed.items():
        assert record == trap_golden["ir"][name], name


def test_trap_golden_covers_every_input(trap_golden):
    assert sorted(trap_golden["sweep"]) == sorted(SWEEP_INPUTS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        render({name: observe_source(source) for name, source in INPUTS.items()})
    )
    print(f"wrote {GOLDEN_PATH}")
    TRAP_GOLDEN_PATH.write_text(
        render_trap_golden(
            {name: observe_sweep(source) for name, source in SWEEP_INPUTS.items()},
            observe_ir_traps(),
        )
    )
    print(f"wrote {TRAP_GOLDEN_PATH}")
