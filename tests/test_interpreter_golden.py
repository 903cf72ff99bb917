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

Regenerate (only when the interpreter's semantics change on purpose):
``PYTHONPATH=src python tests/test_interpreter_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.corpus import CORPUS
from repro.core.abcd import ABCDConfig
from repro.errors import BoundsCheckError, CompileError, MiniJRuntimeError
from repro.fuzz.generator import generate_source
from repro.passes.session import CompilationSession
from repro.pipeline import clone_program
from repro.runtime.interpreter import Interpreter
from repro.runtime.profiler import Profile
from repro.runtime.values import ArrayValue

GOLDEN_PATH = Path(__file__).with_name("interpreter_golden.json")
SEEDS = range(60)
TRAP_FUEL = 137
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
    profile = Profile(
        block_counts=dict(stats.block_counts),
        edge_counts=dict(stats.edge_counts),
        check_counts=dict(stats.check_counts),
    )
    optimized = clone_program(compiled)
    session.optimize(optimized, profile=profile)
    records["optimized"], _ = observe(optimized)
    records["fuel"], _ = observe(optimized, fuel=TRAP_FUEL)
    return records


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


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        render({name: observe_source(source) for name, source in INPUTS.items()})
    )
    print(f"wrote {GOLDEN_PATH}")
