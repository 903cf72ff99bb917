"""Seeded inputs of the end-to-end workloads, their references, and the
input manifest.

Everything here runs in the benchmark's parent process before any
measured child is spawned, so input generation and reference runs are
never timed.  The same ``(workload, seed, smoke)`` always yields the same
inputs: the seed's draws come from ``random.Random("<workload>:<seed>")``
(string seeds hash deterministically, independent of ``PYTHONHASHSEED``).
Every workload has a fixed input set; the seed orders each round.  Fixed
sets keep the cost of a round, and the exact quality numbers, the same
from seed to seed: a fresh draw of generated programs per seed moved the
median unit time by up to ~10%.

An input set is a JSON-ready dict::

    {"workload": ..., "seed": ..., "probe": <program index>,
     "programs": [{"name", "source", "lines", "functions", ...refs}],
     "rounds": [[program index, ...], ...]}

A *round* is one pass over the workload's input set; the measured child
only ever stops between rounds, so every run sees whole rounds and the
same mix of inputs however many rounds fit in ``--seconds``.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
import re
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("compile-corpus", "certify-scaled", "run-corpus", "serve-hit", "serve-miss")
SERVE_WORKLOADS = ("serve-hit", "serve-miss")

#: Nested-guard chains compiled by ``certify-scaled``: ``2k`` checks in one
#: function, the density where certify-mode demand sessions go quadratic.
CHAIN_SIZES = (8, 16, 32, 64)
#: ``deep-chain`` generator depth: a ~750 line straight-line program.  A
#: second chain of depth 1000 (~2,800 lines, 0.8 s a compile) was half of
#: every round and left each input only ~7 units in a 15 s run.
DEEP_CHAIN_DEPTHS = (250,)
#: Default-profile generated programs in the certify-scaled set.
CERTIFY_GENERATED = 16
#: run-corpus runs the corpus programs whose unoptimized run needs at
#: most this many instructions (``expected.json``): 5 of 15, whose
#: optimized runs take 40-100 ms each, so that a run holds many units of
#: each.  Timing the whole pipeline (``run_benchmark``, 0.2-0.8 s a
#: program) over the 11 programs under 300k instructions gave ~5 units per
#: input in a 15 s run; with Array, db and compress as well (jess, 12 s
#: alone, left out) a round took 7.7 s.  The heavier programs' compiles
#: stay in compile-corpus and serve-hit.
RUN_CORPUS_MAX_INSTRUCTIONS = 100_000
#: Generated programs ``serve-miss`` sends, each request with a pad
#: function no earlier request had, so every request misses the store.
SERVE_MISS_GENERATED = 12
#: Generated programs whose reference run needs more instructions, more
#: wall time (unbounded integers can make one ``mul`` arbitrarily slow),
#: or returns a value wider than this many bits are filtered out.
MAX_REFERENCE_INSTRUCTIONS = 1_000_000
MAX_REFERENCE_SECONDS = 1.0
MAX_VALUE_BITS = 63

#: Fixed first unit of every child (``setup_s`` ends when it completes);
#: independent of the seed so set-up time does not vary with it.
PROBE_PROGRAM = {"compile-corpus": "db", "certify-scaled": "chain-8", "run-corpus": "Dhrystone"}

#: Seconds one round takes on the 2-core machine the sizes were set on;
#: rounds are laid out for a machine twice as fast.
ROUND_SECONDS = {"compile-corpus": 0.23, "certify-scaled": 0.75, "run-corpus": 0.21,
                 "serve-hit": 0.25, "serve-miss": 0.5}

#: Smoke scale: the same code paths on tiny inputs (the self-test).
SMOKE_CHAIN_SIZES = (4, 8)
SMOKE_DEEP_CHAIN_DEPTHS = (40,)
SMOKE_CERTIFY_GENERATED = 2
SMOKE_RUN_PROGRAMS = ("Dhrystone", "bubbleSort")
SMOKE_SERVE_MISS_GENERATED = 3


def chain_program(k: int) -> str:
    """``k`` checks at guard depths 1..k against one array (plus their
    ``k`` lower-bound twins): check ``d``'s proof walks a length-``d``
    inequality chain."""
    lines = [
        "fn deep(a: int[], i0: int): int {",
        "  let s: int = 0;",
        "  if (i0 >= 0) { if (i0 < len(a)) {",
    ]
    indent = "    "
    for d in range(1, k + 1):
        lines.append(f"{indent}let i{d}: int = i{d - 1} - 1;")
        lines.append(f"{indent}if (i{d} >= 0) {{")
        lines.append(f"{indent}  s = s + a[i{d}];")
        indent += "  "
    lines.append(indent + "s = s + 0;")
    for _ in range(k):
        indent = indent[:-2]
        lines.append(indent + "}")
    lines.append("  } }")
    lines.append("  return s;")
    lines.append("}")
    lines.append("fn main(): int { let a: int[] = new int[64]; return deep(a, 10); }")
    return "\n".join(lines) + "\n"


def unique_source(source: str, request: int) -> str:
    """``source`` plus an unused function named after ``request``: the
    store key covers the token stream, so this is a program the store has
    never seen, with the same ``main()`` outcome."""
    return f"{source}\nfn e2e_pad_{request}(): int {{ return {request}; }}\n"


def _program(name: str, source: str, **refs) -> Dict:
    return {
        "name": name,
        "source": source,
        "lines": source.count("\n") + (0 if source.endswith("\n") else 1),
        "functions": len(re.findall(r"^\s*fn\s", source, re.M)),
        **refs,
    }


def load_expected() -> Dict[str, Dict]:
    return json.loads(EXPECTED_PATH.read_text())


def reference_outcome(source: str, fuel: int = MAX_REFERENCE_INSTRUCTIONS,
                      seconds: Optional[float] = MAX_REFERENCE_SECONDS) -> Optional[Dict]:
    """The observable outcome of the *unoptimized* program (no standard
    opts, every check in place), or ``None`` when it does not compile,
    runs out of ``fuel`` or ``seconds``, or returns an over-wide value --
    such inputs are filtered out, never sent."""
    from repro.errors import BoundsCheckError, CallDepthExceeded, CompileError
    from repro.errors import MiniJRuntimeError, TrapLimitExceeded
    from repro.limits import HardDeadlineExceeded, hard_deadline
    from repro.passes.session import CompilationSession
    from repro.runtime.interpreter import Interpreter

    try:
        program = CompilationSession().compile(source, standard_opts=False)
    except CompileError:
        return None
    interp = Interpreter(program, fuel=fuel)
    outcome = {"value": None, "trap": None, "check_id": None, "index": None,
               "length": None, "kind": None}
    try:
        with hard_deadline(seconds):
            outcome["value"] = interp.run("main").value
    except (TrapLimitExceeded, CallDepthExceeded, HardDeadlineExceeded):
        return None
    except BoundsCheckError as exc:
        outcome.update(trap=type(exc).__name__, check_id=exc.check_id,
                       index=exc.index, length=exc.length, kind=exc.kind)
    except MiniJRuntimeError as exc:
        outcome["trap"] = type(exc).__name__
    if isinstance(outcome["value"], int) and outcome["value"].bit_length() > MAX_VALUE_BITS:
        return None
    outcome["checks"] = interp.stats.total_checks
    outcome["instructions"] = interp.stats.instructions
    return outcome


def write_expected() -> None:
    """Regenerate ``expected.json`` from the unoptimized interpreter."""
    from repro.bench.corpus import CORPUS

    expected = {}
    for program in CORPUS:
        outcome = reference_outcome(program.source(), fuel=100_000_000, seconds=None)
        expected[program.name] = {
            "value": outcome["value"],
            "checks": outcome["checks"],
            "instructions": outcome["instructions"],
        }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def _generated(rng: random.Random, count: int, run_reference: bool) -> List[Dict]:
    """``count`` default-profile generated programs that compile (and,
    with ``run_reference``, whose reference run stays within the limits)."""
    from repro.errors import CompileError
    from repro.fuzz.generator import generate_source
    from repro.passes.session import CompilationSession

    out = []
    while len(out) < count:
        gen_seed = rng.randrange(2**31)
        source = generate_source(gen_seed)
        if run_reference:
            ref = reference_outcome(source)
            if ref is None:
                continue
            out.append(_program(f"gen-{gen_seed}", source, ref=ref))
        else:
            try:
                CompilationSession().compile(source, standard_opts=False)
            except CompileError:
                continue
            out.append(_program(f"gen-{gen_seed}", source))
    return out


def max_rounds(workload: str, seconds: float) -> int:
    """How many rounds to lay out: enough for a machine twice as fast as
    the one :data:`ROUND_SECONDS` was measured on.  A child that runs out
    of rounds stops early."""
    return max(2, math.ceil(2 * seconds / ROUND_SECONDS[workload]) + 1)


def _certify_programs(smoke: bool) -> List[Dict]:
    """The certify-scaled input set (one fixed draw)."""
    from repro.fuzz.generator import GeneratorConfig, generate_source

    rng = random.Random("certify-scaled")
    programs = [_program(f"chain-{k}", chain_program(k))
                for k in (SMOKE_CHAIN_SIZES if smoke else CHAIN_SIZES)]
    for depth in SMOKE_DEEP_CHAIN_DEPTHS if smoke else DEEP_CHAIN_DEPTHS:
        gen_seed = rng.randrange(2**31)
        config = GeneratorConfig(profile="deep-chain", chain_depth=depth)
        programs.append(_program(f"deep-{depth}-{gen_seed}", generate_source(gen_seed, config)))
    count = SMOKE_CERTIFY_GENERATED if smoke else CERTIFY_GENERATED
    return programs + _generated(rng, count, run_reference=False)


def build_inputs(workload: str, seed: int, seconds: float, smoke: bool = False) -> Dict:
    from repro.bench.corpus import CORPUS

    expected = load_expected()
    corpus = [_program(p.name, p.source(), ref=expected[p.name]) for p in CORPUS]
    if workload == "compile-corpus":
        programs = corpus[:3] if smoke else corpus
    elif workload == "certify-scaled":
        programs = _certify_programs(smoke)
    elif workload == "run-corpus":
        programs = [p for p in corpus if p["name"] in SMOKE_RUN_PROGRAMS] if smoke else [
            p for p in corpus if p["ref"]["instructions"] <= RUN_CORPUS_MAX_INSTRUCTIONS]
    elif workload == "serve-hit":
        programs = corpus[:3] if smoke else corpus
    elif workload == "serve-miss":
        count = SMOKE_SERVE_MISS_GENERATED if smoke else SERVE_MISS_GENERATED
        programs = _generated(random.Random("serve-miss"), count, run_reference=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    if workload in SERVE_WORKLOADS:
        # Set-up is the first response of a fresh server: a compile of a
        # small program none of the measured requests sends.
        programs = programs + [_program("probe-chain-4", chain_program(4))]
        probe = len(programs) - 1
        members = range(len(programs) - 1)
    else:
        probe = [p["name"] for p in programs].index(PROBE_PROGRAM[workload])
        members = range(len(programs))
    rng = random.Random(f"{workload}:{seed}")
    rounds = [rng.sample(members, len(members))
              for _ in range(max_rounds(workload, seconds))]
    return {"workload": workload, "seed": seed, "smoke": smoke, "probe": probe,
            "programs": programs, "rounds": rounds}


def input_hash(inputs: Dict) -> str:
    """sha256 over the inputs: every program source and the round layout."""
    digest = hashlib.sha256()
    for source in (p["source"] for p in inputs["programs"]):
        digest.update(hashlib.sha256(source.encode()).digest())
    digest.update(json.dumps(inputs["rounds"]).encode())
    return digest.hexdigest()


def manifest(inputs: Dict, rounds_run: int) -> Dict:
    """Input properties of the rounds a run actually measured."""
    members = [m for r in inputs["rounds"][:rounds_run] for m in r]
    programs = [inputs["programs"][i] for i in sorted(set(members))]
    out = {
        "sha256": input_hash(inputs),
        "rounds": rounds_run,
        "rounds_available": len(inputs["rounds"]),
        "units": len(members),
        "programs": len(programs),
        "lines": sum(p["lines"] for p in programs),
        "functions": sum(p["functions"] for p in programs),
    }
    refs = [p["ref"] for p in programs if "ref" in p]
    if refs:
        out["reference_instructions"] = sum(r["instructions"] for r in refs)
    if inputs["workload"] in SERVE_WORKLOADS:
        # serve-hit primes the store with every program before measuring;
        # serve-miss makes every request's source new.
        out["seen_source_share"] = 1.0 if inputs["workload"] == "serve-hit" else 0.0
    return out


if __name__ == "__main__":
    # Regenerate the committed reference values:
    #   PYTHONPATH=src python3 benchmarks/e2e/workloads.py
    write_expected()
