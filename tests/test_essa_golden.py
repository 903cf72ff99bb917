"""Golden replay of e-SSA construction, up to renaming.

``essa_golden.json`` records, per input, compile mode and function, the
sha256 of the function's canonical text. A change to how e-SSA is built
must reproduce every digest: the same φs and πs in the same places, the
same CFG and the same instruction order. Only two things may move, and
the canonical text hides both:

* version numbers: every SSA name is renamed ``base#k``, numbering each
  base name's definitions in a fixed order (the parameters, then the
  blocks in ``fn.blocks`` order; within a block, the φs sorted by base
  name, then the body);
* φ incoming order: the text is printed as ``format_program`` prints it,
  which sorts φ incomings by predecessor label.

Inputs: the 15 Figure-6 corpus programs and ``generate_source`` seeds
0-199. Modes, per input: ``compile_source(standard_opts=False)``
(``plain``), ``compile_source()`` (``default``) and
``compile_source(inline=True)`` (``inline``).

Regenerate (only when e-SSA's shape changes on purpose):
``PYTHONPATH=src python tests/test_essa_golden.py [OUT.json]``; without
an argument it rewrites ``tests/essa_golden.json``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench.corpus import CORPUS
from repro.errors import CompileError
from repro.fuzz.generator import generate_source
from repro.ir.printer import format_function
from repro.pipeline import compile_source
from repro.ssa import base_name

GOLDEN_PATH = Path(__file__).with_name("essa_golden.json")
SEEDS = range(200)
MODES = {
    "plain": {"standard_opts": False},
    "default": {},
    "inline": {"inline": True},
}


def golden_inputs():
    """(name, source) of every input, in a fixed order."""
    inputs = [(p.name, p.source()) for p in CORPUS]
    inputs += [(f"gen-{seed}", generate_source(seed)) for seed in SEEDS]
    return inputs


def canonical_text(fn) -> str:
    """``fn`` printed with every SSA name renamed ``base#k`` in definition
    order (see the module docstring)."""
    names = {}
    counts = {}

    def define(name):
        base = base_name(name)
        count = counts.get(base, 0)
        names[name] = f"{base}#{count}"
        counts[base] = count + 1

    for param in fn.params:
        define(param)
    for block in fn.blocks.values():
        for phi in sorted(block.phis, key=lambda phi: base_name(phi.dest)):
            define(phi.dest)
        for instr in block.body:
            if instr.defs() is not None:
                define(instr.defs())
    renamed = fn.clone()
    renamed.params = [names[param] for param in renamed.params]
    for instr in renamed.all_instructions():
        instr.rename_uses(names)
        if instr.defs() is not None:
            instr.dest = names[instr.defs()]
    return format_function(renamed)


def observe_source(source: str):
    """Per mode, the canonical-text digest of every function."""
    records = {}
    for mode, options in MODES.items():
        try:
            program = compile_source(source, **options)
        except CompileError as exc:
            records[mode] = {"rejected": type(exc).__name__}
            continue
        records[mode] = {
            name: hashlib.sha256(canonical_text(fn).encode()).hexdigest()
            for name, fn in program.functions.items()
        }
    return records


def render(observations) -> str:
    return json.dumps(observations, indent=1, sort_keys=True) + "\n"


INPUTS = dict(golden_inputs())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(INPUTS))
def test_essa_matches_golden(golden, name):
    assert observe_source(INPUTS[name]) == golden[name]


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(INPUTS)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    out.write_text(
        render({name: observe_source(source) for name, source in INPUTS.items()})
    )
    print(f"wrote {out}")
