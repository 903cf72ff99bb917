"""Textual pretty-printer for the IR.

The output format is stable and used in tests, examples, and docs::

    fn bubble(a) {
    entry0:
        limit := arraylen a
        ...
        jump while1
    while1:
        st.1 := phi(entry0: st.0, body2: st.2)
        ...
    }
"""

from __future__ import annotations

from typing import List

from repro.ir.function import Function, Program


def format_function(fn: Function) -> str:
    """Render ``fn`` as readable text, blocks in reverse postorder."""
    lines: List[str] = []
    params = ", ".join(fn.params)
    lines.append(f"fn {fn.name}({params}) {{")
    for label in fn.reachable_blocks():
        block = fn.blocks[label]
        lines.append(f"{label}:")
        for instr in block.instructions():
            lines.append(f"    {instr}")
    lines.append("}")
    return "\n".join(lines)


def format_program(program: Program) -> str:
    """Render every function of ``program``."""
    return "\n\n".join(format_function(fn) for fn in program.functions.values())
