"""Machine-speed calibration: fixed pure-Python kernels timed between units.

The machine the benchmark was set up on (2 cores shared with other
tenants) changes speed by itself, in bursts and in drifts that last
minutes: over ten consecutive 15 s runs of run-corpus, the median run of
the optimized programs ranged over 41.0-68.7 ms.  So the measuring
process times one small kernel after every unit, in turn, and divides
each unit's time by the *local slowdown*: the median, over the three
kernels before the unit and the three after it, of kernel time / the
kernel's time on the quiet reference machine (:data:`REFERENCE_MS`).  A
calibrated time is in milliseconds of that machine; over the same ten
runs the gated median (``cal_unit_ms.p50``) ranged over 37.8-40.2 ms.
Set-up samples are divided the same way, by kernels timed right after
each set-up.

The kernels never import the program, and run with the cyclic garbage
collector off (everything they allocate is freed by reference counting),
so their time does not depend on what the program holds in memory: a
change to the program moves calibrated times as it moves the raw ones.
Each imitates one kind of work the program does: building and grouping
small objects (IR construction), lexing text (the frontend), and a
dispatch loop over tuples (the interpreter).
"""

from __future__ import annotations

import gc
import io
import random
import statistics
import time
import tokenize
from typing import Callable, Dict, List

#: Each kernel's fastest time (ms) on the reference machine: a 2-core
#: x86-64 host, Python 3.11.7, quiet.  The calibrated times are in
#: milliseconds of that machine.
REFERENCE_MS = {"alloc": 2.0, "lex": 2.5, "dispatch": 1.9}
#: Kernels on each side of a unit whose median is its local slowdown.
RADIUS = 3


class _Node:
    __slots__ = ("op", "kids", "payload")

    def __init__(self, op: str, kids: List["_Node"], payload: Dict) -> None:
        self.op, self.kids, self.payload = op, kids, payload


def kernel_alloc() -> int:
    rng = random.Random(7)
    nodes = [_Node("leaf", [], {"v": i}) for i in range(100)]
    for i in range(1500):
        a, b = nodes[rng.randrange(len(nodes))], nodes[rng.randrange(len(nodes))]
        nodes.append(_Node(("add", "mul", "phi")[i % 3], [a, b], {"v": i, "uses": []}))
    groups: Dict[str, List[int]] = {}
    for node in nodes:
        groups.setdefault(node.op, []).append(len(node.kids))
    return sum(len(g) for g in groups.values())


_LEX_TEXT = "".join(
    f"def f{i}(a, b):\n    return a[{i}] * {i} + b.get('k{i}', {i}.5) - len(a)\n"
    for i in range(40))


def kernel_lex() -> int:
    return sum(1 for _ in tokenize.generate_tokens(io.StringIO(_LEX_TEXT).readline))


_PROGRAM = (("push", 1), ("add", None), ("dup", None), ("push", 3000), ("lt", None), ("jump_if", 0))


def kernel_dispatch() -> int:
    stack, pc, steps = [0], 0, 0
    while pc < len(_PROGRAM):
        op, arg = _PROGRAM[pc]
        pc += 1
        steps += 1
        if op == "push":
            stack.append(arg)
        elif op == "add":
            top = stack.pop()
            stack[-1] += top
        elif op == "dup":
            stack.append(stack[-1])
        elif op == "lt":
            top = stack.pop()
            stack[-1] = stack[-1] < top
        elif op == "jump_if" and stack.pop():
            pc = arg
    return steps


KERNELS: Dict[str, Callable[[], int]] = {
    "alloc": kernel_alloc, "lex": kernel_lex, "dispatch": kernel_dispatch}


class Calibrator:
    """Times the kernels in turn and keeps every sample's slowdown (time /
    reference time), in order.  A fresh process runs slowly until the
    interpreter has specialized the kernels' code, so creating one runs
    every kernel twice, untimed."""

    def __init__(self) -> None:
        self.ratios: List[float] = []
        self._order = list(KERNELS)
        self._next = 0
        for _ in range(2):
            for kernel in KERNELS.values():
                kernel()

    def tick(self) -> int:
        """Time the next kernel; returns its sample index."""
        name = self._order[self._next]
        self._next = (self._next + 1) % len(self._order)
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            KERNELS[name]()
            elapsed = (time.perf_counter() - started) * 1000
        finally:
            if collecting:
                gc.enable()
        self.ratios.append(elapsed / REFERENCE_MS[name])
        return len(self.ratios) - 1

    def sample(self) -> float:
        """The slowdown now: the median of ``2 * RADIUS`` kernels timed in
        a row (each kernel ``2 * RADIUS / 3`` times)."""
        first = len(self.ratios)
        for _ in range(2 * RADIUS):
            self.tick()
        return statistics.median(self.ratios[first:])


def local_slowdown(ratios: List[float], after: int) -> float:
    """The slowdown around a unit that ran just before sample ``after``:
    the median of the :data:`RADIUS` samples before the unit and the
    :data:`RADIUS` from ``after`` on."""
    return statistics.median(ratios[max(0, after - RADIUS):after + RADIUS])
