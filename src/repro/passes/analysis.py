"""The analysis cache: compute a function's dominator tree and GVN once
and share them across passes until a pass mutates the function.

The cache follows one rule, applied by the
:class:`~repro.passes.manager.PassManager`: when a pass with
``mutates=True`` finishes, succeeded or rolled back (or a fixpoint-group
round changes something), every cached analysis of that function is
dropped.  Passes with ``mutates=False`` (``abcd``, ``store-capture``)
keep the cache, which is how PRE's per-attempt ``domtree`` lookups and
``gvn_mode="augment"``'s second ``domtree`` lookup reuse the tree the
``abcd`` pass computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.analysis.dominance import DominatorTree
from repro.ir.function import Function


@dataclass(frozen=True)
class AnalysisSpec:
    """One registered function analysis.

    ``compute(fn, get)`` builds the result; ``get(name)`` resolves a
    dependency analysis of the same function through the cache.
    """

    name: str
    compute: Callable[[Function, Callable[[str], Any]], Any]


def _compute_gvn(fn: Function, get):
    from repro.opt.gvn import value_number

    return value_number(fn, domtree=get("domtree"))


#: The built-in analyses.
ANALYSES: Dict[str, AnalysisSpec] = {
    spec.name: spec
    for spec in [
        AnalysisSpec("domtree", lambda fn, get: DominatorTree.compute(fn)),
        AnalysisSpec("gvn", _compute_gvn),
    ]
}


class AnalysisManager:
    """Per-function analysis cache.

    Results are keyed by function identity and dropped per function by
    :meth:`invalidate`.  Hit/miss counters feed :class:`SessionStats`.
    ``debug`` makes the pass manager check the def-use index after every
    pass (:func:`~repro.ir.verifier.verify_def_use`).
    """

    def __init__(self, debug: bool = False) -> None:
        self.debug = debug
        #: id(fn) -> (fn, {analysis name: result}).  Holding ``fn`` keeps
        #: its id from being recycled by another Function while cached.
        self._cache: Dict[int, Tuple[Function, Dict[str, Any]]] = {}
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        #: Compute time per analysis name (misses only), in seconds.
        self.seconds: Dict[str, float] = {}

    def get(self, name: str, fn: Function) -> Any:
        """The ``name`` analysis of ``fn``, computed at most once between
        invalidations."""
        spec = ANALYSES[name]
        results = self._cache.setdefault(id(fn), (fn, {}))[1]
        if name in results:
            self.hits[name] = self.hits.get(name, 0) + 1
            return results[name]
        self.misses[name] = self.misses.get(name, 0) + 1
        started = time.perf_counter()
        result = spec.compute(fn, lambda dep: self.get(dep, fn))
        self.seconds[name] = (
            self.seconds.get(name, 0.0) + time.perf_counter() - started
        )
        results[name] = result
        return result

    def invalidate(self, fn: Function) -> None:
        """Drop every cached analysis of ``fn``."""
        self._cache.pop(id(fn), None)

    def invalidate_all(self) -> None:
        self._cache.clear()

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def stats(self) -> Dict[str, Dict[str, float]]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "seconds": dict(self.seconds),
        }
