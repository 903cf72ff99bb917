"""The analysis cache: compute dominance/loops/GVN once, share them
across passes, and invalidate only what a pass declares dirty.

Before this layer every consumer recomputed its analyses from scratch
(``opt/gvn.py``, ``core/pre.py``, ``baselines/loop_versioning.py`` each
called into ``repro.analysis`` independently).  The
:class:`AnalysisManager` centralizes that: passes declare what they
*require* and what they *preserve*, the manager serves cached results and
drops only the entries a transformation may have invalidated.

In ``debug`` mode the manager additionally recomputes every surviving
cached analysis after each pass and compares structural fingerprints —
a pass that mutates the CFG while falsely declaring ``preserves=
("domtree",)`` is caught immediately with an
:class:`~repro.errors.AnalysisInvalidationError` instead of surfacing
later as an inexplicable miscompile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.analysis.dominance import DominatorTree
from repro.analysis.loops import find_natural_loops
from repro.errors import AnalysisInvalidationError
from repro.ir.function import Function


@dataclass(frozen=True)
class AnalysisSpec:
    """One registered function analysis.

    ``compute(fn, get)`` builds the result; ``get(name)`` resolves a
    dependency analysis for the same function (through the cache when
    called by the manager, freshly when called by the debug checker).
    ``fingerprint`` maps a result to a hashable structural summary used
    by the debug recompute-and-compare check; it must be insensitive to
    incidental identity (object ids, arbitrary class numbers).
    """

    name: str
    compute: Callable[[Function, Callable[[str], Any]], Any]
    fingerprint: Callable[[Any], Any]
    depends: Tuple[str, ...] = ()


def _domtree_fingerprint(domtree: DominatorTree) -> Any:
    return tuple(sorted(domtree.idom.items(), key=lambda item: item[0]))


def _loops_fingerprint(loops) -> Any:
    return tuple(
        sorted(
            (loop.header, tuple(sorted(loop.body)), tuple(sorted(loop.back_edges)))
            for loop in loops
        )
    )


def _gvn_fingerprint(numbering) -> Any:
    # Class numbers are arbitrary; the observable result is the partition.
    groups: Dict[int, list] = {}
    for name, number in numbering.class_of.items():
        groups.setdefault(number, []).append(name)
    return tuple(sorted(tuple(sorted(group)) for group in groups.values()))


def _compute_gvn(fn: Function, get):
    from repro.opt.gvn import value_number

    return value_number(fn, domtree=get("domtree"))


def _compute_uses(fn: Function, get):
    # The function's live def-use index (built lazily, maintained by the
    # Function mutator API).  Serving it through the cache gives it the
    # same declared-preservation contract as every other analysis: a pass
    # that rebuilds or invalidates the index without saying so is caught
    # by the debug fingerprint comparison below, and the deeper
    # rebuild-and-compare check (`ir.verifier.verify_def_use`) runs after
    # every pass in debug mode.
    return fn.def_use()


def _uses_fingerprint(chains) -> Any:
    # Identity-free summary: per-name def and use-occurrence counts.
    return tuple(
        sorted(
            (name, len(info.defs), len(info.uses))
            for name, info in chains.values.items()
            if info.defs or info.uses
        )
    )


#: The built-in analyses, in dependency order (dependencies first).
ANALYSES: Dict[str, AnalysisSpec] = {
    spec.name: spec
    for spec in [
        AnalysisSpec(
            "domtree",
            lambda fn, get: DominatorTree.compute(fn),
            _domtree_fingerprint,
        ),
        AnalysisSpec(
            "loops",
            lambda fn, get: find_natural_loops(fn, get("domtree")),
            _loops_fingerprint,
            depends=("domtree",),
        ),
        AnalysisSpec(
            "gvn",
            _compute_gvn,
            _gvn_fingerprint,
            depends=("domtree",),
        ),
        AnalysisSpec(
            "uses",
            _compute_uses,
            _uses_fingerprint,
        ),
    ]
}


@dataclass
class _CacheEntry:
    #: Strong reference so ``id(fn)`` cache keys can never be recycled by
    #: a different Function object while the entry is alive.
    fn: Function
    result: Any


class AnalysisManager:
    """Per-function analysis cache with declared invalidation.

    Results are keyed by function identity; a function mutated by a pass
    keeps only the analyses the pass declared it preserves (see
    :meth:`retain_only`).  Hit/miss counters feed :class:`SessionStats`
    and the cache-effectiveness tests.
    """

    def __init__(self, debug: bool = False) -> None:
        self.debug = debug
        self._cache: Dict[Tuple[int, str], _CacheEntry] = {}
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        #: Compute time per analysis name (misses only), in seconds.
        self.seconds: Dict[str, float] = {}
        self._misses_by_fn: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def get(self, name: str, fn: Function) -> Any:
        """The ``name`` analysis of ``fn``, computed at most once between
        invalidations."""
        spec = ANALYSES[name]
        key = (id(fn), name)
        entry = self._cache.get(key)
        if entry is not None:
            self.hits[name] = self.hits.get(name, 0) + 1
            return entry.result
        self.misses[name] = self.misses.get(name, 0) + 1
        fn_key = (fn.name, name)
        self._misses_by_fn[fn_key] = self._misses_by_fn.get(fn_key, 0) + 1
        started = time.perf_counter()
        result = spec.compute(fn, lambda dep: self.get(dep, fn))
        self.seconds[name] = (
            self.seconds.get(name, 0.0) + time.perf_counter() - started
        )
        self._cache[key] = _CacheEntry(fn, result)
        return result

    def cached(self, name: str, fn: Function) -> Optional[Any]:
        """The cached result, or ``None`` — never computes."""
        entry = self._cache.get((id(fn), name))
        return entry.result if entry is not None else None

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------

    def invalidate(self, fn: Function, names: Optional[Sequence[str]] = None) -> None:
        """Drop the named analyses of ``fn`` (all of them by default)."""
        for name in names if names is not None else list(ANALYSES):
            self._cache.pop((id(fn), name), None)

    def retain_only(self, fn: Function, preserves: Sequence[str]) -> None:
        """Keep only the analyses a pass declared it preserves."""
        keep = set(preserves)
        self.invalidate(fn, [name for name in ANALYSES if name not in keep])

    def invalidate_all(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def misses_for(self, fn_name: str, analysis: str) -> int:
        """How many times ``analysis`` was computed for functions named
        ``fn_name`` (clones of one function share the name)."""
        return self._misses_by_fn.get((fn_name, analysis), 0)

    def stats(self) -> Dict[str, Dict[str, float]]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "seconds": dict(self.seconds),
        }

    # ------------------------------------------------------------------
    # Debug recompute-and-compare.
    # ------------------------------------------------------------------

    def verify_preserved(self, fn: Function, pass_name: str) -> None:
        """Recompute every still-cached analysis of ``fn`` and compare its
        fingerprint against the cache (debug mode).

        A mismatch means ``pass_name`` mutated something it declared
        preserved; the stale entry is dropped and
        :class:`AnalysisInvalidationError` is raised.
        """
        fresh: Dict[str, Any] = {}

        def fresh_get(name: str) -> Any:
            if name not in fresh:
                fresh[name] = ANALYSES[name].compute(fn, fresh_get)
            return fresh[name]

        # Registry insertion order has dependencies first.
        for name, spec in ANALYSES.items():
            entry = self._cache.get((id(fn), name))
            if entry is None:
                continue
            recomputed = fresh_get(name)
            if spec.fingerprint(recomputed) != spec.fingerprint(entry.result):
                self.invalidate(fn, [name])
                raise AnalysisInvalidationError(
                    f"pass {pass_name!r} declared it preserves {name!r} for "
                    f"{fn.name!r}, but a recompute disagrees with the cache"
                )
