"""Canonical fingerprints for store keys.

An entry is addressed by everything that can change the optimized
output:

* the **source structure** — the token stream of the MiniJ translation
  unit, so whitespace and comment edits still hit while any token-level
  edit misses;
* the **ABCDConfig** — every field that steers analysis or
  transformation.  ``certify`` and ``strict`` are excluded: stored
  entries are *always* captured under certification (that is what makes
  loads replayable), so those flags select a validation posture, not a
  different optimized program.  The key also
  carries the name of the one proof engine, so keys written while the
  engine was selectable still hit;
* the **pipeline id** — the registered pass names actually scheduled,
  so enabling inlining or disabling the standard suite misses;
* the **store schema version** — a format bump orphans old entries
  rather than reinterpreting them.

Fingerprints are plain sha256 hex digests; the store shards entries by
the first two characters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional

from repro.core.abcd import ABCDConfig

#: Bump on any incompatible change to the entry payload format.  Schema 2
#: stores an entry's certificates as one witness table; schema 1 stored
#: one tree per certificate.
SCHEMA_VERSION = 2

#: Config fields that select a validation posture, not an output.
_CONFIG_EXCLUDED = frozenset({"certify", "strict"})


def source_structure_hash(source: str) -> str:
    """sha256 of the token structure of ``source``.

    Lexing discards whitespace and comments, so formatting edits keep
    the hash; any change that survives to a token (an identifier, a
    literal, an operator) changes it.
    """
    from repro.frontend.lexer import tokenize

    data = "".join(f"{t.kind.name}\x1f{t.text}\x1e" for t in tokenize(source))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def config_key(config: Optional[ABCDConfig]) -> str:
    """Canonical JSON of the output-relevant ``ABCDConfig`` fields.

    Iterates the dataclass fields so a future config knob participates
    in the key by default; forgetting to exclude a posture-only flag
    costs a cache miss, never a wrong hit.
    """
    config = config or ABCDConfig()
    payload = {}
    for spec in dataclasses.fields(ABCDConfig):
        if spec.name in _CONFIG_EXCLUDED:
            continue
        value = getattr(config, spec.name)
        if isinstance(value, (set, frozenset)):
            value = sorted(value)
        payload[spec.name] = value
    # A former config field, still hashed so existing store keys keep hitting.
    payload["solver_backend"] = "demand"
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def pipeline_id(standard_opts: bool = True, inline: bool = False) -> str:
    """The scheduled pass names, in order, as one string.

    Built from the registry's default pipelines — the same lists
    ``CompilationSession`` runs — so a pipeline reshuffle in the
    registry automatically orphans stale entries.
    """
    from repro.passes.registry import default_compile_passes, default_optimize_passes

    names = [p.name for p in default_compile_passes(standard_opts, inline)]
    names += [p.name for p in default_optimize_passes()]
    return "+".join(names)


def profile_key(profile) -> str:
    """Digest of a :class:`~repro.runtime.profiler.Profile`'s counters.

    PRE decisions depend on edge frequencies, so a profile-driven
    compile must key on the profile too — otherwise two different
    profiles would collide on one entry and the warm result could
    diverge (in IR shape, never in behavior) from the cold one.
    """
    if profile is None:
        return ""
    payload = {
        "blocks": sorted(
            (fn, label, count)
            for (fn, label), count in profile.block_counts.items()
        ),
        "edges": sorted(
            (fn, src, dst, count)
            for (fn, src, dst), count in profile.edge_counts.items()
        ),
        "checks": sorted(profile.check_counts.items()),
    }
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def store_fingerprint(
    source: str,
    config: Optional[ABCDConfig] = None,
    standard_opts: bool = True,
    inline: bool = False,
    profile=None,
) -> str:
    """The content address of one compilation unit's optimized result."""
    key = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "source": source_structure_hash(source),
            "config": config_key(config),
            "pipeline": pipeline_id(standard_opts, inline),
            "profile": profile_key(profile),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()
