"""The on-disk entry format: JSON payload + checksum footer.

An entry file is::

    <canonical JSON payload, one line>\n#sha256:<64 hex chars>\n

The payload is ``json.dumps(..., sort_keys=True)`` with compact
separators, so identical logical entries are byte-identical — which is
what makes the concurrent-writer race benign (both writers rename the
same bytes into place) and warm-hit comparisons exact.

The footer checksums the payload bytes.  :func:`decode_entry` is the
first rung of the zero-trust load ladder; it classifies every way the
bytes can be wrong:

* ``truncated`` — missing/garbled footer or trailing newline (a torn
  write);
* ``checksum``  — footer present but does not match the payload (a
  flipped byte at rest, in payload or footer);
* ``json``      — checksum passes but the payload is not valid JSON;
* ``schema``    — a payload from a different schema version;
* ``shape``     — valid JSON of the right schema whose structure or
  types are wrong.

A payload that clears all five rungs is still *untrusted*: the store
replays every elimination through the certify checker before anything
derived from the entry is executed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.store.fingerprint import SCHEMA_VERSION

_FOOTER_MARK = b"\n#sha256:"


class EntryError(Exception):
    """A load-ladder rejection; ``reason`` is the rung that failed."""

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass
class Elimination:
    """One certified check elimination, as stored.

    ``target`` and ``cert_source`` index the entry's ``vertices`` and
    ``witness`` its ``witnesses`` (the :class:`~repro.certify.witness.
    WitnessTable` of the whole unit); they are decoded and re-checked at
    load time, never trusted.
    """

    check_id: int
    kind: str  # "lower" | "upper"
    array: Optional[str]
    target: int
    witness: int
    cert_source: Optional[int] = None
    pre: bool = False


@dataclass
class StoreEntry:
    """One compilation unit's cached result.

    ``ir`` is the **pre-removal** optimized IR (checks still present):
    certificate replay needs the inequality-graph edges the checks
    contribute, so removals are re-applied at load only after every
    elimination re-certifies.  ``vertices`` and ``witnesses`` are the
    certificates of every function, as one table.
    """

    fingerprint: str
    ir: str
    eliminations: Dict[str, List[Elimination]] = field(default_factory=dict)
    vertices: List[list] = field(default_factory=list)
    witnesses: List[list] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Encoding.
# ----------------------------------------------------------------------


def entry_payload(entry: StoreEntry) -> Dict[str, object]:
    """The entry's JSON payload object (what the checksum covers).

    Also the wire form serve workers attach to a response frame when the
    supervisor asked them to capture a cacheable compile.
    """
    return {
        "schema": SCHEMA_VERSION,
        "fingerprint": entry.fingerprint,
        "ir": entry.ir,
        "eliminations": {
            name: [
                {
                    "check_id": e.check_id,
                    "kind": e.kind,
                    "array": e.array,
                    "target": e.target,
                    "witness": e.witness,
                    "cert_source": e.cert_source,
                    "pre": e.pre,
                }
                for e in elims
            ]
            for name, elims in entry.eliminations.items()
        },
        "vertices": entry.vertices,
        "witnesses": entry.witnesses,
        "meta": entry.meta,
    }


def encode_entry(entry: StoreEntry) -> bytes:
    """Serialize an entry to its durable byte form."""
    data = json.dumps(
        entry_payload(entry), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    return data + _FOOTER_MARK + digest.encode("ascii") + b"\n"


# ----------------------------------------------------------------------
# Decoding — the envelope rungs of the load ladder.
# ----------------------------------------------------------------------


def decode_entry(data: bytes) -> StoreEntry:
    """Decode durable bytes back into a :class:`StoreEntry`.

    Raises :class:`EntryError` with the first failing rung's reason.
    """
    if not data.endswith(b"\n"):
        raise EntryError("truncated", "missing trailing newline")
    mark = data.rfind(_FOOTER_MARK)
    if mark < 0:
        raise EntryError("truncated", "missing checksum footer")
    payload = data[:mark]
    footer = data[mark + len(_FOOTER_MARK) : -1]
    if len(footer) != 64 or any(c not in b"0123456789abcdef" for c in footer):
        raise EntryError("truncated", "garbled checksum footer")
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    if footer != digest:
        raise EntryError("checksum", "footer does not match payload")
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise EntryError("json", str(exc))
    if not isinstance(obj, dict):
        raise EntryError("json", "payload is not an object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise EntryError("schema", f"schema {obj.get('schema')!r}")
    return _entry_from_payload(obj)


def entry_from_payload(obj: object) -> StoreEntry:
    """Decode a wire-borne payload object (no checksum envelope — worker
    response frames already ride the length-checked NDJSON protocol).
    Applies the schema and shape rungs; raises :class:`EntryError`."""
    if not isinstance(obj, dict):
        raise EntryError("shape", "payload is not an object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise EntryError("schema", f"schema {obj.get('schema')!r}")
    return _entry_from_payload(obj)


def _entry_from_payload(obj: Dict[str, object]) -> StoreEntry:
    fingerprint = obj.get("fingerprint")
    ir = obj.get("ir")
    elims_obj = obj.get("eliminations")
    vertices = obj.get("vertices")
    witnesses = obj.get("witnesses")
    meta = obj.get("meta")
    if (
        not isinstance(fingerprint, str)
        or not isinstance(ir, str)
        or not isinstance(elims_obj, dict)
        or not isinstance(vertices, list)
        or not isinstance(witnesses, list)
        or not isinstance(meta, dict)
    ):
        raise EntryError("shape", "missing or mistyped top-level field")
    eliminations: Dict[str, List[Elimination]] = {}
    for name, raw_list in elims_obj.items():
        if not isinstance(name, str) or not isinstance(raw_list, list):
            raise EntryError("shape", "bad eliminations table")
        eliminations[name] = [_elimination_from(raw) for raw in raw_list]
    return StoreEntry(fingerprint, ir, eliminations, vertices, witnesses, meta)


def _elimination_from(raw: object) -> Elimination:
    if not isinstance(raw, dict):
        raise EntryError("shape", "elimination is not an object")
    check_id = raw.get("check_id")
    kind = raw.get("kind")
    array = raw.get("array")
    target = raw.get("target")
    witness = raw.get("witness")
    cert_source = raw.get("cert_source")
    pre = raw.get("pre")
    if type(check_id) is not int or kind not in ("lower", "upper"):
        raise EntryError("shape", "bad elimination check_id/kind")
    if array is not None and not isinstance(array, str):
        raise EntryError("shape", "bad elimination array")
    if type(target) is not int or type(witness) is not int:
        raise EntryError("shape", "bad elimination target/witness")
    if cert_source is not None and type(cert_source) is not int:
        raise EntryError("shape", "bad elimination cert_source")
    if not isinstance(pre, bool):
        raise EntryError("shape", "bad elimination pre flag")
    return Elimination(
        check_id=check_id,
        kind=kind,
        array=array,
        target=target,
        witness=witness,
        cert_source=cert_source,
        pre=pre,
    )
