"""Golden replay of certified compiles and of corpus store entries.

``certify_golden.json`` records, per Figure-6 corpus program, three
sha256 digests:

* ``certify`` — the stdout of ``repro optimize FILE --certify --json``;
* ``certify-pre`` — the same with ``--pre`` (PRE transformations and
  their assumption-context certificates);
* ``entry`` — the bytes of the one store entry that ``repro optimize
  FILE --cache-dir DIR`` writes.

A change to how graphs are built, proofs are searched, certificates are
encoded or functions are guarded must reproduce every digest: the same
eliminations, the same witnesses in the same order, the same entry bytes.
The digests do not depend on the interpreter's hash seed.

Regenerate (only when a certificate or an entry changes on purpose):
``PYTHONPATH=src python tests/test_certify_golden.py [OUT.json]``;
without an argument it rewrites ``tests/certify_golden.json``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.bench.corpus import CORPUS
from repro.cli import main

GOLDEN_PATH = Path(__file__).with_name("certify_golden.json")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue().encode()


def observe_program(program):
    """The three digests of one corpus program."""
    path = str(program.path)
    record = {
        "certify": _digest(_cli_stdout(["optimize", path, "--certify", "--json"])),
        "certify-pre": _digest(
            _cli_stdout(["optimize", path, "--certify", "--json", "--pre"])
        ),
    }
    with tempfile.TemporaryDirectory() as cache_dir:
        _cli_stdout(["optimize", path, "--cache-dir", cache_dir])
        entries = sorted(Path(cache_dir, "objects").glob("*/*.entry"))
        assert len(entries) == 1, entries
        record["entry"] = _digest(entries[0].read_bytes())
    return record


def render(observations) -> str:
    return json.dumps(observations, indent=1, sort_keys=True) + "\n"


PROGRAMS = {program.name: program for program in CORPUS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_certified_compile_matches_golden(golden, name):
    assert observe_program(PROGRAMS[name]) == golden[name]


def test_golden_covers_every_program(golden):
    assert sorted(golden) == sorted(PROGRAMS)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    out.write_text(
        render({name: observe_program(program) for name, program in PROGRAMS.items()})
    )
    print(f"wrote {out}")
