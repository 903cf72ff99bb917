"""Golden replay of the lexer's token streams.

``lexer_golden.json`` records, for every input, a sha256 of its token
stream (each token's kind, text, line, column and value) or the error
lexing raised, as ``"<type>: <message>"``. It was generated from the
character-at-a-time lexer that the compiled scanner replaced, and the
scanner reproduces every entry but one kind: that lexer read a character
for which ``isdigit()`` is true and ``isdecimal()`` is false (``²``) as
part of a number and then crashed in ``int()``. An input may differ from
its entry only if it contains such a character, and then it must raise
``LexError``.

Inputs: the 15 Figure-6 programs, ``generate_source`` seeds 0-199 and
4,000 seeded short strings over MiniJ tokens, comment markers, unusual
whitespace (``\\r``, tab, ``\\xa0``, ``\\x0b``), non-ASCII letters and
digits (``é``, ``٣``, ``²``, ``½``) and stray punctuation.

Regenerate (only when the lexer's behaviour changes on purpose):
``PYTHONPATH=src python tests/test_lexer_golden.py``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.bench.corpus import CORPUS
from repro.frontend.lexer import tokenize
from repro.fuzz.generator import generate_source

GOLDEN_PATH = Path(__file__).with_name("lexer_golden.json")
SEEDS = range(200)
RANDOM_STRINGS = 4000

#: Pieces the random strings are drawn from; repeats weight the draw
#: towards input that lexes, so streams and errors are both common.
PIECES = (
    ["a", "Zq", "_", "x1", "fn", "int", "let", "return", "len", "é"] * 3
    + ["0", "7", "42", "٣"] * 3
    + [" ", "\n"] * 4
    + ["\t", "\r", "\xa0", "\x0b", "²", "½"]
    + ["/*", "*/", "//", "/", "*"] * 2
    + list("(){}[],:;=+-%<>!&|")
    + ["<=", "==", "&&", "||"]
    + list("$#@.?'\"`~^\\")
)


def random_strings():
    rng = random.Random("lexer-golden")
    return [
        "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 10)))
        for _ in range(RANDOM_STRINGS)
    ]


def golden_inputs():
    """(family, name, source) of every input, in a fixed order."""
    inputs = [("corpus", p.name, p.source()) for p in CORPUS]
    inputs += [("generated", f"gen-{seed}", generate_source(seed)) for seed in SEEDS]
    inputs += [
        ("random", f"str-{number}", text)
        for number, text in enumerate(random_strings())
    ]
    return inputs


def observe(source: str) -> str:
    """The token-stream digest of ``source``, or the error lexing raised."""
    try:
        tokens = tokenize(source)
    except Exception as exc:  # the old lexer could raise ValueError too
        return f"{type(exc).__name__}: {exc}"
    stream = [
        [t.kind.name, t.text, t.location.line, t.location.column, t.value]
        for t in tokens
    ]
    return hashlib.sha256(json.dumps(stream).encode()).hexdigest()


def non_decimal_digit(source: str) -> bool:
    return any(ch.isdigit() and not ch.isdecimal() for ch in source)


def render(observations) -> str:
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in observations.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


INPUTS = golden_inputs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def observed():
    return {name: observe(source) for _, name, source in INPUTS}


@pytest.mark.parametrize("family", ["corpus", "generated", "random"])
def test_replay_matches_golden(golden, observed, family):
    differing = [
        (name, source, golden[name], observed[name])
        for member, name, source in INPUTS
        if member == family
        and observed[name] != golden[name]
        and not (
            non_decimal_digit(source) and observed[name].startswith("LexError: ")
        )
    ]
    assert differing == []


def test_non_decimal_digits_now_raise_lex_error(golden, observed):
    """The one allowed difference occurs in the inputs, every time as a
    ``LexError`` where the old lexer raised ``ValueError``."""
    changed = [
        (golden[name], observed[name])
        for name in golden
        if observed[name] != golden[name]
    ]
    assert changed
    assert any(old.startswith("ValueError: ") for old, _ in changed)
    assert all(new.startswith("LexError: ") for _, new in changed)


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(name for _, name, _ in INPUTS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render({name: observe(src) for _, name, src in INPUTS}))
    print(f"wrote {GOLDEN_PATH}")
