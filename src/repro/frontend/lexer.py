"""Lexer for MiniJ source text: one compiled regular expression.

Each match of ``_SCANNER`` is one token: the trivia before it
(whitespace, ``//`` and ``/* */`` comments) and then exactly one named
group, ``word`` (an identifier, keyword or operator), ``number``,
``end`` (the end of the input), or one of the error groups: ``open`` (a
``/*`` that no ``*/`` closes), ``badnum`` (digits running into another
word character) and ``error`` (any other character). Lines and columns
come from the offsets of the source's newlines.

A number is a run of decimal digits (``str.isdecimal``, so ``٣`` counts
and ``²`` does not); an identifier starts with a letter (``str.isalpha``)
or ``_`` and continues with letters, digits or ``_`` (``str.isalnum``).
"""

from __future__ import annotations

import re
from bisect import bisect
from typing import List

from repro.errors import LexError, SourceLocation
from repro.frontend.tokens import KEYWORDS, Token, TokenKind

_SCANNER = re.compile(
    r"""
    (?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*
    (?:
        (?P<open>/\*)
      | (?P<word>[^\W\d]\w*|[<>=!]=|&&|\|\||[-(){}\[\],:;=+*/%<>!])
      | (?P<badnum>\d+[^\W\d])
      | (?P<number>\d+)
      | (?P<end>\Z)
      | (?P<error>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_NEWLINE = re.compile("\n")

#: Keywords and operators by spelling (an operator kind's value is its
#: spelling); any other word is an identifier.
_FIXED_WORDS = dict(KEYWORDS)
_FIXED_WORDS.update((k.value, k) for k in TokenKind if not k.value[0].isalpha())


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list terminated by EOF."""
    tokens: List[Token] = []
    append = tokens.append
    fixed = _FIXED_WORDS.get
    ident = TokenKind.IDENT
    # newlines[n - 1] is the offset just before line n's first character.
    newlines = [-1]
    newlines += [match.start() for match in _NEWLINE.finditer(source)]
    for match in _SCANNER.finditer(source):
        group = match.lastgroup
        start = match.start(group)
        line = bisect(newlines, start)
        location = SourceLocation(line, start - newlines[line - 1])
        if group == "word":
            text = match.group(group)
            kind = fixed(text)
            if kind is None:
                # ``[^\W\d]`` also admits numerals such as ``²`` and ``½``.
                first = text[0]
                if not (first.isalpha() or first == "_"):
                    raise LexError(f"unexpected character {first!r}", location)
                kind = ident
            append(Token(kind, text, location))
        elif group == "number":
            text = match.group(group)
            append(Token(TokenKind.INT_LITERAL, text, location, int(text)))
        elif group == "end":
            append(Token(TokenKind.EOF, "", location))
            break  # after trailing trivia ``\Z`` would match once more
        elif group == "badnum":
            text = match.group(group)
            digits, after = text[:-1], text[-1]
            if after.isalpha() or after == "_":
                raise LexError(
                    f"identifier may not start with a digit: {digits}{after!r}",
                    location,
                )
            # A digit or numeral that is not decimal, such as ``²``.
            after_location = SourceLocation(line, location.column + len(digits))
            raise LexError(f"unexpected character {after!r}", after_location)
        elif group == "open":
            raise LexError("unterminated block comment", location)
        else:
            raise LexError(f"unexpected character {match.group(group)!r}", location)
    return tokens
