"""Token definitions for the MiniJ language.

MiniJ is the small Java-like source language this reproduction uses as a
stand-in for Java bytecode: it has ``int``/``bool`` scalars, ``int[]``
arrays, functions with recursion, and structured control flow.  Array
accesses compile to explicit bounds-check instructions in the IR, which is
what the ABCD algorithm consumes.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import SourceLocation


class TokenKind(enum.Enum):
    """All lexical token kinds of MiniJ."""

    # Literals and identifiers.
    INT_LITERAL = "int_literal"
    IDENT = "ident"

    # Keywords.
    KW_FN = "fn"
    KW_LET = "let"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_INT = "int"
    KW_BOOL = "bool"
    KW_VOID = "void"
    KW_NEW = "new"
    KW_LEN = "len"

    # Punctuation and operators.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    COLON = ":"
    SEMICOLON = ";"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "eof"


#: Reserved words mapped to their token kinds.
KEYWORDS = {
    "fn": TokenKind.KW_FN,
    "let": TokenKind.KW_LET,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "for": TokenKind.KW_FOR,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "int": TokenKind.KW_INT,
    "bool": TokenKind.KW_BOOL,
    "void": TokenKind.KW_VOID,
    "new": TokenKind.KW_NEW,
    "len": TokenKind.KW_LEN,
}


class Token(NamedTuple):
    """A single lexical token.

    ``text`` is the exact source spelling; ``value`` is the parsed integer
    for :data:`TokenKind.INT_LITERAL` tokens and ``None`` otherwise.  A
    named tuple because the lexer builds one per token, at about half the
    cost of a frozen dataclass.
    """

    kind: TokenKind
    text: str
    location: SourceLocation
    value: "int | None" = None

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r}@{self.location})"
