"""MiniJ frontend: lexer, parser, AST, and type checker.

The frontend is the source-language substrate of the reproduction.  MiniJ
stands in for the Java programs of the original evaluation: a strongly
typed language whose array accesses require bounds checks.
"""

from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse_source
from repro.frontend.semantic import SemanticInfo, TypeChecker, check_program
from repro.frontend.types import BOOL, INT, INT_ARRAY, VOID, Type

__all__ = [
    "tokenize",
    "Parser",
    "parse_source",
    "SemanticInfo",
    "TypeChecker",
    "check_program",
    "Type",
    "INT",
    "BOOL",
    "INT_ARRAY",
    "VOID",
]
