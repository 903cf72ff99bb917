"""The MiniJ type system: ``int``, ``bool``, ``int[]``, and ``void``.

Types are singletons compared by identity; use :data:`INT`, :data:`BOOL`,
:data:`INT_ARRAY`, and :data:`VOID`.
"""

from __future__ import annotations


class Type:
    """A MiniJ type.  Instances are interned singletons."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Type({self.name})"

    def __str__(self) -> str:
        return self.name


INT = Type("int")
BOOL = Type("bool")
INT_ARRAY = Type("int[]")
VOID = Type("void")

#: All nameable types, keyed by surface syntax.
NAMED_TYPES = {
    "int": INT,
    "bool": BOOL,
    "int[]": INT_ARRAY,
    "void": VOID,
}
