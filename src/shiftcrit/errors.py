"""Exception types shared across the package."""
from __future__ import annotations

import reprlib


class ShiftCritError(Exception):
    """Base class for package-specific errors."""


class InvalidParameterError(ShiftCritError, ValueError):
    """An argument is refused: of the wrong kind, or outside its documented range."""


def require_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """value, if it is a plain int with lo <= value (<= hi unless hi is None).

    A count, size or index is an int and nothing else: bool, float, str
    and other objects with __index__ are refused, so True never counts
    as 1.  Otherwise raises InvalidParameterError naming the argument.
    """
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        bounds = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise InvalidParameterError(f"need an integer {bounds}, got {reprlib.repr(value)}")
    return value


class InvalidVertexError(ShiftCritError, ValueError):
    """A vertex is malformed or not present in the graph at hand."""


class SequenceLengthError(ShiftCritError, ValueError):
    """A subset sequence is too short for the vertex set it must serve."""


class GoodnessError(ShiftCritError, ValueError):
    """A sequence violates the non-containment condition.

    Carries the lexicographically least violating pair (i, j), meaning
    entry i is a subset of entry j even though (i, j) is a constrained
    vertex.
    """

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        i, j = pair
        super().__init__(f"entry {i} is contained in entry {j} but ({i},{j}) is constrained")


class ImproperColoringError(ShiftCritError, ValueError):
    """A coloring gives two adjacent vertices the same color.

    Carries one witnessing edge (u, w).
    """

    def __init__(self, edge):
        self.edge = edge
        u, w = edge
        super().__init__(f"adjacent vertices {tuple(u)} and {tuple(w)} share a color")


class ConstructionError(ShiftCritError, RuntimeError):
    """Internal verification of a constructed certificate failed.

    This indicates a bug, not bad input: the constructions that raise it
    are proven to succeed for every valid argument.
    """
