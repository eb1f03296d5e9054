"""Domain checks shared by the public entry points.

Each returns its value as ``int``, ``float`` or an enum member, or raises
DomainError; nan and +-inf fail every numeric test below.
"""

import math
from enum import Enum
from typing import Iterable

from .errors import DomainError


def count(value, name: str, *, minimum: int = 1, odd: bool = False) -> int:
    """An integer >= ``minimum`` (and odd, when asked); fractions are rejected."""
    if not isinstance(value, int):
        x = float(value)
        if not x.is_integer():
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = int(x)
    if value < minimum or (odd and value % 2 == 0):
        kind = "an odd integer" if odd else "an integer"
        raise DomainError(f"{name} must be {kind} >= {minimum}, got {value!r}")
    return value


def within(value, name: str, lo: float = 0.0, hi: float = 1.0) -> float:
    """A float in the closed interval [lo, hi]."""
    x = float(value)
    if not lo <= x <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return x


def positive(value, name: str) -> float:
    """A finite float > 0."""
    x = float(value)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return x


def non_negative(value, name: str) -> float:
    """A finite float >= 0."""
    x = float(value)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be non-negative and finite, got {value!r}")
    return x


def time_grid(values: Iterable[float]) -> list[float]:
    """Non-negative finite times in ascending order, as floats."""
    grid = [non_negative(t, "time grid entry") for t in values]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise DomainError("time grid must be sorted ascending")
    return grid


def member(value, enum_cls: type[Enum], name: str) -> Enum:
    """A member of ``enum_cls``, given as the member itself or as its value."""
    try:
        return enum_cls(value)
    except ValueError:
        raise DomainError(f"{name} must be one of {[m.value for m in enum_cls]}, got {value!r}") from None
