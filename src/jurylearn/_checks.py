"""Domain checks and the text grammar shared by the public entry points.

Each check returns its value as ``int``, ``float`` or an enum member, or
raises DomainError; nan and +-inf fail every numeric test below.  The
numeric checks take text as well as numbers (``count("3.0")`` is 3), and
text that is not a number fails like any other out-of-domain value, so
parsers hand field text straight to the constructors that check it.
``spec`` splits the one ``kind:key=value,...`` form used by profiles and
vote models.
"""

import math
from enum import Enum
from typing import Iterable

from .errors import DomainError


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None


def count(value, name: str, *, minimum: int = 1, odd: bool = False) -> int:
    """An integer >= ``minimum`` (and odd, when asked); fractions are rejected."""
    if not isinstance(value, int):
        x = _number(value, name)
        if not x.is_integer():
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = int(x)
    if value < minimum or (odd and value % 2 == 0):
        kind = "an odd integer" if odd else "an integer"
        raise DomainError(f"{name} must be {kind} >= {minimum}, got {value!r}")
    return value


def within(value, name: str, lo: float = 0.0, hi: float = 1.0) -> float:
    """A float in the closed interval [lo, hi]."""
    x = _number(value, name)
    if not lo <= x <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return x


def positive(value, name: str) -> float:
    """A finite float > 0."""
    x = _number(value, name)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return x


def non_negative(value, name: str) -> float:
    """A finite float >= 0."""
    x = _number(value, name)
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


def spec(text: str, what: str, kinds: dict[str, tuple[str, ...]]) -> tuple[str, dict[str, str]]:
    """Split ``kind:key=value,...`` into its kind and the text of each field.

    ``kinds`` maps every known kind to its fields, all of them required.  A
    bare value extends the key before it, so ``probs=0.6,0.7`` is one field
    holding ``0.6,0.7``.  An unknown kind, an unknown, missing or repeated
    field, and a value with no key before it raise DomainError.
    """
    kind, _, body = str(text).strip().partition(":")
    if kind not in kinds:
        raise DomainError(f"unknown {what} kind {kind!r} (expected {'/'.join(kinds)})")
    fields: dict[str, str] = {}
    key = None
    for item in body.split(",") if body else []:
        name, eq, value = item.partition("=")
        if not eq:
            if key is None:
                raise DomainError(f"malformed {what} field {item!r} in {text!r}")
            fields[key] += "," + item
            continue
        key = name.strip()
        if key not in kinds[kind]:
            raise DomainError(f"{what} kind {kind!r} takes fields {kinds[kind]}, got {key!r}")
        if key in fields:
            raise DomainError(f"{what} field {key!r} given twice in {text!r}")
        fields[key] = value
    missing = [key for key in kinds[kind] if key not in fields]
    if missing:
        raise DomainError(f"{what} {text!r} is missing field {missing[0]!r}")
    return kind, fields
