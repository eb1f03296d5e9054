"""Domain checks and the text grammar shared by the public entry points.

Each check returns its value as ``int``, ``float``, an enum member or
(``competences``, the jury check) a numpy matrix, or raises DomainError;
nan, +-inf and integers too large for a float (read as +-inf, like their
text) fail every float test below.  The numeric checks take text as well
as numbers (``count("3.0")`` is 3), and text that is not a number fails
like any other out-of-domain value, so parsers hand field text straight to
the constructors that check it.  ``items`` and ``spec`` split the comma
lists and ``kind:key=value,...`` forms of juries, profiles and vote models.
"""

import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError


def number(value, name: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an int too large for a float, like float("1e400")
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None


def shown(value) -> str:
    """``repr(value)`` for a message; an int beyond float range shows as the +-inf it reads as."""
    if isinstance(value, int) and math.isinf(x := number(value, "")):
        return repr(x)
    return repr(value)


def count(value, name: str, *, minimum: int = 1, odd: bool = False) -> int:
    """An integer >= ``minimum`` (and odd, when asked); fractions are rejected."""
    if isinstance(value, str):
        try:
            value = int(value)  # exact at any size; "3.0" goes on to the float path
        except ValueError:
            pass
    if not isinstance(value, int):
        x = number(value, name)
        if not x.is_integer():
            raise DomainError(f"{name} must be an integer, got {shown(value)}")
        value = int(x)
    if value < minimum or (odd and value % 2 == 0):
        kind = "an odd integer" if odd else "an integer"
        raise DomainError(f"{name} must be {kind} >= {minimum}, got {shown(value)}")
    return value


def within(value, name: str, lo: float = 0.0, hi: float = 1.0) -> float:
    """A float in the closed interval [lo, hi]."""
    x = number(value, name)
    if not lo <= x <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {shown(value)}")
    return x


def positive(value, name: str) -> float:
    """A finite float > 0."""
    x = number(value, name)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {shown(value)}")
    return x


def non_negative(value, name: str) -> float:
    """A finite float >= 0."""
    x = number(value, name)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be non-negative and finite, got {shown(value)}")
    return x


def competences(rows: Sequence[Sequence], name: str) -> np.ndarray:
    """Juries as rows of competences in [0, 1], as one float matrix.

    An entry that is not a number, uneven rows, a row given as text (``"11"``
    is not the jury (1, 1)), a jury of no voters and any value outside
    [0, 1] raise DomainError; a value is reported as the float it reads as,
    so text and numbers get one message.
    """
    try:
        matrix = np.array(rows, dtype=float)  # a text row reads as one number, so ndim < 2
    except (TypeError, ValueError, OverflowError):  # read entry by entry to say why
        try:
            rows = [[number(x, name) for x in (None if isinstance(row, str) else row)] for row in rows]
        except TypeError:  # a bare number or a text among the rows
            rows = []
        matrix = np.array(rows) if len(set(map(len, rows))) == 1 else np.empty(0)
    if matrix.ndim != 2:
        raise DomainError(f"expected rows of {name} values, all of one length")
    if matrix.shape[1] == 0:
        raise DomainError("a jury needs at least one voter")
    outside = ~((matrix >= 0.0) & (matrix <= 1.0))  # nan fails both tests
    if outside.any():
        i, j = np.argwhere(outside)[0]
        x = number(rows[i][j], name)  # numpy reads None as nan; it is not a number
        raise DomainError(f"{name} must lie in [0.0, 1.0], got {x!r}")
    return matrix


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


def items(text: str) -> list[str]:
    """The comma-separated items of ``text``; empty text has none."""
    return text.split(",") if text else []


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
    for item in items(body):
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
