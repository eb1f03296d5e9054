"""Domain checks and the text grammar shared by the public entry points.

Each check returns its value as ``int``, ``float``, an enum member or
(``competences``, the jury check) tuples of plain floats, or raises
DomainError; nan, +-inf and integers too large for a float (read as +-inf,
like their text) fail every float test below.  No check needs numpy, so a
command that never folds or samples starts without importing it.  The
numeric checks take text as well as numbers (``count("3.0")`` is 3), and
text that is not a number fails like any other out-of-domain value, so
parsers hand field text straight to the constructors that check it.
``items`` and ``spec`` split the comma lists and ``kind:key=value,...``
forms of juries, profiles and vote models.
"""

import math
from enum import Enum
from itertools import chain
from typing import Iterable

from .errors import DomainError

# Ceiling on a list a command holds whole: RK4 steps, grid points, an extremal jury.
MAX_HELD = 10**6
# Ceiling on Monte Carlo trials; the sampler's run time grows with trials * voters.
MAX_TRIALS = 10**9


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


def count(value, name: str, *, minimum: int = 1, maximum: float = math.inf, odd: bool = False) -> int:
    """An integer in [``minimum``, ``maximum``] (and odd, when asked); fractions are rejected."""
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
    if value > maximum:
        raise DomainError(f"{name} must be at most {maximum}, got {shown(value)}")
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


def _nested(x) -> bool:
    # numpy's reading of a jury entry: a list, a bytearray or a 1-d array is
    # a row of values; text, a numpy scalar and a 0-d array are one value
    return not isinstance(x, (str, bytes, dict)) and hasattr(x, "__getitem__") and getattr(x, "ndim", 1) != 0


def competences(rows: Iterable[Iterable], name: str) -> list[tuple[float, ...]]:
    """Juries as rows of competences in [0, 1], each a tuple of plain floats.

    A row given as text (``"11"`` is not the jury (1, 1)), an entry that is
    itself a row, an entry that is not a number, uneven rows, a jury of no
    voters and any value outside [0, 1] raise DomainError; every entry is
    read before any is range-checked, and a value is reported as the float
    it reads as, so text and numbers get one message.
    """
    uneven = DomainError(f"expected rows of {name} values, all of one length")
    try:
        rows = list(rows)
        if any(issubclass(kind, (str, bytes)) for kind in set(map(type, rows))):
            raise TypeError
        rows = [tuple(row) for row in rows]
    except TypeError:  # a text, a bare number or no sequence of rows at all
        raise uneven from None
    entries = list(chain.from_iterable(rows))
    odd = set(map(type, entries)) - {float, int, str}  # the kinds that might hold a row
    try:
        if odd and any(_nested(x) for x in entries if type(x) in odd):
            raise TypeError  # the read below names whichever bad entry comes first
        values = list(map(float, entries))  # one pass in C
    except (TypeError, ValueError, OverflowError):  # read entry by entry to say why
        values = []
        for x in entries:
            if _nested(x):
                raise uneven from None
            values.append(number(x, name))
    if len(set(map(len, rows))) != 1:
        raise uneven
    n = len(rows[0])
    if n == 0:
        raise DomainError("a jury needs at least one voter")
    # nan passes min and max unseen, but not the sum
    if not (0.0 <= min(values) and max(values) <= 1.0 and not math.isnan(sum(values))):
        x = next(x for x in values if not 0.0 <= x <= 1.0)  # nan fails both tests
        raise DomainError(f"{name} must lie in [0.0, 1.0], got {x!r}")
    return list(zip(*[iter(values)] * n))  # n values to a row


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
