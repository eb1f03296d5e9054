"""Minimal write-only CSV tables.

``render_row`` renders every line.  A cell is an int in decimal, a float in
shortest round-trip form (Python's repr), a rational as
``numerator/denominator``, a boolean as ``true``/``false`` and text (a
header) as itself; plain ``int``, ``float`` and ``Fraction`` read each
numeric cell back as exactly the value written.  Separator is always ``,``
and the decimal point ``.`` regardless of locale.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError

__all__ = ["Cell", "CsvTable", "render_row"]

Cell = int | float | Fraction | bool | str


def _render_cell(cell: Cell) -> str:
    if type(cell) is float:  # most cells; subclasses take the branch below
        return repr(cell)
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return repr(float(cell))  # normalizes float subclasses (numpy scalars)
    if isinstance(cell, (int, Fraction)):
        try:
            return str(int(cell)) if isinstance(cell, int) else str(cell)
        except ValueError:  # more digits than Python converts to text
            raise DomainError(
                f"cell value exceeds the {sys.get_int_max_str_digits()}-digit limit "
                "for integer string conversion"
            ) from None
    text = str(cell)
    if "," in text or "\n" in text:
        raise DomainError(f"cell value {text!r} would break the CSV layout")
    return text


def render_row(cells: Iterable[Cell]) -> str:
    """One CSV line, newline included; a text cell holding ``,`` or a newline is refused."""
    return ",".join(map(_render_cell, cells)) + "\n"


@dataclass(frozen=True)
class CsvTable:
    header: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __init__(self, header: Iterable[str], rows: Iterable[Iterable[Cell]]):
        head = tuple(str(h) for h in header)
        body = tuple(tuple(row) for row in rows)
        for row in body:
            if len(row) != len(head):
                raise DomainError(
                    f"ragged table: row of length {len(row)} under {len(head)} columns"
                )
        object.__setattr__(self, "header", head)
        object.__setattr__(self, "rows", body)

    def render(self) -> str:
        return "".join(map(render_row, (self.header, *self.rows)))
