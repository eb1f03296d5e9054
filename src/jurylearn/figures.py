"""Deterministic data series behind the standard plots, as CSV tables.

Each figure id maps to one table:

1. majority probability P(n, p) for n = 1, 3, 5, 7, 91 over p in [1/2, 1]
2. fixed budget, single voter (rate 1) vs three voters at rates 1 and 2
3. same comparison at group rates 2.25 and 3
4. cost of reaching group competence 0.8 vs group size, for rate rules
   1 (sub-critical), the critical rate, and twice the critical rate
5. concave (power 0.55) and convex (power 2) group profiles vs a linear
   single voter, individual and group competences
6. plateau profile (rate 1, cap 2/3) for one and three voters
7. global mean-drift scenario ``drift3``: individual paths and group curve
8. the three windowed scenarios side by side (consensus, low start,
   fast leader)

All grids are uniform with 512 points unless the table is a trajectory,
which is emitted at full integration resolution.
"""

from __future__ import annotations

from . import _checks
from .csvio import CsvTable
from .dynamics import integrate, load_scenario, trajectory_table
from .errors import DomainError
from .profiles import LearningProfile, LinearProfile, PlateauProfile, PowerProfile
from .profiles import competence_curve, uniform_grid
from .tradeoff import cost_curve, critical_group_rate, fixed_budget_compare
from .votemath import _tail_of

__all__ = ["FIGURE_IDS", "figure_table"]

GRID_POINTS = 512


def _figure_probability_curves() -> CsvTable:
    sizes = (1, 3, 5, 7, 91)
    header = ("p",) + tuple(f"P_{n}" for n in sizes)
    tails = [_tail_of(n) for n in sizes]
    rows = []
    for x in uniform_grid(0.5, GRID_POINTS):
        p = 0.5 + x
        rows.append((p,) + tuple(tail(p) for tail in tails))
    return CsvTable(header, rows)


def _fixed_budget_table(group_rates: tuple[float, ...], t_max: float) -> CsvTable:
    grid = uniform_grid(t_max, GRID_POINTS)
    sweeps = [fixed_budget_compare(1.0, c, 3, grid) for c in group_rates]
    header = ("T", "P1") + tuple(f"P3_c{c}" for c in group_rates)
    rows = [row[0][:2] + tuple(r[2] for r in row) for row in zip(*sweeps)]
    return CsvTable(header, rows)


def _figure_cost_regimes() -> CsvTable:
    ns = list(range(1, 43, 2))
    sweeps = {
        "cost_rate1": lambda n: LinearProfile(1.0),
        "cost_critical": lambda n: LinearProfile(float(critical_group_rate(n))),
        "cost_2x_critical": lambda n: LinearProfile(2.0 * float(critical_group_rate(n))),
    }
    columns = {name: dict(cost_curve(0.8, ns, profile_for)) for name, profile_for in sweeps.items()}
    header = ("n",) + tuple(sweeps)
    rows = [(n,) + tuple(columns[name][n] for name in sweeps) for n in ns]
    return CsvTable(header, rows)


def _profile_table(single: LearningProfile, groups: dict[str, LearningProfile], t_max: float) -> CsvTable:
    """T, P1 for one voter on ``single``, then p3<suffix>, P3<suffix> for three sharing T."""
    grid = uniform_grid(t_max, GRID_POINTS)
    header = ["T", "P1"]
    columns = [[single.evaluate(t) for t in grid]]
    for suffix, profile in groups.items():
        header += [f"p3{suffix}", f"P3{suffix}"]
        columns.append([profile.evaluate(t / 3) for t in grid])
        columns.append([p for _, p in competence_curve(profile, 3, grid)])
    return CsvTable(tuple(header), list(zip(grid, *columns)))


def _figure_mean_drift() -> CsvTable:
    return trajectory_table(integrate(load_scenario("drift3")))


def _figure_windowed() -> CsvTable:
    tags = ("consensus", "lowstart", "fastleader")
    tables = [trajectory_table(integrate(load_scenario(f"window4-{tag}"))) for tag in tags]
    header = tables[0].header[:1] + tuple(
        f"{tag}_{column}" for tag, table in zip(tags, tables) for column in table.header[1:]
    )
    rows = zip(*(table.rows for table in tables), strict=True)
    return CsvTable(header, (row[0][:1] + tuple(cell for r in row for cell in r[1:]) for row in rows))


_PLATEAU = PlateauProfile(rate=1.0, cap=2.0 / 3.0)

_BUILDERS = {
    1: _figure_probability_curves,
    2: lambda: _fixed_budget_table((1.0, 2.0), t_max=1.6),
    3: lambda: _fixed_budget_table((2.25, 3.0), t_max=1.0),
    4: _figure_cost_regimes,
    5: lambda: _profile_table(
        LinearProfile(1.0), {"_concave": PowerProfile(0.55), "_convex": PowerProfile(2.0)}, t_max=1.2
    ),
    6: lambda: _profile_table(_PLATEAU, {"": _PLATEAU}, t_max=1.0),
    7: _figure_mean_drift,
    8: _figure_windowed,
}

FIGURE_IDS = tuple(sorted(_BUILDERS))


def figure_table(fig_id: int) -> CsvTable:
    """Build the data series for one figure id (see module docstring)."""
    try:
        builder = _BUILDERS[_checks.count(fig_id, "figure id")]
    except (KeyError, ValueError):
        raise DomainError(f"figure id must be one of {FIGURE_IDS}, got {_checks.shown(fig_id)}") from None
    return builder()
