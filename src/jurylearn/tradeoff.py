"""Quantitative trade-offs between group size and learning rate.

Two exact rational quantities organize everything here, both derived from
the slope of the majority-probability curve at p = 1/2:

* ``critical_group_rate(n)``: the learning rate at which n voters splitting
  a time budget match a unit-rate single voter at small times,
  ``2^(n-1) / C(n-1, (n-1)/2)`` (grows like sqrt(n*pi/2)).
* ``expert_threshold(n)``: the rate above which one expert beats n
  unit-rate voters under a common deadline, equal to the slope itself
  (grows like sqrt(2n/pi)).

Their product is exactly n.  ``fixed_budget_compare`` reads its group column
off ``profiles.competence_curve``.  The cost analysis inverts the majority
curve by bisection (guaranteed convergence on a monotone function), then the
learning profile in closed form; ``cost_curve`` sweeps it over group sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import _checks
from .errors import DomainError, UnattainableTargetError
from .profiles import LearningProfile, LinearProfile, competence_curve
from .votemath import _tail_of, derivative_at_half

__all__ = [
    "critical_group_rate",
    "expert_threshold",
    "AsymptoticCheck",
    "asymptotic_rate_check",
    "fixed_budget_compare",
    "initial_slope",
    "CostResult",
    "cost_to_reach",
    "cost_curve",
]


def critical_group_rate(n: int) -> Fraction:
    """Exact rational rate from which n voters can beat a unit-rate voter: n / expert_threshold(n)."""
    n = _checks.count(n, "group size", odd=True)
    return n / derivative_at_half(n)


def expert_threshold(n: int) -> Fraction:
    """Exact rational rate from which one expert beats n unit-rate voters."""
    return derivative_at_half(n)


class AsymptoticCheck(NamedTuple):
    exact: Fraction
    asymptote: float
    relative_gap: float


def asymptotic_rate_check(n: int, kind: str = "expert") -> AsymptoticCheck:
    """Compare the exact rational rate (kept as ``exact``) against its large-n asymptote.

    ``kind`` selects ``expert`` (asymptote sqrt(2n/pi); the gap is positive
    and shrinks monotonically) or ``critical`` (asymptote sqrt(n*pi/2); the
    exact value sits below the asymptote, so the gap is negative).
    """
    n = _checks.count(n, "group size", odd=True)
    if kind == "expert":
        exact, asymptote = expert_threshold(n), math.sqrt(2.0 * n / math.pi)
    elif kind == "critical":
        exact, asymptote = critical_group_rate(n), math.sqrt(n * math.pi / 2.0)
    else:
        raise DomainError(f"kind must be 'expert' or 'critical', got {kind!r}")
    return AsymptoticCheck(exact, asymptote, float(exact) / asymptote - 1.0)


def fixed_budget_compare(
    c_single: float,
    c_group: float,
    n: int,
    t_grid: Sequence[float],
) -> list[tuple[float, float, float]]:
    """(T, P_single, P_group) rows for one voter with the whole budget vs n sharing it.

    The single voter learns linearly at ``c_single`` for the full time T;
    each of the n group members learns at ``c_group`` for T/n.
    """
    n = _checks.count(n, "group size", minimum=3, odd=True)
    single = LinearProfile(c_single)
    group = competence_curve(LinearProfile(c_group), n, t_grid)
    return [(t, single.evaluate(t), p_group) for t, p_group in group]


def initial_slope(n: int, c: float) -> float:
    """d/dT of ``group_competence`` at T = 0 for a linear profile of rate c.

    Each voter's clock runs at 1/n of the total time, so its rate is c/n.
    Under a common deadline the slope is ``c * expert_threshold(n)``.
    """
    n = _checks.count(n, "group size", odd=True)
    c = _checks.positive(c, "learning rate")
    return c / n * float(derivative_at_half(n))


class CostResult(NamedTuple):
    t_star: float
    cost: float


def _invert_majority(tail: Callable[[float], float], target: float) -> float:
    # Bisection on p in [1/2, 1] of one group size's tail; the majority
    # probability is strictly increasing there, so convergence is guaranteed.
    lo, hi = 0.5, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if tail(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cost_to_reach(n: int, target: float, profile: LearningProfile) -> CostResult:
    """Per-voter time t* at which n voters learning along ``profile`` reach
    group competence ``target``, and the total cost n*t*."""
    n = _checks.count(n, "group size", odd=True)
    p = _checks.number(target, "target competence")
    if not 0.5 < p < 1.0:
        raise DomainError(
            f"target competence must lie strictly between 1/2 and 1, got {_checks.shown(target)}"
        )
    tail = _tail_of(n)
    reachable = tail(profile.sup_competence)
    if p > reachable + 1e-12:
        raise UnattainableTargetError(
            f"group of {n} tops out at competence {reachable:.6g} "
            f"under this profile; {p} is unreachable"
        )
    p_star = min(_invert_majority(tail, p), profile.sup_competence)
    t_star = profile.time_to_reach(p_star)
    return CostResult(t_star, _checks.non_negative(n * t_star, "cost"))


def cost_curve(
    p_star: float,
    n_list: Sequence[int],
    profile_for: Callable[[int], LearningProfile],
) -> list[tuple[int, float]]:
    """(n, cost) rows: the cost of reaching group competence ``p_star`` for each n.

    ``profile_for`` maps a group size to its members' learning profile, so one
    call sweeps a fixed profile (``lambda n: profile``) as well as per-n rate
    schedules such as ``lambda n: LinearProfile(float(critical_group_rate(n)))``.
    """
    rows = []
    for n in n_list:
        n = _checks.count(n, "group size", odd=True)
        rows.append((n, cost_to_reach(n, p_star, profile_for(n)).cost))
    return rows
