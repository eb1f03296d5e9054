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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import _checks
from .errors import DomainError, UnattainableTargetError
from .profiles import LearningProfile, LinearProfile, competence_curve
from .votemath import derivative_at_half, majority_prob_homogeneous

__all__ = [
    "critical_group_rate",
    "expert_threshold",
    "AsymptoticCheck",
    "asymptotic_rate_check",
    "fixed_budget_compare",
    "initial_slope",
    "CostQuery",
    "cost_to_reach",
    "cost_curve",
]


def critical_group_rate(n: int) -> Fraction:
    """Exact rational rate from which a group of n can beat a unit-rate single voter."""
    n = _checks.count(n, "group size", odd=True)
    return Fraction(2 ** (n - 1), math.comb(n - 1, (n - 1) // 2))


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


@dataclass(frozen=True)
class CostQuery:
    """Target group competence for n voters learning along ``profile``."""

    n: int
    target: float
    profile: LearningProfile

    def __post_init__(self):
        object.__setattr__(self, "n", _checks.count(self.n, "group size", odd=True))
        target = _checks._number(self.target, "target competence")
        if not 0.5 < target < 1.0:
            raise DomainError(
                f"target competence must lie strictly between 1/2 and 1, got {self.target!r}"
            )
        object.__setattr__(self, "target", target)


class CostResult(NamedTuple):
    t_star: float
    cost: float


def _invert_majority(n: int, target: float) -> float:
    # Bisection on p in [1/2, 1]; the majority probability is strictly
    # increasing there, so convergence is guaranteed.
    lo, hi = 0.5, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if majority_prob_homogeneous(n, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cost_to_reach(q: CostQuery) -> CostResult:
    """Per-voter time t* with group competence = target, and total cost n*t*."""
    reachable = majority_prob_homogeneous(q.n, q.profile.sup_competence)
    if q.target > reachable + 1e-12:
        raise UnattainableTargetError(
            f"group of {q.n} tops out at competence {reachable:.6g} "
            f"under this profile; {q.target} is unreachable"
        )
    p_star = min(_invert_majority(q.n, q.target), q.profile.sup_competence)
    t_star = q.profile.time_to_reach(p_star)
    return CostResult(t_star, _checks.non_negative(q.n * t_star, "cost"))


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
        q = CostQuery(n=n, target=p_star, profile=profile_for(n))
        rows.append((q.n, cost_to_reach(q).cost))
    return rows
