"""Time-dependent individual competence and its effect on group competence.

A learning profile maps deliberation time t to an individual competence
p(t), starting from the coin-flip level 1/2 and never decreasing.  Three
closed-form families are supported so that profiles stay serializable and
invertible:

* linear   p(t) = min(1/2 + c*t, 1)        (saturates at t = 1/(2c))
* power    p(t) = min(1/2 + t^alpha, 1)
* plateau  p(t) = min(1/2 + a*t, cap)      (competence capped below 1)

Profiles serialize to a compact text form, e.g. ``linear:c=1.0``,
``power:alpha=0.55``, ``plateau:a=1.0,cap=0.6667``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from . import _checks
from .errors import DomainError, UnattainableTargetError
from .votemath import MajorityRule, _check_tie_rule, _tail_of, majority_prob_homogeneous

__all__ = [
    "LinearProfile",
    "PowerProfile",
    "PlateauProfile",
    "LearningProfile",
    "group_competence",
    "competence_curve",
    "uniform_grid",
    "parse_profile",
    "format_profile",
]


@dataclass(frozen=True)
class LinearProfile:
    """p(t) = min(1/2 + rate*t, 1)."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _checks.positive(self.rate, "learning rate"))

    @property
    def sup_competence(self) -> float:
        return 1.0

    def evaluate(self, t: float) -> float:
        return min(0.5 + self.rate * _checks.non_negative(t, "time"), 1.0)

    def time_to_reach(self, target: float) -> float:
        """Smallest t with p(t) = target, for target in [1/2, 1]."""
        target = _checks.within(target, "target competence", 0.5, 1.0)
        return (target - 0.5) / self.rate


@dataclass(frozen=True)
class PowerProfile:
    """p(t) = min(1/2 + t**exponent, 1); concave for exponent < 1, convex above."""

    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "exponent", _checks.positive(self.exponent, "exponent"))

    @property
    def sup_competence(self) -> float:
        return 1.0

    def evaluate(self, t: float) -> float:
        t = _checks.non_negative(t, "time")
        # t >= 1 gives t**exponent >= 1, so p = 1 without the power (which can overflow)
        return 1.0 if t >= 1.0 else min(0.5 + t**self.exponent, 1.0)

    def time_to_reach(self, target: float) -> float:
        target = _checks.within(target, "target competence", 0.5, 1.0)
        return (target - 0.5) ** (1.0 / self.exponent)


@dataclass(frozen=True)
class PlateauProfile:
    """p(t) = min(1/2 + rate*t, cap) with cap in [1/2, 1]."""

    rate: float
    cap: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _checks.positive(self.rate, "learning rate"))
        object.__setattr__(self, "cap", _checks.within(self.cap, "cap", 0.5, 1.0))

    @property
    def sup_competence(self) -> float:
        return self.cap

    def evaluate(self, t: float) -> float:
        return min(0.5 + self.rate * _checks.non_negative(t, "time"), self.cap)

    def time_to_reach(self, target: float) -> float:
        target = _checks.within(target, "target competence", 0.5, 1.0)
        if target > self.cap:
            raise UnattainableTargetError(
                f"profile is capped at {self.cap}, cannot reach {target}"
            )
        return (target - 0.5) / self.rate


LearningProfile = Union[LinearProfile, PowerProfile, PlateauProfile]


def group_competence(profile: LearningProfile, n: int, total: float) -> float:
    """Majority probability of n voters on ``profile``, each given ``total / n`` of study time.

    A common deadline, where every voter studies the whole ``total``, is
    ``majority_prob_homogeneous(n, profile.evaluate(total))``.
    """
    n = _checks.count(n, "group size")
    total = _checks.non_negative(total, "total time")
    return majority_prob_homogeneous(n, profile.evaluate(total / n))


def competence_curve(
    profile: LearningProfile, n: int, t_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """``group_competence`` along an ascending grid of total times."""
    grid = _checks.time_grid(t_grid)
    n = _checks.count(n, "group size")
    if not grid:
        return []
    _check_tie_rule(n, MajorityRule.FAIL)
    tail = _tail_of(n)
    return [(t, tail(profile.evaluate(t / n))) for t in grid]


# Ceiling on uniform_grid's points (the grid is held whole), the same as dynamics.MAX_STEPS.
MAX_POINTS = 10**6


def uniform_grid(t_max: float, points: int) -> list[float]:
    """``points`` (2 to ``MAX_POINTS``) equally spaced values from 0 to ``t_max``, both ends included."""
    t_max = _checks.non_negative(t_max, "t_max")
    points = _checks.count(points, "points", minimum=2, maximum=MAX_POINTS)
    return [t_max * i / (points - 1) for i in range(points)]


_PROFILE_FIELDS = {"linear": ("c",), "power": ("alpha",), "plateau": ("a", "cap")}


def format_profile(profile: LearningProfile) -> str:
    if isinstance(profile, LinearProfile):
        return f"linear:c={profile.rate!r}"
    if isinstance(profile, PowerProfile):
        return f"power:alpha={profile.exponent!r}"
    if isinstance(profile, PlateauProfile):
        return f"plateau:a={profile.rate!r},cap={profile.cap!r}"
    raise DomainError(f"unknown profile type {type(profile).__name__}")


def parse_profile(spec: str) -> LearningProfile:
    """Parse ``linear:c=...``, ``power:alpha=...`` or ``plateau:a=...,cap=...``.

    The grammar is ``_checks.spec``'s; each class checks its own values.
    """
    kind, fields = _checks.spec(spec, "profile", _PROFILE_FIELDS)
    if kind == "linear":
        return LinearProfile(rate=fields["c"])
    if kind == "power":
        return PowerProfile(exponent=fields["alpha"])
    return PlateauProfile(rate=fields["a"], cap=fields["cap"])
