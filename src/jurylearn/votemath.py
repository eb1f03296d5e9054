"""Exact majority-vote probabilities for independent juries.

Voter i casts a correct vote with probability ``p_i``, independently of the
others.  The group decision is correct when more than half the votes are
correct; for even group sizes a tie rule must be chosen explicitly.  The
heterogeneous case is the Poisson binomial distribution, evaluated here by an
O(n^2) convolution DP, exact up to float rounding for juries of up to a few
thousand voters.  It folds a whole batch of juries at once in numpy, so a
trajectory of group states costs one call; numpy is imported by the fold on
its first call, and nothing else here needs it.  Each public function checks
its arguments once, reading a jury (any sequence of competences) into tuples
of plain floats.  The library's own loops call the unchecked fold on checked
values, and build the unchecked homogeneous tail once per group size (its
exact binomials, as floats) and then evaluate it at each checked p, so every
float is the same as a checked call's.

All values are immutable after construction and every function is pure, so
everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Sequence

from . import _checks
from .errors import TieRuleRequiredError

__all__ = [
    "CompetenceVector",
    "MajorityRule",
    "vote_distribution",
    "majority_prob_homogeneous",
    "majority_prob_heterogeneous",
    "derivative_at_half",
    "hoeffding_extremal",
    "majorizes",
    "concentration_failure_bound",
]


class MajorityRule(Enum):
    """How to resolve a tied vote (only possible for even group sizes).

    FAIR_COIN credits half the tie probability to the correct outcome;
    FAIL refuses to evaluate even-sized groups at all.  For odd sizes the
    rule is never consulted.
    """

    FAIR_COIN = "fair-coin"
    FAIL = "fail"


@dataclass(frozen=True)
class CompetenceVector:
    """Per-voter competences ``(p_1, ..., p_n)``, n >= 1; no function returns or stores
    one, and it is kept only because the benchmark tracer names it."""

    probs: tuple[float, ...]

    def __init__(self, probs: Iterable[float]):
        object.__setattr__(self, "probs", _checks.competences([probs], "competence")[0])

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self) -> Iterator[float]:
        return iter(self.probs)

    def mean(self) -> float:
        """Average competence, exactly rounded."""
        return math.fsum(self.probs) / len(self.probs)


def _pmf(rows: Sequence[Sequence[float]]):
    # Convolution DP over a (juries, voters) array, one Bernoulli factor per
    # voter column, folded into every jury at once: cell k becomes
    # m[k]*q + m[k-1]*p, the same two products and one addition per cell as
    # a scalar fold, so every mass is the same float.  Exact zeros/ones stay
    # exact because their branch multiplies by 0.0.  Counts run along the
    # first axis, so each count's juries are contiguous.
    import numpy as np  # only the fold vectorizes; the rest of the package starts without it

    # one flat pass: twice as fast as np.asarray on a list of tuples
    rows = np.fromiter(chain.from_iterable(rows), float).reshape(len(rows), -1)
    juries, voters = rows.shape
    mass = np.zeros((voters + 1, juries))
    mass[0] = 1.0
    up = np.empty_like(mass)
    for j, (p, q) in enumerate(zip(rows.T, 1.0 - rows.T)):
        head = mass[: j + 1]
        np.multiply(head, p, out=up[: j + 1])
        head *= q
        mass[1 : j + 2] += up[: j + 1]
    return mass.T


def vote_distribution(p: Iterable[float]) -> tuple[float, ...]:
    """Exact distribution of the correct-vote count: ``mass[k] = Pr(Z_n = k)``."""
    return tuple(_pmf(_checks.competences([p], "competence"))[0].tolist())


def _check_tie_rule(n: int, rule: MajorityRule) -> None:
    rule = _checks.member(rule, MajorityRule, "tie rule")
    if n % 2 == 0 and rule is MajorityRule.FAIL:
        raise TieRuleRequiredError(
            f"group size {n} is even; choose a tie rule such as FAIR_COIN"
        )


def _tail_from_mass(mass: Sequence[float], n: int) -> float:
    # A small tail is the winning side's own sum, to full relative precision;
    # from 1/4 up it is 1 minus the failure mass, so that juries containing
    # a guaranteed majority of certain voters evaluate to exactly 1.0.
    half = n // 2
    tie = 0.5 * mass[half] if n % 2 == 0 else 0.0
    win = math.fsum(mass[half + 1 :]) + tie
    if win < 0.25:
        return win
    fail = math.fsum(mass[: (n + 1) // 2]) + tie
    return max(1.0 - fail, 0.0)


def majority_prob_homogeneous(
    n: int, p: float, rule: MajorityRule = MajorityRule.FAIL
) -> float:
    """Probability that n independent voters of equal competence p decide correctly.

    Sums the binomial upper tail directly: the relative error stays at the
    accumulated-rounding level (<= 1e-12 for n <= 201) even for tiny tails;
    from n = 1031 (1030 with FAIR_COIN) its float binomials raise OverflowError.
    """
    n = _checks.count(n, "group size")
    p = _checks.within(p, "competence")
    _check_tie_rule(n, rule)
    return _tail_of(n)(p)


def _tail_of(n: int) -> Callable[[float], float]:
    # The binomial tail of a checked size, as a function of a checked competence;
    # an even n scores a tie as FAIR_COIN.  The exact recurrence runs once, and
    # C(n, k), k and n - k are kept as the floats that ``c * p**k * q**(n - k)``
    # converts them to, so every term is the same float.  The largest binomial is
    # converted first: from n = 1030 the build raises OverflowError.
    h = n // 2
    c = math.comb(n, h)  # the tie binomial for even n; the rest follow exactly
    middle = float(c) if n % 2 == 0 else 0.0
    terms = []
    for k in range(h + 1, n + 1):
        c = c * (n - k + 1) // k  # C(n, k) from C(n, k-1), exactly
        terms.append((float(c), float(k), float(n - k)))

    def tail(p: float) -> float:
        q = 1.0 - p
        tie = 0.5 * middle * p**h * q**h if n % 2 == 0 else 0.0
        return min(math.fsum([c * p**k * q**j for c, k, j in terms]) + tie, 1.0)

    return tail


def majority_prob_heterogeneous(
    p: Iterable[float], rule: MajorityRule = MajorityRule.FAIL
) -> float:
    """Probability of a correct majority decision for individual competences p.

    Agrees with :func:`majority_prob_homogeneous` when all entries are equal
    and with exhaustive enumeration over the 2^n vote patterns.
    """
    rows = _checks.competences([p], "competence")
    _check_tie_rule(len(rows[0]), rule)
    return _majority_rows(rows)[0]


def _majority_rows(rows: Sequence[Sequence[float]]) -> list[float]:
    # The fold and tail of checked rows of equal length; an even n scores a tie as FAIR_COIN.
    n = len(rows[0])
    return [_tail_from_mass(mass, n) for mass in _pmf(rows).tolist()]


def derivative_at_half(n: int) -> Fraction:
    """Exact slope of p -> majority probability at p = 1/2, for odd n.

    Equals ``n * C(n-1, (n-1)/2) / 2^(n-1)``; grows like sqrt(2n/pi).
    """
    n = _checks.count(n, "group size", odd=True)
    return Fraction(n * math.comb(n - 1, (n - 1) // 2), 2 ** (n - 1))


def hoeffding_extremal(n: int, pbar: float) -> tuple[float, ...]:
    """Jury of mean competence pbar built from certain voters plus one fractional one.

    Hoeffding's extremal composition, as a tuple of n plain floats: floor(pbar*n)
    voters at 1.0, one holding the remainder in [0, 1), the rest at 0.0.
    Whenever the certain voters already form a majority (pbar >= ceil(n/2)/n)
    this jury decides correctly with probability exactly 1; below that mean
    the composition is generally not optimal.
    """
    n = _checks.count(n, "group size")
    pbar = _checks.within(pbar, "mean competence")
    total = pbar * n
    ones = min(int(math.floor(total)), n)
    frac = max(total - ones, 0.0)
    probs = (1.0,) * ones
    if ones < n:
        probs += (frac,) + (0.0,) * (n - ones - 1)
    return probs


def majorizes(a: Iterable[float], b: Iterable[float]) -> bool:
    """True when every sorted prefix sum of ``a`` dominates that of ``b``.

    Both juries, of one size, are sorted in non-increasing order first; total
    sums may differ (the comparison at j = n is an inequality like the others).
    """
    rows = _checks.competences([a, b], "competence")
    prefix_a, prefix_b = (accumulate(sorted(row, reverse=True)) for row in rows)
    return all(x >= y for x, y in zip(prefix_a, prefix_b))


def concentration_failure_bound(n: int, pbar: float) -> float:
    """Upper bound 2*exp(-d^2/n), d = n*(pbar - 1/2), on the chance of a wrong majority.

    This is the conservative exponent t^2/n; the standard Hoeffding
    inequality sharpens it to 2t^2/n, so this bound is valid but loose.
    For pbar = 1/2 + w/sqrt(n) it equals 2*exp(-w^2).
    """
    size = _checks.positive(_checks.count(n, "group size"), "group size")  # the float n reads as
    pbar = _checks.within(pbar, "mean competence", 0.5, 1.0)
    d = size * (pbar - 0.5)
    return 2.0 * math.exp(-(d * d) / size)
