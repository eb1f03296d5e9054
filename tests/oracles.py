"""Independent reference computations used to check the library.

The enumeration oracle walks all 2^n vote patterns explicitly and never
touches the library's convolution DP; the exact-rational oracles evaluate
the homogeneous tail and the per-voter tail in Fraction arithmetic.
``scalar_pmf`` is the convolution DP as a plain Python loop, one jury at a
time, against which the library's numpy fold must agree bit for bit.
``numpy_field`` and ``numpy_rk4_states`` are the competence dynamics over
numpy arrays, whose means use numpy's pairwise summation instead of the
library's left-to-right float sums.
``frechet_first_violation`` is the pairwise Frechet check as a plain loop
over the upper triangle, in row-major order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4)
def _pattern_columns(n: int) -> tuple[np.ndarray, ...]:
    # one uint8 column per voter over all 2^n outcomes; columns keep peak
    # memory linear in 2^n instead of 2^n * n * 8 bytes
    index = np.arange(2**n)
    return tuple(((index >> j) & 1).astype(np.uint8) for j in range(n))


def _outcome_weights(probs) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=float)
    n = p.size
    columns = _pattern_columns(n)
    weights = np.ones(2**n)
    total = np.zeros(2**n, dtype=np.int64)
    for j in range(n):
        col = columns[j]
        weights *= np.where(col == 1, p[j], 1.0 - p[j])
        total += col
    return weights, total


def enumerate_majority_prob(probs, fair_coin: bool = False) -> float:
    """Exhaustive Pr(correct majority) over all 2^n outcomes."""
    n = len(probs)
    weights, total = _outcome_weights(probs)
    result = float(weights[total * 2 > n].sum())
    if n % 2 == 0 and fair_coin:
        result += 0.5 * float(weights[total * 2 == n].sum())
    return result


def enumerate_distribution(probs) -> list[float]:
    """Exhaustive pmf of the correct-vote count."""
    n = len(probs)
    weights, total = _outcome_weights(probs)
    return list(np.bincount(total, weights=weights, minlength=n + 1))


def exact_homogeneous_tail(n: int, p: Fraction) -> Fraction:
    """Binomial upper tail Pr(Z > n/2) in exact rational arithmetic (odd n)."""
    assert n % 2 == 1
    q = 1 - p
    return sum(
        math.comb(n, k) * p**k * q ** (n - k)
        for k in range((n + 1) // 2, n + 1)
    )


def exact_majority_prob(probs, fair_coin: bool = False) -> Fraction:
    """Pr(correct majority) for per-voter competences, in exact rationals.

    A voter is wrong with probability ``1.0 - p`` rounded to a float, as in
    the library, so a comparison measures the DP's rounding alone: rounding
    that complement moves the tail of 301 voters at 0.3 by 1.2e-14 relative.
    Every float is an integer over a power of two, so the DP runs on integer
    numerators over one common denominator.
    """
    pairs = [(Fraction(p), Fraction(1.0 - p)) for p in map(float, probs)]
    denom = max(f.denominator for pair in pairs for f in pair)
    mass = [1]
    for p, q in pairs:
        a = p.numerator * (denom // p.denominator)
        b = q.numerator * (denom // q.denominator)
        mass = [x * b + y * a for x, y in zip(mass + [0], [0] + mass)]
    n = len(pairs)
    result = Fraction(sum(mass[n // 2 + 1 :]), denom**n)
    if n % 2 == 0 and fair_coin:
        result += Fraction(mass[n // 2], 2 * denom**n)
    return result


def scalar_pmf(probs) -> list[float]:
    """Pmf of the correct-vote count by the convolution DP, one voter at a time."""
    # Convolution DP: fold one Bernoulli factor in per iteration.  Exact
    # zeros/ones stay exact because their branch multiplies by 0.0.
    mass = [1.0]
    for p in probs:
        q = 1.0 - p
        new = [0.0] * (len(mass) + 1)
        for k, m in enumerate(mass):
            if m != 0.0:
                new[k] += m * q
                new[k + 1] += m * p
        mass = new
    return mass


def sample_many_with_mean(
    rng: np.random.Generator, m: int, n: int, target: float
) -> np.ndarray:
    """(m, n) matrix of random competence vectors, each with the given mean.

    Raising a uniform vector to a power t moves its mean continuously from
    1 (t -> 0) to 0 (t -> inf), so per-row bisection on t lands any target
    mean; 100 halvings leave a mean error around 1e-14.
    """
    u = np.clip(rng.uniform(0.0, 1.0, (m, n)), 1e-9, 1.0 - 1e-9)
    lo = np.zeros(m)
    hi = np.full(m, 80.0)
    for _ in range(100):
        t = 0.5 * (lo + hi)
        high = (u ** t[:, None]).mean(axis=1) > target
        lo = np.where(high, t, lo)
        hi = np.where(high, hi, t)
    return u ** (0.5 * (lo + hi))[:, None]


def sample_with_mean(rng: np.random.Generator, n: int, target: float) -> np.ndarray:
    """Single random competence vector with the given mean."""
    return sample_many_with_mean(rng, 1, n, target)[0]


def numpy_field(config, state: np.ndarray) -> np.ndarray:
    """Competence derivatives at ``state`` (a float array of length config.n)."""
    d = np.empty_like(state)
    d[0] = config.leader_multiplier * config.leader_gain * (1.0 - state[0])
    if config.window is None:
        mu = state.mean()
        d[1:] = mu - state[1:]
    else:
        for i in range(1, config.n):
            nearby = state[np.abs(state - state[i]) <= config.window]
            d[i] = nearby.mean() - state[i]
    return d


def numpy_rk4_states(config) -> tuple[list[tuple[float, ...]], int]:
    """Fixed-step RK4 states from t = 0, clipped to [0, 1] after each step,
    and the number of components the clipping moved."""
    h = config.step
    y = np.asarray(config.initial, dtype=float)
    states = [tuple(float(x) for x in y)]
    clamps = 0
    for _ in range(int(round(config.t_end / h))):
        k1 = numpy_field(config, y)
        k2 = numpy_field(config, y + 0.5 * h * k1)
        k3 = numpy_field(config, y + 0.5 * h * k2)
        k4 = numpy_field(config, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        clamps += int(np.count_nonzero((y < 0.0) | (y > 1.0)))
        y = np.clip(y, 0.0, 1.0)
        states.append(tuple(float(x) for x in y))
    return states, clamps


def frechet_first_violation(probs: np.ndarray, matrix: np.ndarray):
    """First ``(i, j, cov, lo, hi)`` outside the Frechet bounds with slack 1e-12, or None."""
    n = len(probs)
    for i in range(n):
        for j in range(i + 1, n):
            lo = -min(probs[i] * probs[j], (1 - probs[i]) * (1 - probs[j]))
            hi = min(probs[i] * (1 - probs[j]), probs[j] * (1 - probs[i]))
            if not (lo - 1e-12 <= matrix[i, j] <= hi + 1e-12):
                return i, j, matrix[i, j], lo, hi
    return None
