"""Correlated voters: a moment-based lower bound and samplers to probe it.

The bound needs only means and pairwise covariances of the vote indicators:
with d = n*(pbar - 1/2) and sigma^2 the variance of the vote count, a
correct majority has probability at least d^2 / (sigma^2 + d^2) (a
Cantelli-type one-sided argument, valid for any dependence structure).
Negative correlations shrink sigma^2 and so improve the bound; positive
ones damage it.

Two tractable generative models feed the bound with closed-form moments:

* ``CommonCoin``: with probability ``mix`` every voter copies one common
  Bernoulli(p) draw, otherwise all vote independently with bias p.  Its
  pairwise covariance is mix * p * (1 - p).
* ``ExactMajoritySet``: a uniformly random subset of exactly ceil(n/2)
  voters votes correctly, so the majority is always correct even though
  the pairwise bound degrades to 0 as n grows.

Sampling is deterministic for a fixed seed: trials are split into fixed
chunks of 65536 and chunk c draws from ``default_rng([seed mod 2^63, c])``,
so chunks may be evaluated concurrently and merged without changing the
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from . import _checks
from .errors import DomainError, InfeasibleCovarianceError
from .votemath import CompetenceVector

__all__ = [
    "CovarianceSpec",
    "Independent",
    "CommonCoin",
    "ExactMajoritySet",
    "CorrelatedVoteModel",
    "model_moments",
    "ladha_bound",
    "SampleResult",
    "sample_majority_rate",
    "parse_model",
]

_CHUNK = 1 << 16
_BLOCK = 1 << 20  # votes drawn at once; also the largest CommonCoin jury


@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """First and second moments of the vote indicators.

    The diagonal must equal p_i*(1 - p_i) and every off-diagonal entry must
    respect the Frechet bounds for a pair of Bernoulli variables; violations
    raise immediately.  Pairwise feasibility does not guarantee a joint
    distribution exists, so the total variance is checked again when the
    bound is evaluated.
    """

    p: CompetenceVector
    cov: np.ndarray = field(repr=False)

    def __init__(self, p: CompetenceVector, cov: np.ndarray):
        matrix = np.array(cov, dtype=float)
        n = len(p)
        if matrix.shape != (n, n):
            raise DomainError(f"covariance must be {n}x{n}, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise DomainError("covariance entries must be finite")
        if not np.array_equal(matrix, matrix.T):
            raise DomainError("covariance matrix must be symmetric")
        probs = np.asarray(p.probs)
        if np.max(np.abs(np.diag(matrix) - probs * (1.0 - probs))) > 1e-12:
            raise DomainError("diagonal entries must equal p_i*(1 - p_i)")
        q = 1.0 - probs
        lo = -np.minimum(np.outer(probs, probs), np.outer(q, q))
        hi = np.minimum(np.outer(probs, q), np.outer(q, probs))
        ok = (lo - 1e-12 <= matrix) & (matrix <= hi + 1e-12)
        bad = np.argwhere(np.triu(~ok, 1))
        if len(bad):
            i, j = bad[0]
            raise DomainError(
                f"cov[{i}][{j}] = {float(matrix[i, j])!r} violates the Frechet "
                f"bounds [{float(lo[i, j])!r}, {float(hi[i, j])!r}]"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "cov", matrix)


@dataclass(frozen=True)
class Independent:
    p: CompetenceVector


@dataclass(frozen=True)
class CommonCoin:
    n: int
    p: float
    mix: float

    def __post_init__(self):
        object.__setattr__(self, "n", _checks.count(self.n, "number of voters"))
        _checks.within(self.n, "number of voters", 1, _BLOCK)
        object.__setattr__(self, "p", _checks.within(self.p, "coin bias"))
        object.__setattr__(self, "mix", _checks.within(self.mix, "mixing weight"))


@dataclass(frozen=True)
class ExactMajoritySet:
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _checks.count(self.n, "number of voters", odd=True))


CorrelatedVoteModel = Union[Independent, CommonCoin, ExactMajoritySet]


def model_moments(model: CorrelatedVoteModel) -> CovarianceSpec:
    """Closed-form means and pairwise covariances of a vote model."""
    if isinstance(model, Independent):
        probs = np.asarray(model.p.probs)
        return CovarianceSpec(model.p, np.diag(probs * (1.0 - probs)))
    if isinstance(model, CommonCoin):
        var = model.p * (1.0 - model.p)
        cov = np.full((model.n, model.n), model.mix * var)
        np.fill_diagonal(cov, var)
        return CovarianceSpec(CompetenceVector([model.p] * model.n), cov)
    if isinstance(model, ExactMajoritySet):
        n = model.n
        k = (n + 1) // 2
        p = k / n
        pair = k * (k - 1) / (n * (n - 1)) if n > 1 else 0.0  # E[X_i X_j], hypergeometric
        cov = np.full((n, n), pair - p * p)
        np.fill_diagonal(cov, p * (1.0 - p))
        return CovarianceSpec(CompetenceVector([p] * n), cov)
    raise DomainError(f"unknown vote model {type(model).__name__}")


def ladha_bound(spec: CovarianceSpec) -> float:
    """Moment-only lower bound d^2/(sigma^2 + d^2) on the correct-majority probability."""
    n = len(spec.p)
    pbar = spec.p.mean()
    if pbar <= 0.5:
        raise DomainError(f"bound requires mean competence > 1/2, got {pbar!r}")
    sigma2 = float(np.diag(spec.cov).sum() + 2.0 * np.triu(spec.cov, 1).sum())
    if sigma2 < -1e-12:
        raise InfeasibleCovarianceError(
            f"total vote-count variance is negative ({sigma2!r}); "
            "no joint distribution has these covariances"
        )
    sigma2 = max(sigma2, 0.0)
    d = n * (pbar - 0.5)
    return (d * d) / (sigma2 + d * d)


class SampleResult(NamedTuple):
    estimate: float
    stderr: float


def _vote_totals(rng: np.random.Generator, m: int, n: int, probs) -> np.ndarray:
    # Row blocks consume the same stream as one (m, n) draw while holding at
    # most max(_BLOCK, n) votes in memory.
    rows = max(1, _BLOCK // n)
    return np.concatenate(
        [(rng.random((min(rows, m - i), n)) < probs).sum(axis=1) for i in range(0, m, rows)]
    )


def _count_correct(model: CorrelatedVoteModel, m: int, rng: np.random.Generator) -> int:
    if isinstance(model, Independent):
        probs = np.asarray(model.p.probs)
        n = len(probs)
        total = _vote_totals(rng, m, n, probs)
    elif isinstance(model, CommonCoin):
        n = model.n
        copied = rng.random(m) < model.mix
        common = rng.random(m) < model.p
        total = np.where(copied, n * common.astype(np.int64), _vote_totals(rng, m, n, model.p))
    else:
        # every assignment sets exactly ceil(n/2) votes correct, so the
        # correct count is k regardless of which subset is drawn
        n = model.n
        k = (n + 1) // 2
        total = np.full(m, k, dtype=np.int64)
    correct = total * 2 > n
    if n % 2 == 0:
        ties = total * 2 == n
        flips = rng.random(m) < 0.5
        correct = correct | (ties & flips)
    return int(np.count_nonzero(correct))


def sample_majority_rate(
    model: CorrelatedVoteModel, trials: int, seed: int
) -> SampleResult:
    """Monte Carlo estimate of the correct-majority probability under ``model``.

    Even group sizes resolve ties with a fair coin.  The result is
    bit-identical for identical (model, trials, seed).
    """
    trials = _checks.count(trials, "trials")
    base = _checks.count(seed, "seed", minimum=-math.inf) % (1 << 63)
    hits = 0
    done = 0
    chunk_index = 0
    while done < trials:
        m = min(_CHUNK, trials - done)
        rng = np.random.default_rng([base, chunk_index])
        hits += _count_correct(model, m, rng)
        done += m
        chunk_index += 1
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SampleResult(estimate, stderr)


_MODEL_FIELDS = {"independent": ("probs",), "commoncoin": ("p", "lambda", "n"), "exactmajority": ("n",)}


def parse_model(spec: str) -> CorrelatedVoteModel:
    """Parse a vote-model description.

    Grammar: ``independent:probs=0.6,0.7,0.8``,
    ``commoncoin:p=0.6,lambda=0.5,n=5`` or ``exactmajority:n=5``, read by
    ``_checks.spec``: each kind takes exactly its listed fields, once each,
    and the commas of the probs list extend that key.  The model classes
    check the values.
    """
    kind, fields = _checks.spec(spec, "model", _MODEL_FIELDS)
    if kind == "independent":
        return Independent(CompetenceVector(fields["probs"].split(",")))
    if kind == "commoncoin":
        return CommonCoin(n=fields["n"], p=fields["p"], mix=fields["lambda"])
    return ExactMajoritySet(n=fields["n"])
