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
  voters votes correctly, so the majority is always correct; the vote
  count is constant, so sigma^2 = 0, and the float bound is 1 to within
  2e-12 (its least value over odd n <= 2001 is 1 - 1.6e-12).

Sampling is deterministic for a fixed seed: trials are split into fixed
chunks of 65536 and chunk c draws from ``default_rng([seed mod 2^63, c])``.
The chunks are evaluated on one thread pool per process, with a worker for
each CPU the process may run on; numpy's draws, compares and sums release
the interpreter lock, so the workers run in parallel.  Each chunk's hit
count is an exact integer and their sum does not depend on the order the
chunks finish in, so the estimate is the same for every pool size.  The
workers share a budget of 2^18 votes held at once: each draws its chunk in
blocks of at most 2^18 / workers votes (whole rows of the trials-by-voters
matrix, or pieces of one row when a row is longer).
"""

from __future__ import annotations

import collections
import functools
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Union

from . import _checks
from .errors import DomainError, InfeasibleCovarianceError

if TYPE_CHECKING:  # numpy is imported by the functions that use it, on their first call
    import numpy as np

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
_BLOCK = 1 << 20  # the largest CommonCoin jury; a quarter of it is the pool's vote budget
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _pool():
    # imported on first use: concurrent.futures (and the logging it loads)
    # would add about 10 ms to every start of the command line
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="jurylearn-sampler")


os.register_at_fork(after_in_child=_pool.cache_clear)  # a forked child has none of the threads


@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """First and second moments of the vote indicators.

    The diagonal must equal p_i*(1 - p_i) and every off-diagonal entry must
    respect the Frechet bounds for a pair of Bernoulli variables; violations
    raise immediately.  Pairwise feasibility does not guarantee a joint
    distribution exists, so the total variance is checked again when the
    bound is evaluated.
    """

    p: tuple[float, ...]
    cov: np.ndarray = field(repr=False)

    def __init__(self, p: Iterable[float], cov: np.ndarray):
        import numpy as np

        object.__setattr__(self, "p", _checks.competences([p], "competence")[0])
        try:
            matrix = np.array(cov, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise DomainError("covariance entries must be finite numbers, every row of one length") from None
        n = len(self.p)
        if matrix.shape != (n, n):
            raise DomainError(f"covariance must be {n}x{n}, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise DomainError("covariance entries must be finite")
        if not np.array_equal(matrix, matrix.T):
            raise DomainError("covariance matrix must be symmetric")
        probs = np.asarray(self.p)
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
        object.__setattr__(self, "cov", matrix)


@dataclass(frozen=True)
class Independent:
    p: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", _checks.competences([self.p], "competence")[0])


@dataclass(frozen=True)
class CommonCoin:
    n: int
    p: float
    mix: float

    def __post_init__(self):
        object.__setattr__(self, "n", _checks.count(self.n, "number of voters", maximum=_BLOCK))
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
        p, pair = model.p, 0.0
    elif isinstance(model, CommonCoin):
        p, pair = [model.p] * model.n, model.mix * (model.p * (1.0 - model.p))
    elif isinstance(model, ExactMajoritySet):
        n, k = model.n, (model.n + 1) // 2
        p = [k / n] * n
        # E[X_i X_j] - p^2 = k(k-1)/(n(n-1)) - (k/n)^2 (hypergeometric), taken as one
        # correctly rounded int division: that difference of floats cancels, and from
        # n = 179 its sigma^2 falls below ladha_bound's -1e-12
        pair = -k * (n - k) / (n * n * (n - 1)) if n > 1 else 0.0
    else:
        raise DomainError(f"unknown vote model {type(model).__name__}")
    import numpy as np

    probs = np.asarray(p)
    cov = np.full((len(probs), len(probs)), pair)
    np.fill_diagonal(cov, probs * (1.0 - probs))
    return CovarianceSpec(p, cov)


def ladha_bound(spec: CovarianceSpec) -> float:
    """Moment-only lower bound d^2/(sigma^2 + d^2) on the correct-majority probability."""
    import numpy as np

    n = len(spec.p)
    pbar = math.fsum(spec.p) / n
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
    # Blocks of whole rows, or pieces of one row when a row is longer than
    # this worker's share of the vote budget, consume the same stream as one
    # (m, n) draw.
    import numpy as np

    budget = max(1, _BLOCK // (4 * _WORKERS))
    rows, cols = max(1, budget // n), min(n, budget)
    probs = np.broadcast_to(probs, n)

    def block(i: int, j: int) -> np.ndarray:
        return (rng.random((min(rows, m - i), min(cols, n - j))) < probs[j : j + cols]).sum(axis=1)

    return np.concatenate([sum(block(i, j) for j in range(0, n, cols)) for i in range(0, m, rows)])


def _count_correct(model: CorrelatedVoteModel, m: int, rng: np.random.Generator) -> int:
    import numpy as np

    if isinstance(model, Independent):
        n = len(model.p)
        total = _vote_totals(rng, m, n, np.asarray(model.p))
    elif isinstance(model, CommonCoin):
        n = model.n
        copied = rng.random(m) < model.mix
        common = rng.random(m) < model.p
        total = np.where(copied, n * common.astype(np.int64), _vote_totals(rng, m, n, model.p))
    else:
        # every assignment sets exactly ceil(n/2) of the odd n votes correct
        return m
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
    import numpy as np

    trials = _checks.count(trials, "trials", maximum=_checks.MAX_TRIALS)
    base = _checks.count(seed, "seed", minimum=-math.inf) % (1 << 63)
    pending: collections.deque = collections.deque()  # at most two chunks per worker in flight
    hits = 0
    for start in range(0, trials, _CHUNK):
        if len(pending) == 2 * _WORKERS:
            hits += pending.popleft().result()
        rng = np.random.default_rng([base, start // _CHUNK])
        pending.append(_pool().submit(_count_correct, model, min(_CHUNK, trials - start), rng))
    hits += sum(future.result() for future in pending)
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
        return Independent(_checks.items(fields["probs"]))
    if kind == "commoncoin":
        return CommonCoin(n=fields["n"], p=fields["p"], mix=fields["lambda"])
    return ExactMajoritySet(n=fields["n"])
