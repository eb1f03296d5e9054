"""Independent references for every benchmark op.

Nothing here imports jurylearn.  Two kinds of reference are used:

* Numeric answers (majority, cost, tradeoff, rates, bounds, ...) are checked
  against high-precision values: mpmath for binomial tails, cost roots and
  exponentials, and exact integer arithmetic on the dyadic inputs for the
  Poisson-binomial distribution (each fold step truncates below 2**-160, so
  the reference is good to far beyond any tolerance used here).  The
  tolerances are the ones the package documents or its tests use.
* Outputs promised to be byte-reproducible (``figure``, ``simulate`` and
  ``correlate``) are compared by SHA-256.  Figure digests are recorded in
  ``references.json``.  ``simulate`` and ``correlate`` take seeded inputs,
  so their expected bytes come from small reimplementations of the
  documented algorithms (fixed-step RK4 with clipping; chunked sampling
  with ``default_rng([seed mod 2**63, chunk])``), which
  ``references.json`` pins to the program's own digests for the default
  seed.  Correlate estimates are also checked against the exact
  probability, within six standard errors.

``expect(op)`` returns a JSON-serialisable reference for one op and
``check`` compares the program's stdout with it.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np

from workloads import ladha_cov

_SCALE_BITS = 160
_DPS = 40
_CHUNK = 1 << 16  # documented sampler chunk size

# Tolerances: the acceptance suite's oracle tolerance for exact majority
# math, the homogeneous tail's documented relative error, and the cost
# tolerance of the tradeoff tests.
MAJORITY_ABS = 1e-12
HOMOG_REL = 1e-12
COST_ABS = 1e-9
BOUND_REL = 1e-12


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- exact majority math -------------------------------------------------------


def _exact_pmf(probs) -> list[int]:
    # Distribution of the correct-vote count in fixed point, scaled by
    # 2**_SCALE_BITS.  Every float p is num / 2**shift exactly, so each fold
    # step is exact integer arithmetic up to the final shift.
    mass = [1 << _SCALE_BITS]
    for p in probs:
        num, den = float(p).as_integer_ratio()
        shift = den.bit_length() - 1
        rest = den - num
        mass = [(a * rest + b * num) >> shift for a, b in zip(mass + [0], [0] + mass)]
    return mass


def majority_exact(probs, fair_coin: bool) -> float:
    """Pr(correct majority) for independent voters; ties count half when fair_coin."""
    n = len(probs)
    mass = _exact_pmf(probs)
    win = Fraction(sum(mass[n // 2 + 1 :]))
    if n % 2 == 0 and fair_coin:
        win += Fraction(mass[n // 2], 2)
    return float(win / (1 << _SCALE_BITS))


def _tail(n: int, p, fair_coin: bool):
    with mpmath.workdps(_DPS):
        p = mpmath.mpf(p)
        k = n // 2 + 1
        value = mpmath.betainc(k, n - k + 1, 0, p, regularized=True)
        if n % 2 == 0 and fair_coin:
            value += mpmath.binomial(n, n // 2) * (p * (1 - p)) ** (n // 2) / 2
        return value


def homog_exact(n: int, p: float, fair_coin: bool) -> float:
    return float(_tail(n, p, fair_coin))


def _cost(n: int, target: float, profile: dict) -> float:
    with mpmath.workdps(_DPS):
        p = mpmath.findroot(
            lambda x: _tail(n, x, False) - target, (mpmath.mpf(0.5), mpmath.mpf(1)), solver="illinois"
        )
        gain = p - mpmath.mpf(0.5)
        kind = profile["kind"]
        if kind == "linear":
            t = gain / profile["c"]
        elif kind == "power":
            t = gain ** (1 / mpmath.mpf(profile["alpha"]))
        else:
            t = gain / profile["a"]
        return float(n * t)


def _rates(kind: str, n_max: int) -> list[list]:
    rows = []
    for n in range(1, n_max + 1, 2):
        half = math.comb(n - 1, (n - 1) // 2)
        if kind == "critical":
            exact = Fraction(2 ** (n - 1), half)
            asymptote = mpmath.sqrt(n * mpmath.pi / 2)
        else:
            exact = Fraction(n * half, 2 ** (n - 1))
            asymptote = mpmath.sqrt(2 * n / mpmath.pi)
        rows.append([n, str(exact), float(exact), float(asymptote)])
    return rows


def _concentration(n: int, pbar: float) -> float:
    with mpmath.workdps(_DPS):
        d = n * (mpmath.mpf(pbar) - mpmath.mpf(0.5))
        return float(2 * mpmath.exp(-(d * d) / n))


def _ladha(probs: list[float], cov: list[list[float]]) -> float:
    n = len(probs)
    d = n * (Fraction(math.fsum(probs)) / n - Fraction(1, 2))
    sigma2 = Fraction(math.fsum(x for row in cov for x in row))
    return float(d * d / (sigma2 + d * d))


def _majorizes(a: list[float], b: list[float]) -> bool:
    pa = pb = Fraction(0)
    for x, y in zip(sorted(a, reverse=True), sorted(b, reverse=True)):
        pa += Fraction(x)
        pb += Fraction(y)
        if pa < pb:
            return False
    return True


# -- reimplementations of the byte-reproducible paths --------------------------


def _float_majority_odd(state) -> float:
    # the float convolution DP and odd-n tail, operation for operation
    mass = [1.0]
    for p in state:
        q = 1.0 - p
        new = [0.0] * (len(mass) + 1)
        for k, m in enumerate(mass):
            if m != 0.0:
                new[k] += m * q
                new[k + 1] += m * p
        mass = new
    fail = math.fsum(mass[: (len(state) + 1) // 2])
    return min(max(1.0 - fail, 0.0), 1.0)


def simulate_csv(cfg: dict) -> str:
    """Trajectory CSV of a windowed scenario with an odd number of voters."""
    n, h, window = cfg["n"], cfg["step"], cfg["window"]
    gain = cfg["multiplier"] * cfg["kappa"]

    def field(state: np.ndarray) -> np.ndarray:
        d = np.empty_like(state)
        d[0] = gain * (1.0 - state[0])
        for i in range(1, n):
            d[i] = state[np.abs(state - state[i]) <= window].mean() - state[i]
        return d

    y = np.asarray(cfg["initial"], dtype=float)
    rows = [(0.0,) + tuple(float(x) for x in y)]
    for k in range(int(round(cfg["t_end"] / h))):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = np.clip(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0, 1.0)
        rows.append(((k + 1) * h,) + tuple(float(x) for x in y))
    header = ",".join(["t"] + [f"p{i}" for i in range(1, n + 1)] + ["P_group"])
    lines = [header] + [",".join(repr(x) for x in row + (_float_majority_odd(row[1:]),)) for row in rows]
    return "\n".join(lines) + "\n"


def _count_correct(model: dict, m: int, rng: np.random.Generator) -> int:
    kind = model["kind"]
    if kind == "independent":
        probs = np.asarray(model["probs"])
        n = len(probs)
        total = (rng.random((m, n)) < probs).sum(axis=1)
    elif kind == "commoncoin":
        n = model["n"]
        copied = rng.random(m) < model["mix"]
        common = rng.random(m) < model["p"]
        votes = rng.random((m, n)) < model["p"]
        total = np.where(copied, n * common.astype(np.int64), votes.sum(axis=1))
    else:
        n = model["n"]
        total = np.full(m, (n + 1) // 2, dtype=np.int64)
    correct = total * 2 > n
    if n % 2 == 0:
        correct = correct | ((total * 2 == n) & (rng.random(m) < 0.5))
    return int(np.count_nonzero(correct))


def correlate_csv(model: dict, trials: int, seed: int) -> str:
    base = seed % (1 << 63)
    hits = 0
    for chunk, start in enumerate(range(0, trials, _CHUNK)):
        hits += _count_correct(model, min(_CHUNK, trials - start), np.random.default_rng([base, chunk]))
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return f"estimate,stderr\n{estimate!r},{stderr!r}\n"


def _model_exact(model: dict) -> float:
    kind = model["kind"]
    if kind == "independent":
        return majority_exact(model["probs"], fair_coin=True)
    if kind == "commoncoin":
        mix = model["mix"]
        return mix * model["p"] + (1 - mix) * homog_exact(model["n"], model["p"], fair_coin=True)
    return 1.0


# -- expectations and checks ---------------------------------------------------


def expect(op: dict, figure_digests: dict[str, str]):
    """Reference for one op (see the module docstring)."""
    kind, p = op["kind"], op["params"]
    if kind == "figure":
        return {"sha256": figure_digests[str(p["id"])]}
    if kind == "simulate":
        return {"sha256": sha256(simulate_csv(p["config"]))}
    if kind == "correlate":
        return {"sha256": sha256(correlate_csv(p["model"], p["trials"], p["seed"])), "exact": _model_exact(p["model"])}
    if kind == "majority_hetero":
        return majority_exact(p["probs"], p["fair_coin"])
    if kind == "majority_homog":
        return homog_exact(p["n"], p["p"], p["fair_coin"])
    if kind == "cost":
        return [_cost(n, p["target"], p["profile"]) for n in p["ns"]]
    if kind == "tradeoff":
        n, last = p["n"], p["points"] - 1
        times = [p["t_max"] * i / last for i in range(p["points"])]
        return [[t, min(0.5 + p["c1"] * t, 1.0), homog_exact(n, min(0.5 + p["cg"] * (t / n), 1.0), False)] for t in times]
    if kind == "rates":
        return _rates(p["kind"], p["n_max"])
    if kind == "extremal":
        return None  # checked structurally against (n, pbar)
    if kind == "majorize":
        return _majorizes(p["a"], p["b"])
    if kind == "concentration":
        return _concentration(p["n"], p["pbar"])
    if kind == "ladha":
        return _ladha(p["probs"], ladha_cov(p["probs"], p["mix"]))
    raise ValueError(f"no reference for op kind {kind!r}")


def _close(value: float, ref: float, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
    return abs(value - ref) <= max(abs_tol, rel_tol * abs(ref))


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_extremal(p: dict, text: str) -> str | None:
    values = [float(x) for x in text.strip().split(",")]
    n, pbar = p["n"], p["pbar"]
    if len(values) != n or any(not 0.0 <= x <= 1.0 for x in values):
        return f"expected {n} competences in [0, 1]"
    if values != sorted(values, reverse=True) or sum(0.0 < x < 1.0 for x in values) > 1:
        return "expected certain voters, at most one fractional voter, then zeros"
    if not _close(math.fsum(values), n * pbar, abs_tol=1e-9):
        return f"mean {math.fsum(values) / n!r} differs from {pbar!r}"
    return None


def check(op: dict, expected, text: str | None, digest: str) -> str | None:
    """Error message when an op's output (``text``, or only its digest when
    the output is large) disagrees with ``expected``, else None."""
    kind, p = op["kind"], op["params"]
    if kind in ("figure", "simulate", "correlate"):
        if digest != expected["sha256"]:
            return "output digest differs from the reference"
        if kind == "correlate":
            estimate = float(text.splitlines()[1].split(",")[0])
            exact, trials = expected["exact"], p["trials"]
            if abs(estimate - exact) > 6.0 * math.sqrt(exact * (1.0 - exact) / trials) + 1e-12:
                return f"estimate {estimate!r} is more than 6 standard errors from {exact!r}"
        return None
    if kind == "majority_hetero":
        ok = _close(float(text), expected, abs_tol=MAJORITY_ABS)
    elif kind == "majority_homog":
        ok = _close(float(text), expected, rel_tol=HOMOG_REL)
    elif kind == "cost":
        header, rows = _table(text)
        ok = header == ["n", "cost"] and [int(r[0]) for r in rows] == p["ns"] and all(
            _close(float(r[1]), ref, abs_tol=COST_ABS) for r, ref in zip(rows, expected)
        )
    elif kind == "tradeoff":
        header, rows = _table(text)
        ok = header == ["T", "P_single", "P_group"] and len(rows) == len(expected) and all(
            _close(float(r[0]), t, abs_tol=1e-15)
            and _close(float(r[1]), single, abs_tol=1e-15)
            and _close(float(r[2]), group, rel_tol=HOMOG_REL)
            for r, (t, single, group) in zip(rows, expected)
        )
    elif kind == "rates":
        header, rows = _table(text)
        ok = header == ["n", "exact", "value", "asymptote"] and len(rows) == len(expected) and all(
            int(r[0]) == n and r[1] == exact and _close(float(r[2]), value, rel_tol=1e-15)
            and _close(float(r[3]), asymptote, rel_tol=1e-15)
            for r, (n, exact, value, asymptote) in zip(rows, expected)
        )
    elif kind == "extremal":
        return _check_extremal(p, text)
    elif kind == "majorize":
        ok = text == ("true\n" if expected else "false\n")
    else:  # concentration, ladha
        ok = _close(float(text), expected, rel_tol=BOUND_REL)
    return None if ok else f"answer outside tolerance of the reference {expected!r}"
