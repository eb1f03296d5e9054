"""Seeded, stratified op lists for the three benchmark workloads.

Every op is one jurylearn command line plus the parameters the references
need, so no reference has to parse the program's own input files.  Inputs
are stratified: each size band gets a fixed number of ops, and inside a
band the sizes come in pairs placed symmetrically about the band's centre.
A pair's sum, and so the linear work it carries, is the same for every
seed; quadratic work (the Poisson-binomial fold, the Frechet check) moves
only by the squared half-spread.  Sizes of the slow ops sit in narrow
bands (+-2% around a centre), so the op that lands on the tail percentile
has nearly the same cost for every seed.  Values other than sizes
(competences, rates, targets, seeds) are free inside their ranges.

Each workload has an odd number of ops that succeed, and the sizes of the
slow ops are spread apart, so the latency median and the tail percentile
(see run.py) each fall inside the samples of a single op rather than on
the boundary between two.

``scale="tiny"`` builds a few small ops per workload for the self-check.
"""

from __future__ import annotations

import random

WORKLOADS = ("figures", "juries", "sampling")
DEFAULT_SEED = 1

# Homogeneous majority queries at or above this size raise OverflowError at
# the commit that defined the benchmark; a band boundary sits exactly there
# so the failing share is the same for every seed.
OVERFLOW_N = 1031

_SIM_STEPS = 5000  # RK4 steps of the seeded simulate op (t_end / step)


def _pair(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    mid = 0.5 * (lo + hi)
    u = rng.uniform(0.0, 0.5 * (hi - lo))
    return mid - u, mid + u


def _int_pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    a, b = _pair(rng, lo, hi)
    return max(lo, min(hi, round(a))), max(lo, min(hi, round(b)))


def _near(rng: random.Random, centre: float) -> tuple[int, int]:
    return _int_pair(rng, max(3, round(0.98 * centre)), max(3, round(1.02 * centre)))


def _probs(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return [round(rng.uniform(lo, hi), 6) for _ in range(n)]


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


def _op(kind: str, argv: list[str], /, **params) -> dict:
    return {"kind": kind, "argv": argv, "params": params}


# -- figures -------------------------------------------------------------------


def _sim_config(rng: random.Random, steps: int) -> dict:
    leader = round(rng.uniform(0.5, 0.6), 4)
    others = [round(rng.uniform(0.35, 0.65), 4) for _ in range(4)]
    step = 0.01
    return {
        "n": 5,
        "initial": [leader] + others,
        "kappa": round(rng.uniform(0.08, 0.12), 4),
        "multiplier": round(rng.uniform(1.0, 2.0), 4),
        "window": round(rng.uniform(0.1, 0.2), 4),
        "t_end": steps * step,
        "step": step,
    }


def _config_text(cfg: dict) -> str:
    return "".join(
        f"{key} = {', '.join(repr(x) for x in value) if key == 'initial' else repr(value)}\n"
        for key, value in cfg.items()
    )


def _figures(rng: random.Random, tiny: bool, input_dir: str) -> tuple[list[dict], dict]:
    ids = (1, 4) if tiny else range(1, 9)
    ops = [_op("figure", ["figure", "--id", str(k)], id=k) for k in ids]
    cfg = _sim_config(rng, 100 if tiny else _SIM_STEPS)
    path = f"{input_dir}/dynamics.cfg"
    ops.append(_op("simulate", ["simulate", "--config", path], config=cfg))
    return ops, {path: _config_text(cfg)}


# -- juries --------------------------------------------------------------------

# Heterogeneous sizes: narrow bands around log-spaced centres from 3.5 to
# 2900.  Homogeneous and cost sizes: (lo, hi) bands, inclusive.
_HETERO_CENTRES = tuple(3.5 * (2900 / 3.5) ** (i / 11) for i in range(12))
_HOMOG_BANDS = ((3, 9), (10, 31), (32, 100), (101, 317), (318, OVERFLOW_N - 1), (OVERFLOW_N, 3001))
_COST_BANDS = ((3, 11), (13, 31), (33, 61), (63, 101))


def _majority_argv(n: int, fair_coin: bool, *values: str) -> list[str]:
    return ["majority", *values] + (["--tie-break", "fair-coin"] if fair_coin else [])


def _odd(n: int) -> int:
    return n if n % 2 else n + 1


def _profile(rng: random.Random, kind: str, target: float) -> dict:
    if kind == "linear":
        return {"kind": kind, "c": round(rng.uniform(0.5, 2.0), 4)}
    if kind == "power":
        return {"kind": kind, "alpha": round(rng.uniform(0.5, 2.0), 4)}
    # a cap above the target keeps every odd group able to reach it
    cap = round(min(0.99, target + rng.uniform(0.03, 0.08)), 4)
    return {"kind": kind, "a": round(rng.uniform(0.5, 2.0), 4), "cap": cap}


def _profile_text(profile: dict) -> str:
    fields = {"linear": ("c",), "power": ("alpha",), "plateau": ("a", "cap")}[profile["kind"]]
    return profile["kind"] + ":" + ",".join(f"{f}={profile[f]!r}" for f in fields)


def _juries(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    centres = _HETERO_CENTRES[:3] if tiny else _HETERO_CENTRES
    for i, centre in enumerate(centres):
        # alternate near-coin-flip and competent juries across bands
        lo, hi = (0.3, 0.7) if i % 2 else (0.35, 0.95)
        for n in _near(rng, centre):
            probs = _probs(rng, n, lo, hi)
            fair = n % 2 == 0
            ops.append(_op("majority_hetero", _majority_argv(n, fair, "--probs", _join(probs)), probs=probs, fair_coin=fair))
    bands = _HOMOG_BANDS[:2] if tiny else _HOMOG_BANDS
    for lo, hi in bands:
        for _ in range(1 if tiny else 2):
            for n in _int_pair(rng, lo, hi):
                p = round(rng.uniform(0.35, 0.95), 6)
                fair = n % 2 == 0
                argv = _majority_argv(n, fair, "--n", str(n), "--p", repr(p))
                ops.append(_op("majority_homog", argv, n=n, p=p, fair_coin=fair))
    for kind in ("linear", "power", "plateau")[: 1 if tiny else 3]:
        for _ in range(1 if tiny else 2):
            target = round(rng.uniform(0.6, 0.9), 4)
            ns = []
            for lo, hi in _COST_BANDS[: 1 if tiny else 4]:
                ns.extend(_odd(n) for n in _int_pair(rng, lo, hi))
            profile = _profile(rng, kind, target)
            argv = ["cost", "--pstar", repr(target), "--profile", _profile_text(profile), "--n-list", _join(ns)]
            ops.append(_op("cost", argv, target=target, profile=profile, ns=ns))
    for _ in range(1 if tiny else 2):
        c1, cg = round(rng.uniform(0.5, 2.0), 4), round(rng.uniform(1.0, 3.0), 4)
        n, t_max, points = 2 * rng.randint(1, 10) + 1, round(rng.uniform(0.5, 2.0), 4), 128
        argv = ["tradeoff", "--c1", repr(c1), "--cg", repr(cg), "--n", str(n), "--t-max", repr(t_max), "--points", str(points)]
        ops.append(_op("tradeoff", argv, c1=c1, cg=cg, n=n, t_max=t_max, points=points))
    for kind in ("critical", "expert"):
        n_max = rng.randint(11, 61)
        ops.append(_op("rates", ["rates", kind, "--n-max", str(n_max)], kind=kind, n_max=n_max))
    for _ in range(3):
        n, pbar = rng.randint(3, 50), round(rng.uniform(0.3, 0.95), 6)
        ops.append(_op("extremal", ["extremal", "--n", str(n), "--pbar", repr(pbar)], n=n, pbar=pbar))
    for dominated in (True, False):
        n = rng.randint(3, 40)
        b = _probs(rng, n, 0.5, 0.9)
        # shifting every entry up by a clear margin makes a dominate b;
        # an independent draw usually does not
        a = [round(x + 0.05, 6) for x in b] if dominated else _probs(rng, n, 0.5, 0.9)
        ops.append(_op("majorize", ["majorize", "--a", _join(a), "--b", _join(b)], a=a, b=b))
    for _ in range(2):
        n, pbar = rng.randint(10, 3000), round(rng.uniform(0.5, 0.8), 6)
        argv = ["bound", "concentration", "--n", str(n), "--pbar", repr(pbar)]
        ops.append(_op("concentration", argv, n=n, pbar=pbar))
    return ops


# -- sampling ------------------------------------------------------------------


def ladha_cov(probs: list[float], mix: float) -> list[list[float]]:
    """Covariance matrix written for a ``bound ladha`` op."""
    # Covariances of X_i = [U_i < p_i] where, with probability mix, all
    # voters share one uniform U: a real joint distribution, so every
    # Frechet bound holds and the total variance is non-negative.
    n = len(probs)
    cov = [[0.0] * n for _ in range(n)]
    for i, p in enumerate(probs):
        cov[i][i] = p * (1.0 - p)
        for j in range(i + 1, n):
            q = probs[j]
            cov[i][j] = cov[j][i] = mix * (min(p, q) - p * q)
    return cov


def _cov_text(cov: list[list[float]]) -> str:
    return f"{len(cov)}\n" + "".join(" ".join(repr(x) for x in row) + "\n" for row in cov)


def _sampling(rng: random.Random, tiny: bool, input_dir: str) -> tuple[list[dict], dict]:
    trials = 10_000 if tiny else 1_000_000
    ops, files = [], {}

    def correlate(model: dict, spec: str) -> None:
        seed = rng.randrange(1 << 31)
        argv = ["correlate", "--model", spec, "--trials", str(trials), "--seed", str(seed)]
        ops.append(_op("correlate", argv, model=model, trials=trials, seed=seed))

    for centre in (6, 30, 97)[: 1 if tiny else 3]:
        for n in _near(rng, centre):
            p, mix = round(rng.uniform(0.5, 0.8), 4), round(rng.uniform(0.1, 0.9), 4)
            correlate({"kind": "commoncoin", "n": n, "p": p, "mix": mix}, f"commoncoin:p={p!r},lambda={mix!r},n={n}")
    for centre in (12, 60)[: 1 if tiny else 2]:
        a, b = _near(rng, centre)
        # one even size per band exercises the fair-coin tie path
        for n in (a + a % 2, b - 1 + b % 2):
            probs = _probs(rng, n, 0.4, 0.9)
            correlate({"kind": "independent", "probs": probs}, "independent:probs=" + _join(probs))
    for _ in range(1 if tiny else 5):
        n = 2 * rng.randint(2, 50) + 1
        correlate({"kind": "exactmajority", "n": n}, f"exactmajority:n={n}")
    for k, centre in enumerate((60, 150, 290)[: 1 if tiny else 3]):
        for m, n in enumerate(_near(rng, centre)):
            probs = _probs(rng, n, 0.55, 0.9)
            mix = round(rng.uniform(0.1, 0.9), 4)
            path = f"{input_dir}/cov{k}{m}.txt"
            files[path] = _cov_text(ladha_cov(probs, mix))
            argv = ["bound", "ladha", "--probs", _join(probs), "--cov", path]
            ops.append(_op("ladha", argv, probs=probs, mix=mix))
    return ops, files


def generate(workload: str, seed: int, input_dir: str, scale: str = "full") -> tuple[list[dict], dict[str, str]]:
    """Ops and the input files they read (path -> text) for one workload and seed.

    The same (workload, seed, input_dir, scale) always gives the same ops and
    files.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{scale}")
    tiny = scale == "tiny"
    files: dict[str, str] = {}
    if workload == "figures":
        ops, files = _figures(rng, tiny, input_dir)
    elif workload == "juries":
        ops = _juries(rng, tiny)
    else:
        ops, files = _sampling(rng, tiny, input_dir)
    return ops, files
