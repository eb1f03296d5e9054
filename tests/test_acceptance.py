"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.

Criterion 7 checks three cost regimes: a constant rate gives rising costs,
the critical rate gives converging costs, and a super-critically growing
schedule (rate = n) gives falling costs.  It also asserts that twice the
critical rate yields exactly the critical-rate costs halved: under a linear
profile the cost is n*(p*_n - 1/2)/c_n, so any constant multiple of the
critical schedule only rescales the converging curve and can never make it
fall.
"""

import math
from fractions import Fraction

import numpy as np

from jurylearn import (
    CompetenceVector,
    ExactMajoritySet,
    Independent,
    MajorityRule,
    PlateauProfile,
    concentration_failure_bound,
    cost_curve,
    critical_group_rate,
    expert_threshold,
    fixed_budget_compare,
    group_competence,
    hoeffding_extremal,
    integrate,
    ladha_bound,
    classify_outcome,
    load_scenario,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
    majorizes,
    model_moments,
    sample_majority_rate,
    LinearProfile,
    DynamicsConfig,
    OutcomeKind,
)
from jurylearn.cli import run as cli_run
from oracles import enumerate_majority_prob, sample_many_with_mean
from test_cli import cells, reads_back


def check(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[criterion {criterion:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {criterion}: {description}{suffix}"


def _cli(capsys, *argv) -> str:
    code = cli_run(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_criterion_01_critical_rate_table(capsys):
    out = _cli(capsys, "rates", "critical", "--n-max", "15")
    exact = [reads_back(row[1]) for row in cells(out)[1]]
    expected = [
        Fraction(1),
        Fraction(2),
        Fraction(8, 3),
        Fraction(16, 5),
        Fraction(128, 35),
        Fraction(256, 63),
        Fraction(1024, 231),
        Fraction(2048, 429),
    ]
    check(1, "critical-rate table n=1..15 exact", exact == expected)


def test_criterion_02_expert_thresholds_and_duality():
    expected = [
        Fraction(3, 2),
        Fraction(15, 8),
        Fraction(35, 16),
        Fraction(315, 128),
        Fraction(693, 256),
        Fraction(3003, 1024),
        Fraction(6435, 2048),
    ]
    table_ok = [expert_threshold(n) for n in range(3, 16, 2)] == expected
    duality_ok = all(
        critical_group_rate(n) * expert_threshold(n) == n for n in range(1, 100, 2)
    )
    check(2, "expert-threshold table and exact duality product", table_ok and duality_ok)


def test_criterion_03_extremal_jury():
    jury = hoeffding_extremal(3, 0.7)
    composition_ok = (
        len(jury) == 3
        and abs(jury[0] - 1.0) == 0.0
        and abs(jury[1] - 1.0) == 0.0
        and abs(jury[2] - 0.1) <= 1e-12
    )
    prob_ok = majority_prob_heterogeneous(jury) == 1.0
    check(3, "extremal jury (1, 1, 0.1) decides correctly with probability 1",
          composition_ok and prob_ok)


def test_criterion_04_plateau_limit():
    profile = PlateauProfile(rate=1.0, cap=2.0 / 3.0)
    value = group_competence(profile, 3, 100.0)
    err = abs(value - 20.0 / 27.0)
    check(4, "plateau group competence at T=100 within 1e-9 of 20/27", err <= 1e-9,
          f"err={err:.3g}")


def test_criterion_05_three_voter_derivative_law():
    h = 1e-4
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        t_sat = 3.0 / (2.0 * c)  # the closed form holds before saturation
        profile = LinearProfile(c)
        for k in range(1, 100):
            t = k / 100.0
            if not (h < t < 1.0 and t + h < t_sat):
                continue
            f = lambda x: group_competence(profile, 3, x)
            fd = (f(t + h) - f(t - h)) / (2.0 * h)
            worst = max(worst, abs(fd - (c / 2.0 - 2.0 * c**3 * t**2 / 9.0)))
    check(5, "n=3 slope law c/2 - 2c^3 T^2/9 within 1e-6", worst <= 1e-6,
          f"worst={worst:.3g}")


def test_criterion_06_fixed_budget_orderings():
    grid = [i / 1000.0 for i in range(1001)]
    slow = fixed_budget_compare(1.0, 1.0, 3, grid)
    single_ahead = all(s > g for t, s, g in slow if 0.0 < t < 0.5)
    fast = fixed_budget_compare(1.0, 3.5, 3, grid)
    group_ahead = all(g >= s for _, s, g in fast) and any(g > s for _, s, g in fast)
    mid = fixed_budget_compare(1.0, 2.5, 3, grid)
    crossover = any(g > s for t, s, g in mid if t < 0.25) and any(
        s > g for t, s, g in mid if t >= 0.4
    )
    check(6, "budget orderings: c3=1 single ahead, c3=3.5 group ahead, c3=2.5 crossover",
          single_ahead and group_ahead and crossover)


def test_criterion_07_cost_regimes():
    ns = list(range(1, 43, 2))
    sub = [c for _, c in cost_curve(0.8, ns, lambda n: LinearProfile(1.0))]
    increasing = all(b > a for a, b in zip(sub, sub[1:]))
    crit = [c for _, c in cost_curve(0.8, ns, lambda n: LinearProfile(float(critical_group_rate(n))))]
    converging = abs(crit[-1] - crit[-2]) < abs(crit[2] - crit[1])
    superc = [c for _, c in cost_curve(0.8, ns, lambda n: LinearProfile(float(n)))]
    decreasing = all(b < a for a, b in zip(superc, superc[1:]))
    twice = [c for _, c in cost_curve(0.8, ns, lambda n: LinearProfile(2.0 * float(critical_group_rate(n))))]
    halved = all(math.isclose(t, c / 2, rel_tol=1e-12, abs_tol=0.0) for t, c in zip(twice, crit))
    twice_rising = all(b > a for a, b in zip(twice, twice[1:]))
    detail = (
        f"c=1 increasing: {increasing}; critical converging: {converging}; "
        f"rate=n decreasing: {decreasing} ({superc[0]:.4f} -> {superc[-1]:.4f}); "
        f"2x-critical = critical/2: {halved}, rising: {twice_rising} "
        f"({twice[0]:.4f} -> {twice[-1]:.4f})"
    )
    check(7, "cost regimes at P*=0.8 over n=1..41",
          increasing and converging and decreasing and halved and twice_rising, detail)


def test_criterion_08_expert_asymptotics():
    gaps = []
    for n in range(1, 203, 2):
        exact = float(expert_threshold(n))
        gaps.append(exact / math.sqrt(2.0 * n / math.pi) - 1.0)
    positive = all(g > 0.0 for g in gaps)
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    small_at_101 = gaps[50] < 0.01
    check(8, "expert-threshold gap positive, shrinking, <1% at n=101",
          positive and decreasing and small_at_101, f"gap(101)={gaps[50]:.4%}")


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(90210)
    worst = 0.0
    for n in range(1, 13):
        for _ in range(200):
            probs = rng.uniform(0.0, 1.0, n)
            got = majority_prob_heterogeneous(CompetenceVector(probs), MajorityRule.FAIR_COIN)
            exact = enumerate_majority_prob(probs, fair_coin=True)
            worst = max(worst, abs(got - exact))
    check(9, "Poisson-binomial DP vs exhaustive enumeration, 200 juries per n<=12",
          worst <= 1e-12, f"worst={worst:.3g}")


def test_criterion_10_theorem_property_suite():
    rng = np.random.default_rng(1010)

    monotone_n = all(
        majority_prob_homogeneous(n + 2, p) >= majority_prob_homogeneous(n, p) - 1e-12
        for n in range(1, 41, 2)
        for p in [0.51 + 0.02 * i for i in range(25)]
    )

    h = 0.005
    concave = True
    for n in range(1, 43, 2):
        grid = [0.5 + h * i for i in range(100)]
        vals = [majority_prob_homogeneous(n, p) for p in grid]
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            concave = False
        if any(
            (vals[i - 1] - 2 * vals[i] + vals[i + 1]) / h**2 > 1e-9
            for i in range(1, len(vals) - 1)
        ):
            concave = False

    # heterogeneity dominance, sampled where the majority threshold is at or
    # below the mean vote count (the inequality provably fails below that)
    hetero = True
    count = 0
    while count < 500:
        n = int(rng.choice([3, 5, 7, 9, 11]))
        lo = ((n + 1) // 2) / n
        v = CompetenceVector(sample_many_with_mean(rng, 1, n, rng.uniform(lo, 0.995))[0])
        if v.mean() * n < (n + 1) // 2:
            continue
        count += 1
        if majority_prob_heterogeneous(v) < majority_prob_homogeneous(n, v.mean()) - 1e-12:
            hetero = False

    # majorization monotonicity on its Schur-convexity region [1/2, 1]^n
    majorization = True
    count = 0
    while count < 500:
        n = int(rng.choice([3, 5, 7, 9, 11]))
        b = rng.uniform(0.5, 1.0, n)
        a = np.sort(b)[::-1].copy()
        for _ in range(int(rng.integers(1, 6))):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            if i == j:
                continue
            delta = rng.uniform(0.0, 1.0) * min(1.0 - a[i], a[j] - 0.5)
            a[i] += delta
            a[j] -= delta
            a = np.sort(a)[::-1]
        va, vb = CompetenceVector(a), CompetenceVector(b)
        if not majorizes(va, vb):
            continue
        count += 1
        if majority_prob_heterogeneous(va) < majority_prob_heterogeneous(vb) - 1e-12:
            majorization = False

    ladha = True
    for _ in range(100):
        n = int(rng.choice([3, 5, 7, 9]))
        v = CompetenceVector(sample_many_with_mean(rng, 1, n, rng.uniform(0.55, 0.95))[0])
        if v.mean() <= 0.5:
            continue
        if majority_prob_heterogeneous(v) < ladha_bound(model_moments(Independent(v))) - 1e-12:
            ladha = False
    for n in (3, 5, 9, 15):
        truth = sample_majority_rate(ExactMajoritySet(n), trials=64, seed=0).estimate
        if truth < ladha_bound(model_moments(ExactMajoritySet(n))) - 1e-12:
            ladha = False

    concentration = all(
        1.0 - majority_prob_homogeneous(n, 0.5 + 0.01 * i)
        <= concentration_failure_bound(n, 0.5 + 0.01 * i) + 1e-15
        for n in range(1, 52, 2)
        for i in range(0, 51)
    )

    detail = (
        f"monotone-in-n: {monotone_n}; concave: {concave}; heterogeneity: {hetero}; "
        f"majorization: {majorization}; ladha: {ladha}; concentration: {concentration}"
    )
    check(10, "theorem property suite", all(
        [monotone_n, concave, hetero, majorization, ladha, concentration]
    ), detail)


def test_criterion_11_dynamics():
    scalar = integrate(DynamicsConfig(n=1, initial=(0.5,), leader_gain=0.1, t_end=10.0, step=0.01))
    scalar_ok = abs(scalar.final_state[0] - (1.0 - 0.5 * math.exp(-1.0))) <= 1e-6

    drift = integrate(load_scenario("drift3"))
    p2 = [s[1] for s in drift.states]
    drift_ok = min(p2[:1000]) < p2[0] - 1e-4 and all(x > 0.99 for x in drift.final_state)

    consensus = classify_outcome(integrate(load_scenario("window4-consensus")))
    lowstart = classify_outcome(integrate(load_scenario("window4-lowstart")))
    fastleader = classify_outcome(integrate(load_scenario("window4-fastleader")))
    low_clusters = {c.members: c.value for c in lowstart.clusters}
    fast_clusters = {c.members: c.value for c in fastleader.clusters}
    windows_ok = (
        consensus.kind is OutcomeKind.CONSENSUS_AT_1
        and lowstart.kind is OutcomeKind.FRAGMENTED
        and low_clusters.get((1, 2), 0.0) > 0.99
        and 0.0 < low_clusters.get((3, 4), 0.0) < 0.7
        and fastleader.kind is OutcomeKind.FRAGMENTED
        and fast_clusters.get((1,), 0.0) > 0.99
        and 0.5 < fast_clusters.get((2, 3, 4), 0.0) < 0.7
    )
    check(11, "dynamics: scalar closed form, drift dip and lift, three windowed outcomes",
          scalar_ok and drift_ok and windows_ok)


def test_criterion_12_determinism(capsys):
    figures_ok = True
    for fig_id in range(1, 9):
        first = _cli(capsys, "figure", "--id", str(fig_id))
        second = _cli(capsys, "figure", "--id", str(fig_id))
        if first != second or not first:
            figures_ok = False
    a = sample_majority_rate(Independent(CompetenceVector((0.6, 0.7, 0.8))), 100_001, seed=31)
    b = sample_majority_rate(Independent(CompetenceVector((0.6, 0.7, 0.8))), 100_001, seed=31)
    mc_ok = a.estimate == b.estimate and a.stderr == b.stderr
    check(12, "figures byte-identical, Monte Carlo bit-identical for fixed seed",
          figures_ok and mc_ok)
