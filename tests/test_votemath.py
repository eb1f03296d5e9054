"""Majority-probability math against brute-force and exact-rational oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurylearn import (
    CompetenceVector,
    DomainError,
    MajorityRule,
    TieRuleRequiredError,
    concentration_failure_bound,
    derivative_at_half,
    hoeffding_extremal,
    majorizes,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
    majority_prob_rows,
    vote_distribution,
)
from jurylearn import votemath

from oracles import (
    enumerate_distribution,
    enumerate_majority_prob,
    exact_homogeneous_tail,
    exact_majority_prob,
    sample_many_with_mean,
    sample_with_mean,
    scalar_pmf,
)

probs_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=10
)


class TestCompetenceVector:
    def test_mean(self):
        v = CompetenceVector((0.2, 0.4, 0.9))
        assert v.mean() == pytest.approx(0.5, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CompetenceVector((0.5, 1.2))
        with pytest.raises(DomainError):
            CompetenceVector((-0.1,))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            CompetenceVector(())


class TestVoteDistribution:
    def test_fair_pair(self):
        dist = vote_distribution(CompetenceVector((0.5, 0.5)))
        assert dist == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)

    def test_deterministic_votes(self):
        dist = vote_distribution(CompetenceVector((1.0, 0.0)))
        assert dist == (0.0, 1.0, 0.0)

    def test_three_voters_binomial(self):
        # binomial expansion: (0.3 + 0.7 x)^3
        dist = vote_distribution(CompetenceVector((0.7, 0.7, 0.7)))
        assert dist == pytest.approx((0.027, 0.189, 0.441, 0.343), abs=1e-12)

    @settings(max_examples=200)
    @given(probs_lists)
    def test_matches_enumeration_and_sums_to_one(self, probs):
        dist = vote_distribution(CompetenceVector(probs))
        assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)
        assert all(m >= 0.0 for m in dist)
        expected = enumerate_distribution(probs)
        assert dist == pytest.approx(expected, abs=1e-12)


def _direct_homogeneous_tail(n, p):
    # reference: one math.comb per term; the recurrence must give the same float
    q = 1.0 - p
    total = math.fsum(math.comb(n, k) * p**k * q ** (n - k) for k in range(n // 2 + 1, n + 1))
    if n % 2 == 0:
        total += 0.5 * math.comb(n, n // 2) * p ** (n // 2) * q ** (n // 2)
    return min(total, 1.0)


class TestHomogeneous:
    def test_binomial_recurrence_keeps_every_float(self):
        for n in [*range(1, 62), 101, 201, 401, 646, 982, 1000, 1026, 1028, 1029]:
            rule = MajorityRule.FAIR_COIN if n % 2 == 0 else MajorityRule.FAIL
            for p in (0.0, 1e-3, 0.25, 0.5, 0.6, 0.999, 1.0):
                assert majority_prob_homogeneous(n, p, rule) == _direct_homogeneous_tail(n, p), (n, p)

    def test_single_voter(self):
        assert majority_prob_homogeneous(1, 0.7) == 0.7

    def test_symmetric_coin(self):
        assert majority_prob_homogeneous(3, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_two_thirds_three_voters(self):
        assert majority_prob_homogeneous(3, 2 / 3) == pytest.approx(20 / 27, abs=1e-15)

    def test_brute_force_example(self):
        assert enumerate_majority_prob([0.6] * 3) == pytest.approx(0.648, abs=1e-12)
        assert majority_prob_homogeneous(3, 0.6) == pytest.approx(0.648, abs=1e-12)

    def test_even_needs_tie_rule(self):
        with pytest.raises(TieRuleRequiredError):
            majority_prob_homogeneous(4, 0.7)

    def test_even_fair_coin(self):
        # ties get half credit: exhaustive oracle agrees
        got = majority_prob_homogeneous(4, 0.7, MajorityRule.FAIR_COIN)
        assert got == pytest.approx(enumerate_majority_prob([0.7] * 4, fair_coin=True), abs=1e-12)
        assert majority_prob_homogeneous(2, 0.5, MajorityRule.FAIR_COIN) == pytest.approx(0.5, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            majority_prob_homogeneous(3, 1.5)
        with pytest.raises(DomainError):
            majority_prob_homogeneous(0, 0.5)

    @pytest.mark.parametrize("n", [51, 101, 201])
    def test_relative_error_against_exact_rational(self, n):
        # includes deep left tails (p < 1/2), where the direct upper-tail
        # sum keeps full relative accuracy
        for p in (
            Fraction(1, 4),
            Fraction(2, 5),
            Fraction(51, 100),
            Fraction(3, 5),
            Fraction(3, 4),
            Fraction(9, 10),
            Fraction(99, 100),
        ):
            exact = exact_homogeneous_tail(n, p)
            got = majority_prob_homogeneous(n, float(p))
            assert abs(got - float(exact)) <= 1e-12 * float(exact)

    @given(st.integers(0, 20), st.floats(0.0, 1.0, allow_nan=False))
    def test_odd_symmetry(self, k, p):
        n = 2 * k + 1
        lhs = majority_prob_homogeneous(n, 1.0 - p)
        rhs = 1.0 - majority_prob_homogeneous(n, p)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone_in_n(self):
        # larger odd juries are better for any fixed competence above 1/2
        for p in [0.51 + 0.02 * i for i in range(25)]:
            values = [majority_prob_homogeneous(n, p) for n in range(1, 43, 2)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_concave_increasing_in_p(self):
        h = 0.005
        for n in range(1, 43, 2):
            grid = [0.5 + h * i for i in range(int(0.5 / h))]
            values = [majority_prob_homogeneous(n, p) for p in grid]
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert all(d >= -1e-12 for d in diffs)
            second = [(values[i - 1] - 2 * values[i] + values[i + 1]) / h**2
                      for i in range(1, len(values) - 1)]
            assert all(s <= 1e-9 for s in second)


class TestHeterogeneous:
    def test_three_equal(self):
        v = CompetenceVector((0.7, 0.7, 0.7))
        assert majority_prob_heterogeneous(v) == pytest.approx(0.784, abs=1e-12)

    def test_certain_majority_is_exactly_one(self):
        assert majority_prob_heterogeneous(CompetenceVector((1.0, 1.0, 0.1))) == 1.0

    def test_symmetric_coins(self):
        v = CompetenceVector((0.5, 0.5, 0.5))
        assert majority_prob_heterogeneous(v) == pytest.approx(0.5, abs=1e-15)

    def test_even_needs_tie_rule(self):
        with pytest.raises(TieRuleRequiredError):
            majority_prob_heterogeneous(CompetenceVector((0.6, 0.7)))

    def test_even_fair_coin_matches_enumeration(self):
        v = (0.9, 0.4, 0.55, 0.7)
        got = majority_prob_heterogeneous(CompetenceVector(v), MajorityRule.FAIR_COIN)
        assert got == pytest.approx(enumerate_majority_prob(v, fair_coin=True), abs=1e-12)

    def test_brute_force_equivalence_sweep(self):
        # 200 random juries per size, DP vs exhaustive enumeration
        rng = np.random.default_rng(1234)
        worst = 0.0
        for n in range(1, 13):
            for _ in range(200):
                probs = rng.uniform(0.0, 1.0, n)
                v = CompetenceVector(probs)
                got = majority_prob_heterogeneous(v, MajorityRule.FAIR_COIN)
                exact = enumerate_majority_prob(probs, fair_coin=True)
                worst = max(worst, abs(got - exact))
        assert worst <= 1e-12

    def test_agrees_with_homogeneous(self):
        for n in (1, 3, 5, 21, 51):
            for p in (0.3, 0.5, 0.67, 0.9):
                het = majority_prob_heterogeneous(CompetenceVector([p] * n))
                hom = majority_prob_homogeneous(n, p)
                assert het == pytest.approx(hom, abs=1e-12)

    @pytest.mark.parametrize("n", [15, 20])
    def test_enumeration_agreement_at_larger_sizes(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            probs = rng.uniform(0.0, 1.0, n)
            got = majority_prob_heterogeneous(CompetenceVector(probs), MajorityRule.FAIR_COIN)
            exact = enumerate_majority_prob(probs, fair_coin=True)
            assert got == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize(
        "probs, rule",
        [
            ([0.1] * 101, MajorityRule.FAIL),  # 1.15e-24, below a 1 - fail floor
            ([0.3] * 301, MajorityRule.FAIL),  # 2.08e-13, where 1 - fail is 8% off
            ([0.15] * 60 + [0.25] * 40, MajorityRule.FAIR_COIN),  # 1.13e-12, half a tie
        ],
        ids=["0.1x101", "0.3x301", "mixed-even-100"],
    )
    def test_small_tail_keeps_relative_precision(self, probs, rule):
        got = majority_prob_heterogeneous(CompetenceVector(probs), rule)
        exact = exact_majority_prob(probs, fair_coin=rule is MajorityRule.FAIR_COIN)
        assert abs(Fraction(got) - exact) <= 1e-14 * exact
        if len(set(probs)) == 1:
            hom = majority_prob_homogeneous(len(probs), probs[0])
            assert abs(got - hom) <= 1e-14 * hom

    @pytest.mark.parametrize("a", [3, 4, 5])
    def test_three_thousand_and_one_equal_voters(self, a):
        # p = a/8 is dyadic, so the exact tail is a ratio of big integers;
        # at a = 3 it is 2.5e-44
        n = 3001
        got = majority_prob_heterogeneous(CompetenceVector([a / 8] * n))
        top = sum(math.comb(n, k) * a**k * (8 - a) ** (n - k) for k in range(n // 2 + 1, n + 1))
        exact = Fraction(top, 8**n)
        assert abs(Fraction(got) - exact) <= 1e-14 * exact


def _random_competences(rng, n):
    # uniform draws mixed with exact 0/1, a tiny normal and subnormals
    special = (0.0, 1.0, 1e-300, 5e-324, 2.5e-310, 1.0 - 2**-53)
    return [rng.choice(special) if rng.random() < 0.2 else rng.random() for _ in range(n)]


class TestBatchedFold:
    def test_fold_matches_scalar_loop_bit_for_bit(self):
        rng = random.Random(2024)
        for _ in range(2000):
            probs = _random_competences(rng, rng.randint(1, 200))
            assert votemath._pmf(np.array([probs]))[0].tolist() == scalar_pmf(probs)

    def test_rows_match_single_juries_bit_for_bit(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4, 7, 10, 51, 200):
            rows = [_random_competences(rng, n) for _ in range(25)]
            batched = majority_prob_rows(rows, MajorityRule.FAIR_COIN)
            single = [majority_prob_heterogeneous(CompetenceVector(r), MajorityRule.FAIR_COIN) for r in rows]
            scalar = [votemath._tail_from_mass(scalar_pmf(r), n) for r in rows]
            assert batched == single == scalar

    def test_rows_keep_the_tie_rule(self):
        with pytest.raises(TieRuleRequiredError):
            majority_prob_rows([[0.6, 0.7]])
        assert majority_prob_rows([[0.6, 0.7, 0.8], [1.0, 1.0, 0.0]]) == [
            majority_prob_heterogeneous(CompetenceVector((0.6, 0.7, 0.8))),
            1.0,
        ]


class TestHeterogeneityDominance:
    """A mixed jury beats the uniform jury with the same mean competence.

    This holds whenever the majority threshold sits at or below the mean
    vote count, i.e. n*pbar >= ceil(n/2); below that mean it can fail, so
    the sweep samples from the validity region and the counterexample is
    pinned separately.
    """

    def test_sweep_in_validity_region(self):
        rng = np.random.default_rng(77)
        count = 0
        while count < 500:
            n = int(rng.choice([3, 5, 7, 9, 11]))
            thresh = ((n + 1) // 2) / n
            probs = sample_with_mean(rng, n, rng.uniform(thresh, 0.995))
            v = CompetenceVector(probs)
            if v.mean() * n < (n + 1) // 2:
                continue
            count += 1
            het = majority_prob_heterogeneous(v)
            hom = majority_prob_homogeneous(n, v.mean())
            assert het >= hom - 1e-12

    def test_fails_below_majority_mean(self):
        # mean 0.527 > 1/2 but below 2/3: the uniform jury is better here
        v = CompetenceVector((0.8068158, 0.43371235, 0.33938218))
        assert 0.5 < v.mean() < 2 / 3
        het = majority_prob_heterogeneous(v)
        hom = majority_prob_homogeneous(3, v.mean())
        assert het < hom - 1e-3


class TestDerivativeAtHalf:
    def test_small_cases(self):
        assert derivative_at_half(1) == 1
        assert derivative_at_half(3) == Fraction(3, 2)
        assert derivative_at_half(5) == Fraction(15, 8)
        assert derivative_at_half(7) == Fraction(35, 16)

    def test_even_rejected(self):
        with pytest.raises(DomainError):
            derivative_at_half(4)

    def test_matches_asymptote_at_91(self):
        exact = float(derivative_at_half(91))
        assert abs(exact / math.sqrt(2 * 91 / math.pi) - 1.0) < 0.01

    def test_matches_finite_difference(self):
        h = 1e-4
        for n in range(1, 53, 2):
            fd = (
                majority_prob_homogeneous(n, 0.5 + h)
                - majority_prob_homogeneous(n, 0.5 - h)
            ) / (2 * h)
            exact = float(derivative_at_half(n))
            assert abs(fd - exact) <= 1e-6 * exact


class TestHoeffdingExtremal:
    def test_example(self):
        jury = hoeffding_extremal(3, 0.7)
        assert jury == pytest.approx((1.0, 1.0, 0.1), abs=1e-12)
        assert majority_prob_heterogeneous(jury) == 1.0

    def test_all_ones(self):
        assert hoeffding_extremal(3, 1.0) == (1.0, 1.0, 1.0)

    def test_half_fraction(self):
        jury = hoeffding_extremal(5, 0.5)
        assert jury == pytest.approx((1.0, 1.0, 0.5, 0.0, 0.0), abs=1e-12)

    @given(st.integers(1, 12), st.floats(0.0, 1.0, allow_nan=False))
    def test_mean_is_preserved(self, n, pbar):
        jury = hoeffding_extremal(n, pbar)
        assert len(jury) == n
        assert abs(math.fsum(jury) / len(jury) - pbar) <= 1e-12

    def test_random_search_never_beats_it_in_validity_region(self):
        # 200 random (n, pbar) with pbar >= ceil(n/2)/n, 1000 same-mean
        # rivals each; there the extremal jury decides correctly with
        # probability 1, so nothing can beat it.
        rng = np.random.default_rng(4321)
        for _ in range(200):
            n = int(rng.choice([3, 5, 7, 9]))
            pbar = rng.uniform(((n + 1) // 2) / n, 1.0)
            target = majority_prob_heterogeneous(hoeffding_extremal(n, pbar))
            assert target == 1.0
            rivals = sample_many_with_mean(rng, 1000, n, pbar)
            assert max(majority_prob_rows(rivals)) <= target + 1e-12

    def test_not_optimal_below_majority_mean(self):
        # at mean 0.6 < 2/3 the construction (1, 0.8, 0) loses to (0.9, 0.9, 0)
        construction = CompetenceVector((1.0, 0.8, 0.0))
        rival = CompetenceVector((0.9, 0.9, 0.0))
        assert abs(construction.mean() - rival.mean()) < 1e-15
        assert majority_prob_heterogeneous(rival) > majority_prob_heterogeneous(construction) + 1e-3


class TestMajorizes:
    def test_examples(self):
        assert majorizes(CompetenceVector((1, 1, 0.1)), CompetenceVector((0.7, 0.7, 0.7)))
        assert not majorizes(CompetenceVector((0.6, 0.6, 0.6)), CompetenceVector((0.9, 0.5, 0.4)))

    @given(probs_lists)
    def test_reflexive(self, probs):
        v = CompetenceVector(probs)
        assert majorizes(v, v)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            majorizes(CompetenceVector((0.5,)), CompetenceVector((0.5, 0.5)))

    def test_order_insensitive(self):
        a = CompetenceVector((0.1, 1.0, 1.0))
        b = CompetenceVector((0.7, 0.7, 0.7))
        assert majorizes(a, b)


def _random_majorizing_pair(rng, n):
    # sorted-descending transfers preserve the sum and push a up the
    # majorization order; entries stay in [1/2, 1]
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
    if rng.random() < 0.5:
        a[0] = min(1.0, a[0] + rng.uniform(0.0, 0.05))
    rng.shuffle(a)
    return a, b


class TestMajorizationMonotonicity:
    """Majorizing juries decide at least as well.

    The majority probability is Schur-convex on [1/2, 1]^n (by the
    Schur-Ostrowski criterion the condition reduces to a pmf step
    inequality that holds when all competences are >= 1/2), so pairs are
    sampled from that region; with entries below 1/2 the claim is false
    and the counterexample below pins that down.
    """

    def test_sweep_on_half_one_region(self):
        rng = np.random.default_rng(555)
        checked = 0
        while checked < 500:
            n = int(rng.choice([3, 5, 7, 9, 11]))
            a, b = _random_majorizing_pair(rng, n)
            va, vb = CompetenceVector(a), CompetenceVector(b)
            if not majorizes(va, vb):
                continue
            checked += 1
            assert majority_prob_heterogeneous(va) >= majority_prob_heterogeneous(vb) - 1e-12

    def test_fails_with_entries_below_half(self):
        a = CompetenceVector((1.0, 0.8, 0.0))
        b = CompetenceVector((0.9, 0.9, 0.0))
        assert majorizes(a, b)
        assert majority_prob_heterogeneous(a) < majority_prob_heterogeneous(b)


class TestConcentrationBound:
    def test_vacuous_at_half(self):
        assert concentration_failure_bound(100, 0.5) == 2.0

    def test_example(self):
        assert concentration_failure_bound(100, 0.6) == pytest.approx(2 * math.exp(-1), abs=1e-15)

    def test_omega_scaling(self):
        for n in (9, 100, 2500):
            for omega in (0.5, 1.0, 2.0, 3.0):
                pbar = 0.5 + omega / math.sqrt(n)
                if pbar > 1.0:
                    continue
                got = concentration_failure_bound(n, pbar)
                assert got == pytest.approx(2 * math.exp(-(omega**2)), rel=1e-12)

    def test_below_half_rejected(self):
        with pytest.raises(DomainError):
            concentration_failure_bound(10, 0.4)

    def test_dominates_true_failure_probability(self):
        for n in range(1, 52, 2):
            for i in range(0, 51):
                pbar = 0.5 + 0.01 * i
                fail = 1.0 - majority_prob_homogeneous(n, pbar)
                assert fail <= concentration_failure_bound(n, pbar) + 1e-15
