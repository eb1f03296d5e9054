"""Critical rates, expert thresholds, budget comparisons, and cost curves."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jurylearn import (
    CompetenceVector,
    DomainError,
    LinearProfile,
    PlateauProfile,
    PowerProfile,
    UnattainableTargetError,
    asymptotic_rate_check,
    cost_curve,
    cost_to_reach,
    critical_group_rate,
    expert_threshold,
    fixed_budget_compare,
    group_competence,
    initial_slope,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
)
from jurylearn.tradeoff import _invert_majority
from jurylearn.votemath import _tail_of

CRITICAL_TABLE = {
    1: Fraction(1),
    3: Fraction(2),
    5: Fraction(8, 3),
    7: Fraction(16, 5),
    9: Fraction(128, 35),
    11: Fraction(256, 63),
    13: Fraction(1024, 231),
    15: Fraction(2048, 429),
}

EXPERT_TABLE = {
    3: Fraction(3, 2),
    5: Fraction(15, 8),
    7: Fraction(35, 16),
    9: Fraction(315, 128),
    11: Fraction(693, 256),
    13: Fraction(3003, 1024),
    15: Fraction(6435, 2048),
}


class TestRationalTables:
    def test_critical_rates_exact(self):
        for n, value in CRITICAL_TABLE.items():
            assert critical_group_rate(n) == value

    def test_expert_thresholds_exact(self):
        for n, value in EXPERT_TABLE.items():
            assert expert_threshold(n) == value

    def test_even_rejected(self):
        with pytest.raises(DomainError):
            critical_group_rate(4)
        with pytest.raises(DomainError):
            expert_threshold(4)

    def test_duality_product_is_n(self):
        for n in range(1, 101, 2):
            assert critical_group_rate(n) * expert_threshold(n) == n


class TestAsymptotics:
    def test_expert_small_case(self):
        check = asymptotic_rate_check(3, "expert")
        assert check.exact == 1.5
        assert check.asymptote == pytest.approx(math.sqrt(6 / math.pi), abs=1e-12)
        assert check.relative_gap == pytest.approx(0.0854, abs=5e-4)

    def test_expert_n1(self):
        check = asymptotic_rate_check(1, "expert")
        assert check.exact == 1.0
        assert check.asymptote == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)

    def test_expert_gap_positive_shrinking(self):
        gaps = [asymptotic_rate_check(n, "expert").relative_gap for n in range(1, 203, 2)]
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[50] < 0.01  # n = 101

    def test_critical_sits_below_its_asymptote(self):
        # the group-rate gap has the opposite sign of the expert gap
        for n in range(3, 101, 2):
            check = asymptotic_rate_check(n, "critical")
            assert check.relative_gap < 0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            asymptotic_rate_check(3, "middling")

    def test_exact_is_the_rational_rate(self):
        for n in (1, 3, 15):
            assert asymptotic_rate_check(n, "expert").exact == expert_threshold(n)
            assert asymptotic_rate_check(n, "critical").exact == critical_group_rate(n)
            assert type(asymptotic_rate_check(n, "critical").exact) is Fraction


class TestFixedBudget:
    GRID = [i / 500 for i in range(751)]  # 0 .. 1.5

    def test_equal_rates_single_ahead(self):
        rows = fixed_budget_compare(1.0, 1.0, 3, self.GRID)
        assert all(s > g for t, s, g in rows if 0 < t < 0.5)
        assert all(s >= g for _, s, g in rows)

    def test_tangent_case_keeps_ordering(self):
        rows = fixed_budget_compare(1.0, 2.0, 3, self.GRID)
        assert all(s >= g for _, s, g in rows)
        # matching initial slopes
        assert initial_slope(1, 1.0) == pytest.approx(initial_slope(3, 2.0), abs=1e-15)

    def test_intermediate_rate_crossover(self):
        rows = fixed_budget_compare(1.0, 2.5, 3, self.GRID)
        assert any(g > s for t, s, g in rows if t < 0.2)
        assert any(s > g for t, s, g in rows if t >= 0.4)

    def test_fast_group_ahead_everywhere(self):
        rows = fixed_budget_compare(1.0, 3.5, 3, self.GRID)
        assert all(g >= s for _, s, g in rows)
        assert any(g > s for _, s, g in rows)

    def test_threshold_sharpness(self):
        above = fixed_budget_compare(1.0, 2.05, 3, self.GRID)
        assert any(g > s for t, s, g in above if t < 0.2)
        below = fixed_budget_compare(1.0, 1.95, 3, self.GRID)
        assert all(s >= g for _, s, g in below)

    def test_saturation_equalizes(self):
        rows = fixed_budget_compare(1.0, 1.0, 3, [2.0, 3.0])
        assert rows[-1][1] == rows[-1][2] == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            fixed_budget_compare(1.0, 1.0, 4, self.GRID)
        with pytest.raises(DomainError):
            fixed_budget_compare(1.0, 1.0, 3, [0.5, 0.2])


def _exact_majority(probs) -> Fraction:
    total = Fraction(0)
    for votes in itertools.product((0, 1), repeat=len(probs)):
        if 2 * sum(votes) > len(probs):
            total += math.prod(p if v else 1 - p for p, v in zip(probs, votes))
    return total


class TestHeterogeneousMix:
    """Three voters with linear rates (2.5, 0.25, 0.25) against three at rate 1.0.

    Each voter learns for T/3.  The mix wins at small T and loses once its
    fast voter is capped at competence 1.
    """

    RATES = (2.5, 0.25, 0.25)

    @pytest.mark.parametrize(
        "t, mix, uniform",
        [("0.3", 0.6496875, 0.648), ("1.2", 0.84, 0.972)],
    )
    def test_mix_against_uniform(self, t, mix, uniform):
        share = float(t) / 3
        mix_probs = CompetenceVector([LinearProfile(r).evaluate(share) for r in self.RATES])
        got_mix = majority_prob_heterogeneous(mix_probs)
        got_uniform = majority_prob_homogeneous(3, LinearProfile(1.0).evaluate(share))
        exact_share = Fraction(t) / 3
        exact = [min(Fraction(1, 2) + Fraction(r) * exact_share, Fraction(1)) for r in self.RATES]
        assert abs(got_mix - _exact_majority(exact)) <= 1e-15
        assert abs(got_uniform - _exact_majority([Fraction(1, 2) + exact_share] * 3)) <= 1e-15
        assert got_mix == pytest.approx(mix, abs=1e-15)
        assert got_uniform == pytest.approx(uniform, abs=1e-15)
        assert (got_mix > got_uniform) == (t == "0.3")


class TestInitialSlope:
    def test_known_values(self):
        assert initial_slope(1, 2.5) == pytest.approx(2.5, abs=1e-15)
        assert initial_slope(3, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert initial_slope(3, "1.0") == initial_slope(3, 1.0)

    def test_matches_curve_finite_difference(self):
        h = 1e-4
        for n in range(3, 17, 2):
            split = LinearProfile(0.8)
            fd = (group_competence(split, n, h) - group_competence(split, n, 0.0)) / h
            assert abs(fd - initial_slope(n, 0.8)) <= 1e-6
            # under a common deadline every voter studies the whole time: the slope is the expert threshold
            deadline = lambda t: majority_prob_homogeneous(n, LinearProfile(1.3).evaluate(t))
            assert abs((deadline(h) - deadline(0.0)) / h - 1.3 * float(expert_threshold(n))) <= 1e-6


class TestDerivativeAnchor:
    def test_three_voter_rate_law(self):
        # slope of the n=3 equal-split curve: c/2 - 2 c^3 T^2 / 9 before saturation
        h = 1e-4
        for c in (0.5, 1.0, 2.0):
            t_sat = 3 / (2 * c)
            grid = [k * min(1.0, t_sat) / 100 for k in range(1, 100)]
            for t in grid:
                if t - h <= 0 or t + h >= t_sat:
                    continue
                profile = LinearProfile(c)
                f = lambda x: group_competence(profile, 3, x)
                fd = (f(t + h) - f(t - h)) / (2 * h)
                assert abs(fd - (c / 2 - 2 * c**3 * t**2 / 9)) <= 1e-6


class TestCostToReach:
    def test_single_voter_line(self):
        result = cost_to_reach(1, 0.8, LinearProfile(1.0))
        assert result.t_star == pytest.approx(0.3, abs=1e-9)
        assert result.cost == pytest.approx(0.3, abs=1e-9)

    def test_three_voters(self):
        result = cost_to_reach(3, 0.648, LinearProfile(2.0))
        assert result.t_star == pytest.approx(0.05, abs=1e-9)
        assert result.cost == pytest.approx(0.15, abs=1e-9)

    def test_unattainable_plateau(self):
        with pytest.raises(UnattainableTargetError):
            cost_to_reach(3, 0.9, PlateauProfile(1.0, 0.55))

    def test_target_validation(self):
        with pytest.raises(DomainError):
            cost_to_reach(3, 0.5, LinearProfile(1.0))
        with pytest.raises(DomainError):
            cost_to_reach(3, 1.0, LinearProfile(1.0))
        with pytest.raises(DomainError):
            cost_to_reach(4, 0.8, LinearProfile(1.0))

    def test_group_size_is_normalised(self):
        [(n, cost)] = cost_curve(0.8, [3.0], lambda n: LinearProfile(1.0))
        assert type(n) is int and n == 3
        assert cost == cost_to_reach(3, 0.8, LinearProfile(1.0)).cost

    def test_target_is_stored_as_checked(self):
        assert cost_to_reach(3, "0.8", LinearProfile(1.0)) == cost_to_reach(3, 0.8, LinearProfile(1.0))

    @given(
        st.integers(0, 6),
        st.floats(0.51, 0.99, allow_nan=False),
        st.sampled_from([LinearProfile(0.5), LinearProfile(2.0), PowerProfile(0.55), PowerProfile(2.0)]),
    )
    def test_round_trip(self, k, target, profile):
        n = 2 * k + 1
        result = cost_to_reach(n, target, profile)
        reached = group_competence(profile, n, n * result.t_star)
        assert reached == pytest.approx(target, abs=1e-9)

    def test_plateau_boundary_attainable(self):
        # target exactly at the group limit of the cap
        cap = 0.75
        target = majority_prob_homogeneous(3, cap)
        result = cost_to_reach(3, target, PlateauProfile(2.0, cap))
        assert result.t_star == pytest.approx((cap - 0.5) / 2.0, abs=1e-6)


class TestCostCurve:
    NS = list(range(1, 43, 2))

    def test_constant_rate_grows_unbounded(self):
        costs = [c for _, c in cost_curve(0.8, self.NS, lambda n: LinearProfile(1.0))]
        assert all(b > a for a, b in zip(costs, costs[1:]))
        assert costs[-1] > 2.5  # ~ 0.42 * sqrt(n); far above the n=1 cost

    def test_critical_rate_converges(self):
        costs = [c for _, c in cost_curve(0.8, self.NS, lambda n: LinearProfile(float(critical_group_rate(n))))]
        assert abs(costs[-1] - costs[-2]) < abs(costs[2] - costs[1])
        assert abs(costs[-1] - costs[-2]) < 1e-4

    def test_twice_critical_also_converges_not_decreasing(self):
        # costs at any constant multiple of the critical rate are the
        # critical-rate costs rescaled, so they converge from below and
        # cannot decrease
        costs = [c for _, c in cost_curve(0.8, self.NS, lambda n: LinearProfile(2.0 * float(critical_group_rate(n))))]
        crit = [c for _, c in cost_curve(0.8, self.NS, lambda n: LinearProfile(float(critical_group_rate(n))))]
        assert costs == pytest.approx([c / 2 for c in crit], rel=1e-9)
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_supercritical_growth_decreases(self):
        # rates growing faster than the critical schedule push the cost down
        costs = [c for _, c in cost_curve(0.8, self.NS, lambda n: LinearProfile(float(n)))]
        assert all(b < a for a, b in zip(costs, costs[1:]))


class TestSharedCostSweep:
    """Several schedules in one ``cost_curve`` give what one sweep each gives, bit for bit."""

    def test_plateau_clipped_at_its_cap(self):
        cap = 0.75
        target = _tail_of(3)(cap) + 5e-13  # within the reachable slack, so the inverse passes the cap
        assert _invert_majority(_tail_of(3), target) > cap
        schedules = (
            lambda n: LinearProfile(1.0),
            lambda n: PlateauProfile(2.0, cap),
            lambda n: LinearProfile(float(critical_group_rate(n))),
        )
        ns = [3, 5, 7]
        shared = cost_curve(target, ns, *schedules)
        columns = [cost_curve(target, ns, schedule) for schedule in schedules]
        assert shared == [(n, *(column[i][1] for column in columns)) for i, n in enumerate(ns)]
        assert shared[0][2] == 3 * (cap - 0.5) / 2.0  # min(p*, cap) = cap at n = 3

    def test_later_schedule_unreachable_at_the_same_size(self):
        schedules = (
            lambda n: LinearProfile(1.0),
            lambda n: PowerProfile(0.55),
            lambda n: PlateauProfile(1.0, 0.9 if n < 5 else 0.55),
        )
        with pytest.raises(UnattainableTargetError) as single:
            cost_curve(0.8, [1, 3, 5, 7], schedules[2])
        with pytest.raises(UnattainableTargetError) as shared:
            cost_curve(0.8, [1, 3, 5, 7], *schedules)
        assert str(shared.value) == str(single.value)
        assert str(single.value).startswith("group of 5 tops out")

    def test_even_size_is_reported_before_a_bad_target(self):
        schedules = (lambda n: LinearProfile(1.0), lambda n: LinearProfile(2.0))
        for call in (lambda: cost_curve(1.5, [4], schedules[0]), lambda: cost_curve(1.5, [4], *schedules)):
            with pytest.raises(DomainError, match="group size must be an odd integer >= 1, got 4"):
                call()
        with pytest.raises(DomainError, match="target competence must lie strictly between"):
            cost_curve(1.5, [3, 4], *schedules)
        assert cost_curve(1.5, [], *schedules) == []
