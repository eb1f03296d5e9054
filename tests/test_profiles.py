"""Learning profiles, time allocation, and group-competence curves."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jurylearn import (
    DomainError,
    LinearProfile,
    PlateauProfile,
    PowerProfile,
    TieRuleRequiredError,
    UnattainableTargetError,
    competence_curve,
    format_profile,
    group_competence,
    majority_prob_homogeneous,
    parse_profile,
)

rates = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestEvaluate:
    def test_linear(self):
        assert LinearProfile(1.0).evaluate(0.3) == pytest.approx(0.8, abs=1e-15)

    def test_power(self):
        assert PowerProfile(0.55).evaluate(0.25) == pytest.approx(0.5 + 0.25**0.55, abs=1e-15)

    def test_plateau_hits_cap(self):
        assert PlateauProfile(1.0, 2 / 3).evaluate(0.5) == pytest.approx(2 / 3, abs=1e-15)

    def test_fields_are_stored_as_checked(self):
        assert LinearProfile("1.0").evaluate(0.1) == pytest.approx(0.6, abs=1e-15)
        assert type(PlateauProfile(1.0, Fraction(2, 3)).evaluate(5)) is float
        for profile in (LinearProfile(1), PowerProfile("2"), PlateauProfile(1, Fraction(2, 3))):
            assert {type(v) for v in vars(profile).values()} == {float}

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            LinearProfile(1.0).evaluate(-0.1)

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 8.0])
    def test_linear_saturation_time_exact(self, c):
        # powers of two keep 0.5/c and c*(0.5/c) exact in floats
        profile = LinearProfile(c)
        assert profile.evaluate(0.5 / c) == 1.0
        assert profile.evaluate(0.4999 / c) < 1.0

    @given(rates)
    def test_linear_saturation_time(self, c):
        # the 1e-8 nudge absorbs the rounding of 0.5/c for arbitrary rates
        profile = LinearProfile(c)
        assert profile.evaluate(0.50000001 / c) == 1.0
        assert profile.evaluate(0.4999 / c) < 1.0

    @given(st.sampled_from(["linear", "power", "plateau"]), rates, times, times)
    def test_starts_at_half_monotone_bounded(self, kind, r, t1, t2):
        profile = {
            "linear": LinearProfile(r),
            "power": PowerProfile(min(r, 5.0)),
            "plateau": PlateauProfile(r, 0.75),
        }[kind]
        assert profile.evaluate(0.0) == 0.5
        lo, hi = sorted((t1, t2))
        a, b = profile.evaluate(lo), profile.evaluate(hi)
        assert 0.5 <= a <= b <= 1.0

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            LinearProfile(0.0)
        with pytest.raises(DomainError):
            PowerProfile(-1.0)
        with pytest.raises(DomainError):
            PlateauProfile(1.0, 0.4)


class TestTimeToReach:
    @given(rates, st.floats(0.5, 1.0, allow_nan=False))
    def test_linear_round_trip(self, c, target):
        profile = LinearProfile(c)
        t = profile.time_to_reach(target)
        assert profile.evaluate(t) == pytest.approx(target, abs=1e-12)

    def test_plateau_unreachable(self):
        with pytest.raises(UnattainableTargetError):
            PlateauProfile(1.0, 0.6).time_to_reach(0.7)


class TestSerialization:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("linear:c=1.0", LinearProfile(1.0)),
            ("power:alpha=0.55", PowerProfile(0.55)),
            ("plateau:a=1.0,cap=0.6667", PlateauProfile(1.0, 0.6667)),
        ],
    )
    def test_parse(self, spec, expected):
        assert parse_profile(spec) == expected

    @given(rates, st.floats(0.5, 1.0, allow_nan=False, exclude_min=False))
    def test_round_trip(self, r, cap):
        for profile in (LinearProfile(r), PowerProfile(min(r, 5.0)), PlateauProfile(r, cap)):
            assert parse_profile(format_profile(profile)) == profile

    @pytest.mark.parametrize(
        "bad",
        [
            "linear",
            "linear:c=zap",
            "linear:rate=1.0",
            "plateau:a=1.0",
            "spline:k=3",
            "linear:c=1.0,extra=2",
            "linear:c=1,c=2",  # duplicate field
            "plateau:a=1.0,cap=0.6,a=2.0",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_profile(bad)


class TestGroupCompetence:
    def test_single_voter(self):
        got = group_competence(LinearProfile(1.0), 1, 0.2)
        assert got == pytest.approx(0.7, abs=1e-15)

    def test_equal_split_three(self):
        got = group_competence(LinearProfile(1.0), 3, 0.3)
        assert got == pytest.approx(0.648, abs=1e-12)

    def test_plateau_long_run(self):
        got = group_competence(PlateauProfile(1.0, 2 / 3), 3, 100.0)
        assert got == pytest.approx(20 / 27, abs=1e-12)

    def test_negative_total_is_reported_as_given(self):
        with pytest.raises(DomainError, match=r"total time .* got -3\.0$"):
            group_competence(LinearProfile(1.0), 3, -3.0)


class TestCompetenceCurve:
    def test_single_voter_values(self):
        curve = competence_curve(LinearProfile(1.0), 1, (0.0, 0.25, 0.5))
        assert curve == [(0.0, 0.5), (0.25, 0.75), (0.5, 1.0)]

    def test_saturated_group(self):
        curve = competence_curve(LinearProfile(2.0), 3, (0.75,))
        assert curve == [(0.75, 1.0)]

    def test_unsorted_grid_rejected(self):
        with pytest.raises(DomainError):
            competence_curve(LinearProfile(1.0), 1, (0.5, 0.2))

    def test_negative_grid_rejected(self):
        with pytest.raises(DomainError):
            competence_curve(LinearProfile(1.0), 1, (-0.5, 0.2))

    @given(
        st.sampled_from([LinearProfile(0.7), PowerProfile(0.55), PowerProfile(2.0), PlateauProfile(1.0, 0.7)]),
        st.integers(0, 100),
        st.lists(st.floats(0.0, 50.0), max_size=20),
    )
    def test_curve_is_group_competence_at_every_point(self, profile, k, times):
        # the curve checks once and calls the unchecked tail; every float must match the checked path
        n = 2 * k + 1
        grid = sorted([0.0, 1e200, *times])
        assert competence_curve(profile, n, grid) == [(t, group_competence(profile, n, t)) for t in grid]

    def test_even_size_refused_only_on_a_non_empty_grid(self):
        assert competence_curve(LinearProfile(1.0), 4, []) == []
        with pytest.raises(TieRuleRequiredError, match=r"^group size 4 is even; choose a tie rule such as FAIR_COIN$"):
            competence_curve(LinearProfile(1.0), 4, [0.5])

    def test_grid_is_checked_before_the_size(self):
        with pytest.raises(DomainError, match=r"^time grid must be sorted ascending$"):
            competence_curve(LinearProfile(1.0), 0, [0.5, 0.2])

    @given(
        st.sampled_from([LinearProfile(0.7), PowerProfile(0.55), PowerProfile(2.0), PlateauProfile(1.0, 0.7)]),
        st.integers(0, 5),
    )
    def test_curves_non_decreasing(self, profile, k):
        n = 2 * k + 1
        grid = [0.05 * i for i in range(40)]
        values = [v for _, v in competence_curve(profile, n, grid)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_convex_profile_single_voter_dominates(self):
        # quadratic growth favors the lone voter at every positive time
        grid = [0.02 * i for i in range(1, 51)]
        single = competence_curve(LinearProfile(1.0), 1, grid)
        group = competence_curve(PowerProfile(2.0), 3, grid)
        assert all(s >= g for (_, s), (_, g) in zip(single, group))

    def test_concave_profile_crossover(self):
        # sublinear growth puts the group ahead early, the single voter late
        grid = [0.02 * i for i in range(76)]
        single = competence_curve(LinearProfile(1.0), 1, grid)
        group = competence_curve(PowerProfile(0.55), 3, grid)
        diffs = [g - s for (_, s), (_, g) in zip(single, group)]
        assert any(d > 1e-6 for d in diffs[1:20])
        assert any(d < -1e-6 for d in diffs[20:])


class TestPlateauLimit:
    def test_group_limit_beats_cap(self):
        # the majority vote amplifies a capped individual competence
        for n in (3, 5, 9):
            for cap in (0.55, 2 / 3, 0.9):
                assert majority_prob_homogeneous(n, cap) > cap

    def test_convergence_to_group_limit(self):
        profile = PlateauProfile(1.0, 2 / 3)
        for n in (1, 3, 5):
            limit = majority_prob_homogeneous(n, 2 / 3)
            got = group_competence(profile, n, 50.0)
            assert got == pytest.approx(limit, abs=1e-12)
