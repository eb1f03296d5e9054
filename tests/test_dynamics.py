"""Mean-drift competence dynamics: fields, integration, classification."""

import dataclasses
import math
import random

import numpy as np
import pytest
from oracles import numpy_field, numpy_rk4_states

from jurylearn import (
    DomainError,
    DynamicsConfig,
    NotConvergedError,
    OutcomeKind,
    classify_outcome,
    derivative_field,
    format_dynamics_config,
    integrate,
    list_scenarios,
    load_scenario,
    parse_dynamics_config,
    trajectory_table,
)


def _config(**overrides):
    base = dict(n=3, initial=(0.55, 0.75, 0.45), leader_gain=0.1, t_end=60.0, step=0.01)
    base.update(overrides)
    return DynamicsConfig(**base)


class TestDerivativeField:
    def test_followers_at_mean_rest(self):
        cfg = _config(initial=(0.5, 0.5, 0.5))
        assert derivative_field(cfg, (0.5, 0.5, 0.5)) == pytest.approx((0.05, 0.0, 0.0), abs=1e-15)

    def test_global_mean_pull(self):
        cfg = _config()
        d = derivative_field(cfg, (0.9, 0.6, 0.3))
        assert d == pytest.approx((0.01, 0.0, 0.3), abs=1e-12)

    def test_windowed_membership(self):
        cfg = _config(window=0.1)
        d = derivative_field(cfg, (0.9, 0.6, 0.55))
        # leader: 0.1 * (1 - 0.9); voter 2 sees {2, 3}; voter 3 sees {2, 3}
        assert d[0] == pytest.approx(0.01, abs=1e-15)
        assert d[1] == pytest.approx(0.575 - 0.6, abs=1e-12)
        assert d[2] == pytest.approx(0.575 - 0.55, abs=1e-12)

    def test_isolated_voter_stays_put(self):
        cfg = _config(window=0.05)
        d = derivative_field(cfg, (0.9, 0.6, 0.2))
        assert d[2] == 0.0

    def test_multiplier_scales_leader(self):
        cfg = _config(leader_multiplier=2.0)
        d = derivative_field(cfg, (0.5, 0.5, 0.5))
        assert d[0] == pytest.approx(0.1, abs=1e-15)

    def test_state_length_checked(self):
        with pytest.raises(DomainError):
            derivative_field(_config(), (0.5, 0.5))

    @pytest.mark.parametrize("window", [None, 0.05, 0.2, 1.0])
    def test_matches_numpy_oracle_bit_for_bit_up_to_seven_voters(self, window):
        # numpy's pairwise sum is a left-to-right loop below 8 elements
        rng = random.Random(20240)
        for _ in range(200):
            n = rng.randint(1, 7)
            state = tuple(rng.random() for _ in range(n))
            cfg = _config(n=n, initial=state, leader_gain=rng.random(), window=window)
            expected = tuple(float(d) for d in numpy_field(cfg, np.asarray(state)))
            assert derivative_field(cfg, state) == expected


    def test_window_boundary_counts_as_inside(self):
        # |0.75 - 0.5| and |0.25 - 0.5| are exactly 0.25: each follower sees voter 1
        cfg = _config(initial=(0.5, 0.75, 0.25), window=0.25)
        d = derivative_field(cfg, (0.5, 0.75, 0.25))
        assert type(d) is tuple
        assert d == (0.1 * 0.5, 0.625 - 0.75, 0.375 - 0.25)

    @pytest.mark.parametrize("window", [None, 1.0])
    def test_means_are_left_to_right_sums_on_every_python(self, window):
        # ten 0.1s sum to 0.9999999999999999 left to right but to 1.0 under the
        # compensated built-in sum() of Python 3.12+, so followers would rest
        state = (0.1,) * 10
        cfg = _config(n=10, initial=state, leader_gain=0.0, window=window)
        total = 0.0
        for x in state:
            total += x
        assert total != 1.0
        assert derivative_field(cfg, state) == (0.0,) + (total / 10 - 0.1,) * 9


class TestIntegrate:
    def test_scalar_leader_closed_form(self):
        cfg = DynamicsConfig(n=1, initial=(0.5,), leader_gain=0.1, t_end=10.0, step=0.01)
        traj = integrate(cfg)
        exact = 1.0 - 0.5 * math.exp(-1.0)
        assert traj.final_state[0] == pytest.approx(exact, abs=1e-6)

    def test_equal_followers_constant(self):
        cfg = DynamicsConfig(n=3, initial=(0.7, 0.7, 0.7), leader_gain=0.0, t_end=5.0, step=0.01)
        traj = integrate(cfg)
        assert traj.final_state == pytest.approx((0.7, 0.7, 0.7), abs=1e-12)

    def test_times_strictly_increasing(self):
        traj = integrate(_config(t_end=1.0))
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        assert len(traj.times) == len(traj.states) == len(traj.group_curve) == 101

    def test_states_stay_in_unit_interval(self):
        traj = integrate(_config())
        flat = [x for s in traj.states for x in s]
        assert min(flat) >= 0.0 and max(flat) <= 1.0

    def test_rk4_follows_the_leader_only_inside_its_stability_limit(self):
        # step * multiplier * gain: 2.75 lies inside RK4's real stability
        # interval (to about 2.785), 3.0 outside, where only clamping shows it
        def run(gain):
            return integrate(
                DynamicsConfig(n=2, initial=(0.2, 0.5), leader_gain=gain, t_end=5.0, step=0.1, leader_multiplier=2.5)
            )

        inside, outside = run(11.0), run(12.0)
        assert inside.clamp_count == 0
        assert inside.final_state[0] == 0.9443678145936961
        assert outside.clamp_count == 71
        assert outside.final_state == (0.0, 1.0)

    def test_global_model_respects_initial_floor(self):
        # inward-pointing field: nobody ever sinks below the lowest start
        traj = integrate(_config())
        floor = min(traj.config.initial)
        assert all(x >= floor - 1e-12 for s in traj.states for x in s)

    @pytest.mark.parametrize("window", [None, 0.1])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_matches_numpy_oracle_for_larger_groups(self, n, window):
        # from 8 voters numpy sums pairwise, so the last bit may differ
        rng = random.Random(n)
        initial = tuple(rng.random() for _ in range(n))
        cfg = _config(n=n, initial=initial, t_end=2.0, step=0.01, window=window)
        traj = integrate(cfg)
        expected, _ = numpy_rk4_states(cfg)
        assert len(traj.states) == len(expected)
        for state, oracle in zip(traj.states, expected):
            assert state == pytest.approx(oracle, abs=1e-12)

    def test_matches_numpy_oracle_bit_for_bit_up_to_seven_voters(self):
        # a leader rate up to 75 per unit time makes RK4 overshoot, so the clamp
        # runs too: the leader falls below 0, and in the last config its stages
        # alone overshoot and pull the follower at 1 above 1
        rng = random.Random(26)
        configs = []
        for _ in range(150):
            n = rng.randint(1, 7)
            step = rng.uniform(0.001, 0.1)
            cfg = _config(
                n=n,
                initial=tuple(rng.random() for _ in range(n)),
                leader_gain=rng.uniform(0.0, 30.0),
                leader_multiplier=2.5,
                t_end=rng.randint(1, 60) * step,
                step=step,
                window=rng.choice([None, 0.05, 0.15, 1.0]),
            )
            configs.append(cfg)
        configs.append(_config(n=2, initial=(0.2, 1.0), leader_gain=11.2, leader_multiplier=2.5, t_end=1.0, step=0.1))
        clamped = 0
        for cfg in configs:
            traj = integrate(cfg)
            states, clamps = numpy_rk4_states(cfg)
            assert traj.states == tuple(states), cfg
            assert traj.clamp_count == clamps, cfg
            clamped += clamps > 0
        assert clamped >= 10

    def test_window_boundary_member_moves_in_one_step(self):
        # with the boundary outside, every follower would see only itself and stay put
        cfg = _config(initial=(0.5, 0.75, 0.25), leader_gain=0.0, t_end=0.01, window=0.25)
        traj = integrate(cfg)
        assert traj.states[1] == numpy_rk4_states(cfg)[0][1]
        assert traj.states[1][0] == 0.5
        assert traj.states[1][1] < 0.75 and traj.states[1][2] > 0.25

    def test_global_model_never_clamps(self):
        assert integrate(_config()).clamp_count == 0

    def test_group_curve_matches_majority(self):
        from jurylearn import MajorityRule, majority_prob_heterogeneous

        clamping = _config(
            n=4, initial=(0.6, 0.5, 0.45, 0.4), leader_gain=20.0, leader_multiplier=2.5, t_end=1.0, step=0.1,
            window=0.15,
        )
        trajectories = {name: integrate(load_scenario(name)) for name in list_scenarios()}
        trajectories["clamping"] = integrate(clamping)
        assert trajectories["clamping"].clamp_count > 0
        for name, traj in trajectories.items():
            expected = tuple(majority_prob_heterogeneous(s, MajorityRule.FAIR_COIN) for s in traj.states)
            assert traj.group_curve == expected, name

    def test_step_halving_consistency(self):
        a = integrate(_config(t_end=50.0, step=0.01))
        b = integrate(_config(t_end=50.0, step=0.005))
        diff = max(abs(x - y) for x, y in zip(a.final_state, b.final_state))
        assert diff <= 1e-8

    @pytest.mark.parametrize("name", list_scenarios())
    def test_step_halving_keeps_scenario_outcome(self, name):
        # RK4 is first order across a window switch: fastleader moves by ~3e-5 at step/2
        tol = 1e-4 if name == "window4-fastleader" else 1e-12
        config = load_scenario(name)
        a = classify_outcome(integrate(config))
        b = classify_outcome(integrate(dataclasses.replace(config, step=config.step / 2)))
        assert a.kind is b.kind
        assert [c.members for c in a.clusters] == [c.members for c in b.clusters]
        assert max(abs(x.value - y.value) for x, y in zip(a.clusters, b.clusters)) <= tol


class TestDriftScenario:
    def test_voter2_dips_then_everyone_rises(self):
        traj = integrate(load_scenario("drift3"))
        p2 = [s[1] for s in traj.states]
        early_min = min(p2[:1000])
        assert early_min < p2[0] - 1e-4
        assert all(x > 0.99 for x in traj.final_state)

    def test_group_curve_reaches_one(self):
        traj = integrate(load_scenario("drift3"))
        assert traj.group_curve[-1] > 0.999

    def test_sampled_mean_non_decreasing(self):
        # the leader's improvement outweighs the mean-preserving-ish drift
        # of the followers along this trajectory
        traj = integrate(load_scenario("drift3"))
        means = [math.fsum(s) / len(s) for s in traj.states]
        assert all(b >= a - 1e-15 for a, b in zip(means, means[1:]))


class TestWindowScenarios:
    def test_consensus_preset(self):
        out = classify_outcome(integrate(load_scenario("window4-consensus")))
        assert out.kind is OutcomeKind.CONSENSUS_AT_1

    def test_lowstart_preset_fragments_low_pair(self):
        traj = integrate(load_scenario("window4-lowstart"))
        p3 = [s[2] for s in traj.states]
        assert min(p3[:1000]) < p3[0] - 1e-4  # voter 3 initially decreasing
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.FRAGMENTED
        clusters = {c.members: c.value for c in out.clusters}
        assert clusters[(1, 2)] > 0.99
        assert 0.3 < clusters[(3, 4)] < 0.7

    def test_fastleader_preset_strands_followers(self):
        traj = integrate(load_scenario("window4-fastleader"))
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.FRAGMENTED
        clusters = {c.members: c.value for c in out.clusters}
        assert clusters[(1,)] > 0.99
        assert 0.5 < clusters[(2, 3, 4)] < 0.6

    def test_doubling_leader_gain_flips_outcome(self):
        base = load_scenario("window4-consensus")
        assert classify_outcome(integrate(base)).kind is OutcomeKind.CONSENSUS_AT_1
        fast = DynamicsConfig(
            n=base.n,
            initial=base.initial,
            leader_gain=base.leader_gain,
            t_end=base.t_end,
            step=base.step,
            leader_multiplier=2.0,
            window=base.window,
        )
        assert classify_outcome(integrate(fast)).kind is OutcomeKind.FRAGMENTED


class TestClassifyOutcome:
    def _settled(self, state, window=0.15):
        cfg = DynamicsConfig(
            n=len(state), initial=state, leader_gain=0.1, t_end=0.0, step=0.01, window=window
        )
        return integrate(cfg)

    def test_all_ones_consensus(self):
        out = classify_outcome(self._settled((1.0, 1.0, 1.0)))
        assert out.kind is OutcomeKind.CONSENSUS_AT_1
        assert out.clusters == (((1, 2, 3), 1.0),)

    def test_leader_alone(self):
        out = classify_outcome(self._settled((1.0, 0.52, 0.52, 0.52)))
        assert out.kind is OutcomeKind.FRAGMENTED
        clusters = {c.members: c.value for c in out.clusters}
        assert clusters == {(1,): 1.0, (2, 3, 4): pytest.approx(0.52)}

    def test_two_pairs(self):
        out = classify_outcome(self._settled((1.0, 1.0, 0.41, 0.41)))
        assert out.kind is OutcomeKind.FRAGMENTED
        assert {c.members for c in out.clusters} == {(1, 2), (3, 4)}

    def test_unsettled_raises(self):
        traj = integrate(_config(t_end=1.0))
        with pytest.raises(NotConvergedError):
            classify_outcome(traj)


class TestConfigFormat:
    def test_round_trip(self):
        cfg = _config(window=0.15, leader_multiplier=2.0)
        assert parse_dynamics_config(format_dynamics_config(cfg)) == cfg

    def test_parse_with_comments(self):
        text = """
        # three voters
        n = 3
        initial = 0.5, 0.6, 0.7   # starting competences
        kappa = 0.1
        t_end = 10
        step = 0.01
        """
        cfg = parse_dynamics_config(text)
        assert cfg.n == 3
        assert cfg.window is None
        assert cfg.leader_multiplier == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            "n = 3\ninitial = 0.5, 0.6\nkappa = 0.1\nt_end = 1\nstep = 0.01",  # wrong length
            "n = 3\ninitial = 0.5, 0.6, 0.7\nkappa = 0.1\nt_end = 1",  # missing step
            "n = 3\ninitial = 0.5, 0.6, 0.7\nkappa = 0.1\nt_end = 1\nstep = 0.01\nzap = 1",
            "n = 3\ninitial = 0.5, 0.6, 0.7\nkappa = 0.1\nkappa = 0.2\nt_end = 1\nstep = 0.01",
            "n three",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_dynamics_config(bad)

    def test_scenarios_listed(self):
        names = list_scenarios()
        assert {"drift3", "window4-consensus", "window4-lowstart", "window4-fastleader"} <= set(names)

    def test_unknown_scenario(self):
        with pytest.raises(DomainError):
            load_scenario("does-not-exist")


class TestTrajectoryTable:
    def test_header_and_shape(self):
        traj = integrate(_config(t_end=0.5))
        table = trajectory_table(traj)
        assert table.header == ("t", "p1", "p2", "p3", "P_group")
        assert len(table.rows) == len(traj.times)
        assert table.rows[0][0] == 0.0
        assert table.rows[0][1:4] == traj.states[0]
