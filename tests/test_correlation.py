"""Moment bound for correlated voters and the samplers that probe it."""

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from jurylearn import (
    CommonCoin,
    CompetenceVector,
    CovarianceSpec,
    DomainError,
    ExactMajoritySet,
    Independent,
    InfeasibleCovarianceError,
    ladha_bound,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
    model_moments,
    sample_majority_rate,
)
from jurylearn import correlation
from jurylearn.correlation import parse_model

from oracles import frechet_first_violation, sample_many_with_mean


def _indep_spec(probs):
    p = np.asarray(probs)
    return CovarianceSpec(CompetenceVector(probs), np.diag(p * (1 - p)))


def _shared_uniform_cov(probs, mix):
    # X_i = [U_i < p_i], all voters sharing one U with probability mix
    n = len(probs)
    cov = np.diag(probs * (1.0 - probs))
    for i in range(n):
        for j in range(i + 1, n):
            cov[i, j] = cov[j, i] = mix * (min(probs[i], probs[j]) - probs[i] * probs[j])
    return cov


def _nudged_case(rng, n):
    # competences with exact 0s and 1s, entries pushed onto and across the 1e-12 slack
    probs = rng.uniform(0.0, 1.0, n)
    probs[rng.random(n) < 0.1] = rng.choice([0.0, 1.0])
    cov = _shared_uniform_cov(probs, rng.choice([0.0, 0.5, 1.0]))
    for _ in range(rng.integers(0, 4 + n // 20)):
        i, j = sorted(rng.choice(n, 2, replace=False))
        lo = -min(probs[i] * probs[j], (1 - probs[i]) * (1 - probs[j]))
        hi = min(probs[i] * (1 - probs[j]), probs[j] * (1 - probs[i]))
        delta = rng.choice([-2e-12, -5e-13, -1e-13, 0.0, 1e-13, 5e-13, 2e-12])
        cov[i, j] = cov[j, i] = rng.choice([lo, hi]) + delta
    return probs, cov


class TestCovarianceSpec:
    @pytest.mark.parametrize("sizes", [range(2, 13), (150, 160)], ids=["small", "large"])
    def test_frechet_verdict_matches_loop_oracle(self, sizes):
        rng = np.random.default_rng(20240607)
        for n in sizes:
            for _ in range(60 if n < 100 else 3):
                probs, cov = _nudged_case(rng, n)
                first = frechet_first_violation(probs, cov)
                if first is None:
                    assert np.array_equal(CovarianceSpec(CompetenceVector(probs), cov).cov, cov)
                    continue
                i, j, value, lo, hi = first
                with pytest.raises(DomainError) as info:
                    CovarianceSpec(CompetenceVector(probs), cov)
                assert str(info.value) == (
                    f"cov[{i}][{j}] = {float(value)!r} violates the Frechet bounds [{float(lo)!r}, {float(hi)!r}]"
                )

    def test_rejects_non_finite_before_symmetry(self):
        cov = [[0.24, np.nan], [np.nan, 0.24]]
        with pytest.raises(DomainError, match="must be finite"):
            CovarianceSpec(CompetenceVector((0.6, 0.6)), cov)

    def test_rejects_asymmetric(self):
        cov = [[0.24, 0.1], [0.0, 0.24]]
        with pytest.raises(DomainError):
            CovarianceSpec(CompetenceVector((0.6, 0.6)), cov)

    def test_rejects_wrong_diagonal(self):
        cov = [[0.25, 0.0], [0.0, 0.24]]
        with pytest.raises(DomainError):
            CovarianceSpec(CompetenceVector((0.6, 0.6)), cov)

    def test_rejects_frechet_violation(self):
        # |cov| for two Bernoulli(0.6) is at most 0.24
        cov = [[0.24, 0.3], [0.3, 0.24]]
        with pytest.raises(DomainError) as info:
            CovarianceSpec(CompetenceVector((0.6, 0.6)), cov)
        assert str(info.value) == "cov[0][1] = 0.3 violates the Frechet bounds [-0.16000000000000003, 0.24]"

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            CovarianceSpec(CompetenceVector((0.6, 0.6)), np.zeros((3, 3)))


class TestModelMoments:
    def test_common_coin_zero_mix_is_independent(self):
        spec = model_moments(CommonCoin(n=3, p=0.6, mix=0.0))
        assert np.allclose(spec.cov, np.diag([0.24] * 3), atol=1e-15)

    def test_common_coin_full_mix(self):
        spec = model_moments(CommonCoin(n=3, p=0.6, mix=1.0))
        off = spec.cov[~np.eye(3, dtype=bool)]
        assert off == pytest.approx([0.24] * 6, abs=1e-15)

    def test_exact_majority_set_three(self):
        spec = model_moments(ExactMajoritySet(3))
        assert spec.p == pytest.approx([2 / 3] * 3, abs=1e-15)
        off = spec.cov[~np.eye(3, dtype=bool)]
        assert off == pytest.approx([-1 / 9] * 6, abs=1e-12)

    def test_exact_majority_rejects_even(self):
        with pytest.raises(DomainError):
            ExactMajoritySet(4)

    # Every matrix to the bit: p_i*(1 - p_i) on the diagonal, the model's
    # pair covariance off it, with the hex value each formula gives; p_0 is
    # 0.6 in every case.
    @pytest.mark.parametrize(
        "model, probs, pair, pair_hex",
        [
            (Independent(CompetenceVector((0.6, 0.7, 0.8))), (0.6, 0.7, 0.8), 0.0, "0x0.0p+0"),
            (CommonCoin(3, 0.6, 0.37), (0.6,) * 3, 0.37 * (0.6 * (1 - 0.6)), "0x1.6bb98c7e28240p-4"),
            (ExactMajoritySet(5), (3 / 5,) * 5, 3 * 2 / (5 * 4) - (3 / 5) * (3 / 5), "-0x1.eb851eb851eb8p-5"),
        ],
        ids=["independent", "commoncoin", "exactmajority"],
    )
    def test_matrix_bits_follow_the_formulas(self, model, probs, pair, pair_hex):
        assert pair.hex() == pair_hex
        expected = np.array([[p * (1 - p) if i == j else pair for j in range(len(probs))] for i, p in enumerate(probs)])
        cov = model_moments(model).cov
        assert np.array_equal(cov.view(np.uint64), expected.view(np.uint64))
        assert cov[0, 0].hex() == "0x1.eb851eb851eb8p-3"


class TestLadhaBound:
    def test_independent_example(self):
        bound = ladha_bound(_indep_spec((0.6, 0.6, 0.6)))
        assert bound == pytest.approx(1 / 9, abs=1e-12)
        assert majority_prob_homogeneous(3, 0.6) >= bound

    def test_exact_majority_saturates_at_one(self):
        assert ladha_bound(model_moments(ExactMajoritySet(3))) == pytest.approx(1.0, abs=1e-9)

    def test_exact_majority_moments_pin_the_bound_at_one(self):
        # the vote count is the constant ceil(n/2), so sigma^2 = 0 exactly
        # and the bound saturates at 1 for every n; dropping the covariance
        # term instead would degrade it to 1/(n+1); at 179, 187, 1001 and 2001
        # a pair covariance taken as a difference of floats puts sigma^2
        # below -1e-12, and the bound refuses the model as infeasible
        for n in (3, 7, 15, 31, 63, 179, 187, 1001, 2001):
            spec = model_moments(ExactMajoritySet(n))
            sigma2 = float(np.diag(spec.cov).sum() + 2.0 * np.triu(spec.cov, 1).sum())
            assert abs(sigma2) < 1e-12
            bound = ladha_bound(spec)
            assert bound == pytest.approx(1.0, abs=1e-9)
            variances_only = 0.25 / (float(np.diag(spec.cov).sum()) + 0.25)
            assert variances_only == pytest.approx(n / (n * n + n - 1), rel=1e-9)

    def test_mean_at_half_rejected(self):
        with pytest.raises(DomainError):
            ladha_bound(_indep_spec((0.5, 0.5, 0.5)))

    def test_jointly_infeasible_covariance(self):
        # three pairwise-feasible maximally negative correlations cannot coexist
        p = CompetenceVector((0.55, 0.55, 0.55))
        v = 0.55 * 0.45
        lo = -min(0.55**2, 0.45**2)
        cov = np.full((3, 3), lo)
        np.fill_diagonal(cov, v)
        with pytest.raises(InfeasibleCovarianceError):
            ladha_bound(CovarianceSpec(p, cov))

    def test_dominated_by_truth_on_independent_juries(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.choice([3, 5, 7, 9, 11]))
            probs = sample_many_with_mean(rng, 1, n, rng.uniform(0.55, 0.95))[0]
            v = CompetenceVector(probs)
            if v.mean() <= 0.5:
                continue
            truth = majority_prob_heterogeneous(v)
            assert truth >= ladha_bound(model_moments(Independent(v))) - 1e-12

    def test_strictly_decreasing_in_mix(self):
        bounds = [
            ladha_bound(model_moments(CommonCoin(n=5, p=0.6, mix=lam)))
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))


class TestSampling:
    def test_exact_majority_always_correct(self):
        result = sample_majority_rate(ExactMajoritySet(5), trials=1000, seed=7)
        assert result.estimate == 1.0

    def test_independent_matches_exact_value(self):
        model = Independent(CompetenceVector((0.6, 0.6, 0.6)))
        result = sample_majority_rate(model, trials=200_000, seed=42)
        assert abs(result.estimate - 0.648) <= 4 * result.stderr

    def test_full_mix_copies_the_coin(self):
        result = sample_majority_rate(CommonCoin(n=3, p=0.6, mix=1.0), trials=200_000, seed=9)
        assert abs(result.estimate - 0.6) <= 4 * result.stderr

    def test_seed_determinism(self):
        model = CommonCoin(n=5, p=0.6, mix=0.3)
        a = sample_majority_rate(model, trials=123_457, seed=11)
        b = sample_majority_rate(model, trials=123_457, seed=11)
        assert a.estimate == b.estimate and a.stderr == b.stderr
        c = sample_majority_rate(model, trials=123_457, seed=12)
        assert c.estimate != a.estimate

    def test_even_group_fair_coin(self):
        # two voters: correct iff both vote 1, plus half the tie mass
        model = Independent(CompetenceVector((0.5, 0.5)))
        result = sample_majority_rate(model, trials=200_000, seed=3)
        assert abs(result.estimate - 0.5) <= 4 * result.stderr

    def test_sampled_rate_non_increasing_in_mix(self):
        # positive correlation hurts: the exact rate is lam*p + (1-lam)*P(n,p)
        lams = (0.0, 0.25, 0.5, 0.75, 1.0)
        results = [
            sample_majority_rate(CommonCoin(n=11, p=0.6, mix=lam), trials=100_000, seed=17)
            for lam in lams
        ]
        for a, b in zip(results, results[1:]):
            slack = 4 * (a.stderr + b.stderr)
            assert b.estimate <= a.estimate + slack
        exact = [
            lam * 0.6 + (1 - lam) * majority_prob_homogeneous(11, 0.6) for lam in lams
        ]
        for r, e in zip(results, exact):
            assert abs(r.estimate - e) <= 4 * r.stderr + 1e-9

    def test_continuity_probe(self):
        # nearby mixes produce nearby rates at Monte Carlo resolution
        r1 = sample_majority_rate(CommonCoin(n=11, p=0.6, mix=0.5), trials=100_000, seed=23)
        r2 = sample_majority_rate(CommonCoin(n=11, p=0.6, mix=0.51), trials=100_000, seed=24)
        drift = 0.01 * abs(majority_prob_homogeneous(11, 0.6) - 0.6)
        assert abs(r1.estimate - r2.estimate) <= drift + 4 * (r1.stderr + r2.stderr)

    def test_trials_validated(self):
        with pytest.raises(DomainError):
            sample_majority_rate(ExactMajoritySet(3), trials=0, seed=1)

    # Exact results at seed 7 on both sides of the 65,536-trial chunk
    # boundary: the second chunk draws from its own stream.
    CHUNK_BOUNDARY = {
        "commoncoin-odd": (
            CommonCoin(11, 0.6, 0.5),
            (0.6774749755859375, 0.0018259478599264454),
            (0.6774798968521598, 0.0018259266304463209),
        ),
        "independent": (
            Independent(CompetenceVector((0.6, 0.7, 0.8))),
            (0.78985595703125, 0.0015914482659558173),
            (0.7898591635259472, 0.0015914272130174974),
        ),
        "commoncoin-even": (
            CommonCoin(4, 0.6, 0.3),
            (0.631011962890625, 0.0018848855029053857),
            (0.6310175931153394, 0.0018848651511029074),
        ),
    }

    @pytest.mark.parametrize("model, one_chunk, two_chunks", CHUNK_BOUNDARY.values(), ids=CHUNK_BOUNDARY.keys())
    def test_chunk_boundary_results_are_pinned(self, model, one_chunk, two_chunks):
        assert tuple(sample_majority_rate(model, 65_536, 7)) == one_chunk
        assert tuple(sample_majority_rate(model, 65_537, 7)) == two_chunks

    # The pool sums exact per-chunk hit counts, so every pool size (and the
    # per-worker block size derived from it) gives the sequential sum.
    POOLED = {
        "commoncoin-odd": CommonCoin(5, 0.6, 0.4),
        "commoncoin-even": CommonCoin(4, 0.6, 0.3),
        "independent-odd": Independent((0.6, 0.7, 0.55)),
        "independent-even": Independent((0.6, 0.7, 0.55, 0.8)),
        "exactmajority": ExactMajoritySet(5),
    }

    @pytest.mark.parametrize("model", POOLED.values(), ids=POOLED.keys())
    def test_pool_matches_a_sequential_run(self, model, monkeypatch):
        chunk, seed = 65_536, 5
        for trials in (1, chunk, chunk + 1, 16 * chunk + 3):
            hits = sum(
                correlation._count_correct(model, min(chunk, trials - start), np.random.default_rng([seed, start // chunk]))
                for start in range(0, trials, chunk)
            )
            for workers in (1, 2, 3):
                with ThreadPoolExecutor(workers) as pool, monkeypatch.context() as patch:
                    patch.setattr(correlation, "_WORKERS", workers)
                    patch.setattr(correlation, "_pool", lambda: pool)
                    assert sample_majority_rate(model, trials, seed).estimate == hits / trials

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_pool_of_its_own(self):
        # a forked child inherits the parent's pool object but none of its
        # threads, so reusing that pool would wait forever
        model, trials = CommonCoin(5, 0.6, 0.3), 3 * 65_536
        expected = sample_majority_rate(model, trials, 1)  # the parent's pool is running now
        context = multiprocessing.get_context("fork")
        results = context.SimpleQueue()
        child = context.Process(target=lambda: results.put(sample_majority_rate(model, trials, 1)))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        child.kill()
        child.join()
        assert not hung and results.get() == expected


class TestParseModel:
    def test_independent(self):
        model = parse_model("independent:probs=0.6,0.7,0.8")
        assert isinstance(model, Independent)
        assert model.p == (0.6, 0.7, 0.8)

    def test_commoncoin(self):
        model = parse_model("commoncoin:p=0.6,lambda=0.5,n=5")
        assert model == CommonCoin(n=5, p=0.6, mix=0.5)

    def test_exactmajority(self):
        assert parse_model("exactmajority:n=5") == ExactMajoritySet(5)

    def test_values_are_stored_as_checked(self):
        model = CommonCoin(n="5.0", p="0.6", mix=1)
        assert (model.n, model.p, model.mix) == (5, 0.6, 1.0)
        assert (type(model.n), type(model.p), type(model.mix)) == (int, float, float)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "independent",
            "commoncoin:p=0.6",
            "exactmajority:n=4",
            "weird:x=1",
            "commoncoin:p=a,lambda=0.5,n=3",
            "exactmajority:n=5,p=0.3",  # unknown field
            "commoncoin:p=0.6,lambda=0.5,n=5,bogus=3",
            "independent:probs=0.6,0.7,n=5",
            "independent:probs=0.6,probs=0.7,0.8",  # duplicate field
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_model(bad)
