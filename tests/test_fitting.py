import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, xlog1py, xlogy

from conftest import (
    length_profile,
    random_dataset,
    reference_fit_p_core,
    reference_distance_variance_total,
    reference_expected_distance_total,
    reference_fit_theta,
    reference_level_weights,
    structural_oracle,
    sweep_fit_p,
)
from mallows_binomial import (
    Dataset,
    Parameters,
    SufficientStats,
    compute_stats,
    fit_given_order,
    fit_theta,
    log_density,
    moments,
    objective,
)
from mallows_binomial import fitting
from mallows_binomial.fitting import THETA_FLOOR, _fit_p_core, log_psi_total, mean_kendall_distance


def make_score_stats(mean, count, M):
    mean = np.asarray(mean, dtype=float)
    count = np.asarray(count, dtype=float)
    J = mean.size
    return SufficientStats(J=J, M=M, mean_score=mean, score_count=count,
                           Q=np.zeros((J, J)), length_profile=(0,) * J)


def binomial_cost(p, mean, count, M):
    a = count * np.where(count > 0, mean, 0.0)
    b = count * np.where(count > 0, M - mean, 0.0)
    return float(-np.sum(xlogy(a, p) + xlog1py(b, -p)))


# ---------------------------------------------------------------------------
# fit_theta
# ---------------------------------------------------------------------------

def test_fit_theta_closed_form():
    theta, flag = fit_theta(0.25, (0, 1), theta_max=10.0)
    assert flag == "interior"
    assert theta == pytest.approx(math.log(3), abs=1e-8)


def test_fit_theta_zero_distance_caps():
    theta, flag = fit_theta(0.0, (0, 3), theta_max=4.0)
    assert flag == "cap" and theta == 4.0


def test_fit_theta_uniform_distance_floors():
    theta, flag = fit_theta(0.5, (0, 1), theta_max=10.0)
    assert flag == "floor" and theta == THETA_FLOOR


def test_fit_theta_empty_rankings_undefined():
    theta, flag = fit_theta(0.3, (0, 0, 0, 0), theta_max=6.0)
    assert theta is None and flag == "undefined"


def test_fit_theta_first_order_condition():
    rng = np.random.default_rng(0)
    for _ in range(25):
        J = int(rng.integers(2, 8))
        lengths = [int(rng.integers(1, J + 1)) for _ in range(int(rng.integers(1, 6)))]
        uniform_mean = sum(moments(1e-9, R, J)[0] for R in lengths) / len(lengths)
        D = float(rng.uniform(0.02, 0.9)) * uniform_mean
        theta, flag = fit_theta(D, length_profile(lengths, J), theta_max=J + 2)
        if flag != "interior":
            continue
        expected_total = sum(moments(theta, R, J)[0] for R in lengths)
        assert abs(D * len(lengths) - expected_total) <= 1e-6


def test_fit_theta_matches_reference_solver_bitwise():
    # Top-R and full rankings with J <= 24, distances from 0 to above the
    # uniform-limit mean; theta_max = 800 overflows expm1 at the cap.
    rng = np.random.default_rng(4)
    flags = Counter()
    for case in range(2400):
        J = int(rng.integers(2, 25))
        n = int(rng.integers(1, 9))
        lengths = [J if rng.random() < 0.5 else int(rng.integers(1, J + 1)) for _ in range(n)]
        w, k, sum_r = reference_level_weights(lengths, J)
        uniform_mean = reference_expected_distance_total(THETA_FLOOR, w, k, sum_r) / n
        D = 0.0 if case % 7 == 0 else float(rng.uniform(0.0, 1.2)) * uniform_mean
        if case % 3 == 0:
            D = round(D * n) / n  # the lattice an observed panel lands on
        theta_max = (None, 0.5, 60.0, 800.0)[case % 4]
        got = fit_theta(D, length_profile(lengths, J), theta_max)
        assert got == reference_fit_theta(D, lengths, J, theta_max), (D, lengths, J, theta_max)
        flags[got[1]] += 1
    assert min(flags[f] for f in ("floor", "cap", "interior")) >= 100, flags


def test_scale_fit_reads_lengths_as_a_multiset():
    # A bootstrap replicate draws the judges in any order: panels holding one
    # multiset of ranking lengths in different judge orders must give one
    # length profile, whose scale fit hits the caches the first one filled.
    rng = np.random.default_rng(5)
    for J in (3, 8, 20):
        ds = random_dataset(rng, J=J, I=40, R=J)
        lengths = [int(rng.integers(1, J + 1)) for _ in range(ds.I)]
        ds = Dataset(J=J, M=ds.M, scores=ds.scores, rankings=tuple(r[:R] for r, R in zip(ds.rankings, lengths)))
        fitting._level_weights.cache_clear()
        fitting._distance_at_floor_and_cap.cache_clear()
        profile = compute_stats(ds).length_profile
        D = 0.3 * reference_expected_distance_total(1.0, *reference_level_weights(lengths, J)) / len(lengths)
        first = fit_theta(D, profile), log_psi_total(0.7, profile)
        misses = fitting._level_weights.cache_info().misses, fitting._distance_at_floor_and_cap.cache_info().misses
        for _ in range(5):
            shuffled = compute_stats(ds, rng.permutation(ds.I)).length_profile
            assert shuffled == profile
            again = fit_theta(D, shuffled), log_psi_total(0.7, shuffled)
            assert repr(again) == repr(first)
        assert first[0] == reference_fit_theta(D, lengths, J)
        assert (fitting._level_weights.cache_info().misses,
                fitting._distance_at_floor_and_cap.cache_info().misses) == misses


def test_moments_match_reference_pair_bitwise():
    for J in range(1, 25):
        for R in range(1, J + 1):
            w, k, sum_r = reference_level_weights((R,), J)
            for theta in (THETA_FLOOR, 0.1, 1.0, 5.0, 60.0, 800.0):
                expected = (reference_expected_distance_total(theta, w, k, sum_r),
                            reference_distance_variance_total(theta, w, k, sum_r))
                assert moments(theta, R, J) == expected, (theta, R, J)


@pytest.mark.parametrize("mean_distance, theta_max", [
    (np.nan, None), (np.inf, None), (-0.5, None),
    (0.5, np.nan), (0.5, -1.0), (0.5, 0.0), (0.5, THETA_FLOOR), (0.5, np.inf),
])
def test_fit_theta_rejects_invalid_input(mean_distance, theta_max):
    with pytest.raises(ValueError):
        fit_theta(mean_distance, (0, 0, 2), theta_max=theta_max)


# ---------------------------------------------------------------------------
# _fit_p_core: the order-constrained p fit
# ---------------------------------------------------------------------------

def test_fit_p_unconstrained_optimum_feasible():
    stats = make_score_stats([1.0, 2.0, 4.0], [3, 3, 3], M=10)
    assert _fit_p_core(stats, (0, 1, 2)).tolist() == [0.1, 0.2, 0.4]


def test_fit_p_chain_pooling():
    stats = make_score_stats([3.0, 1.0], [2, 2], M=10)
    p = _fit_p_core(stats, (0, 1))
    assert p.tolist() == [0.2, 0.2]


def test_fit_p_prefix_star():
    stats = make_score_stats([5.0, 2.0, 9.0], [1, 1, 1], M=10)
    p = _fit_p_core(stats, (0,))
    assert np.allclose(p, [0.35, 0.35, 0.9], atol=1e-12)


def test_fit_p_weighted_pooling():
    # unequal counts: pooled value is (sum count*mean) / (sum count*M)
    stats = make_score_stats([4.0, 1.0], [1, 3], M=4)
    p = _fit_p_core(stats, (0, 1))
    pooled = (1 * 4.0 + 3 * 1.0) / ((1 + 3) * 4)
    assert np.allclose(p, [pooled, pooled], atol=1e-12)


def test_fit_p_zero_count_conventions():
    mean = np.array([2.0, np.nan, 6.0, np.nan])
    stats = make_score_stats(mean, [2, 0, 2, 0], M=10)
    p = _fit_p_core(stats, (0, 1, 2))
    assert p[0] == 0.2 and p[2] == 0.6
    assert p[1] == p[0]         # chain gap takes the preceding value
    assert p[3] == p[2]         # free zero-count leaf takes the top chain value
    all_zero = make_score_stats(np.full(2, np.nan), [0, 0], M=3)
    assert _fit_p_core(all_zero, (1,)).tolist() == [0.5, 0.5]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fit_p_matches_structural_oracle(data):
    J = data.draw(st.integers(2, 6))
    M = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, J))
    perm = data.draw(st.permutations(range(J)))
    prefix = tuple(perm[:k])
    free = tuple(sorted(perm[k:]))
    # means on the integer grid plus occasional exact ties and boundaries
    mean = np.array([data.draw(st.sampled_from([0, M // 2, M, data.draw(st.integers(0, M))]))
                     for _ in range(J)], dtype=float)
    count = np.array([data.draw(st.integers(1, 5)) for _ in range(J)], dtype=float)
    stats = make_score_stats(mean, count, M)
    p = _fit_p_core(stats, prefix)
    cost = binomial_cost(p, mean, count, M)
    oracle_cost, _ = structural_oracle(mean, count, M, prefix, free)
    assert cost <= oracle_cost + 1e-6
    assert oracle_cost <= cost + 1e-6
    # feasibility is exact
    chain_vals = p[list(prefix)]
    assert np.all(np.diff(chain_vals) >= -1e-12)
    for j in free:
        assert p[j] >= chain_vals[-1] - 1e-12


def test_fit_p_matches_sweep_oracle():
    # one PAVA over the chain plus the ascending leaves equals the leaf-pooling
    # sweep, with zero-count objects and empty and full prefixes; a full order
    # makes the same PAVA call, so it agrees exactly
    rng = np.random.default_rng(2024)
    for _ in range(700):
        J = int(rng.integers(1, 21))
        M = int(rng.integers(1, 11))
        perm = [int(v) for v in rng.permutation(J)]
        count = rng.integers(1, 4, size=J).astype(float)
        count[rng.random(J) < 0.3] = 0
        mean = np.where(count > 0, rng.integers(0, 2 * M + 1, size=J) / 2, np.nan)
        stats = make_score_stats(mean, count, M)
        for k in {0, int(rng.integers(0, J + 1)), J}:
            prefix, free = tuple(perm[:k]), tuple(sorted(perm[k:]))
            p = _fit_p_core(stats, prefix)
            oracle = sweep_fit_p(mean, count, M, prefix, free)
            if free:
                assert np.max(np.abs(p - oracle)) <= 1e-12
            else:
                assert np.array_equal(p, oracle)


def test_fit_p_core_matches_reference_bitwise():
    # the p fit on the stats' cached score view (Python floats, presorted
    # free objects) makes the numpy reference's IEEE operations in its order:
    # 1,200 panels with J <= 20 and zero-count objects, each at an empty, a
    # random and a full prefix, with free objects in object or shuffled order
    rng = np.random.default_rng(7117)
    cases = 0
    for _ in range(1200):
        J = int(rng.integers(1, 21))
        M = int(rng.integers(1, 11))
        count = rng.integers(0, 6, size=J).astype(float)
        sums = np.floor(rng.random(J) * (count * M + 1))
        with np.errstate(invalid="ignore"):
            mean = np.where(count > 0, sums / np.maximum(count, 1), np.nan)
        stats = make_score_stats(mean, count, M)
        assert stats.a.tobytes() == (count * np.where(count > 0, mean, 0.0)).tobytes()
        assert stats.b.tobytes() == (count * np.where(count > 0, M - mean, 0.0)).tobytes()
        perm = [int(v) for v in rng.permutation(J)]
        for k in (0, int(rng.integers(0, J + 1)), J):
            prefix, free = tuple(perm[:k]), sorted(perm[k:])
            if rng.random() < 0.5:
                rng.shuffle(free)
            got = _fit_p_core(stats, prefix)
            assert got.dtype == np.float64
            assert got.tobytes() == reference_fit_p_core(stats, prefix, tuple(free)).tobytes()
            cases += 1
    assert cases >= 3000


def test_fit_p_beats_random_feasible_points():
    rng = np.random.default_rng(42)
    for _ in range(10):
        J = int(rng.integers(2, 7))
        M = int(rng.integers(1, 10))
        k = int(rng.integers(1, J + 1))
        perm = rng.permutation(J)
        prefix = tuple(int(v) for v in perm[:k])
        free = [int(v) for v in perm[k:]]
        mean = rng.integers(0, M + 1, size=J).astype(float)
        count = rng.integers(1, 6, size=J).astype(float)
        stats = make_score_stats(mean, count, M)
        p_hat = _fit_p_core(stats, prefix)
        best = binomial_cost(p_hat, mean, count, M)
        for _ in range(2000):
            cand = np.empty(J)
            chain_vals = np.sort(rng.uniform(size=k))
            cand[list(prefix)] = chain_vals
            top = chain_vals[-1]
            for j in free:
                cand[j] = top + (1 - top) * rng.uniform()
            assert best <= binomial_cost(cand, mean, count, M) + 1e-9


def test_fit_p_constraint_monotonicity():
    # extending the prefix can only increase the optimal constrained cost
    rng = np.random.default_rng(9)
    for _ in range(20):
        J = int(rng.integers(3, 7))
        M = 6
        mean = rng.integers(0, M + 1, size=J).astype(float)
        count = rng.integers(1, 4, size=J).astype(float)
        stats = make_score_stats(mean, count, M)
        perm = [int(v) for v in rng.permutation(J)]
        prev_cost = -np.inf
        for k in range(J + 1):
            p = _fit_p_core(stats, tuple(perm[:k]))
            cost = binomial_cost(p, mean, count, M)
            assert cost >= prev_cost - 1e-9
            prev_cost = cost


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def log_density_total_with_constants(ds, params):
    total = 0.0
    consts = 0.0
    for row, ranking in zip(ds.scores, ds.rankings):
        total += log_density(row, ranking, params, ds.M)
        x = row[np.isfinite(row)]
        consts += float(np.sum(gammaln(ds.M + 1) - gammaln(x + 1) - gammaln(ds.M - x + 1)))
    return total, consts


def test_objective_matches_log_density_sum():
    rng = np.random.default_rng(14)
    for _ in range(15):
        ds = random_dataset(rng, missing_scores=0.2, missing_rankings=0.3)
        p = np.sort(rng.uniform(0.05, 0.95, size=ds.J))
        order = tuple(rng.permutation(ds.J))
        p_by_obj = np.empty(ds.J)
        p_by_obj[list(order)] = p
        params = Parameters(p=p_by_obj, theta=float(rng.uniform(0.2, 3.0)), consensus_order=order)
        loglik, consts = log_density_total_with_constants(ds, params)
        assert objective(ds, params) == pytest.approx(-loglik + consts, abs=1e-10)


def test_objective_kendall_term_zero_when_unanimous():
    order = (2, 0, 1)
    ds = Dataset(J=3, M=4, scores=np.array([[2.0, 3.0, 1.0]] * 3), rankings=(order,) * 3)
    stats = compute_stats(ds)
    assert mean_kendall_distance(stats, order) == 0.0
    p = np.array([0.5, 0.75, 0.25])
    params = Parameters(p=p, theta=2.0, consensus_order=order)
    with_rank = objective(stats, params)
    score_only = objective(
        SufficientStats(J=3, M=4, mean_score=stats.mean_score, score_count=stats.score_count,
                        Q=np.zeros((3, 3)), length_profile=(0, 0, 0)),
        params)
    from mallows_binomial.fitting import log_psi_total

    assert with_rank - score_only == pytest.approx(log_psi_total(2.0, (0, 0, 3)), abs=1e-12)


def test_objective_checks_a_given_M():
    rng = np.random.default_rng(15)
    ds = random_dataset(rng, missing_scores=0.2, missing_rankings=0.3)
    stats = compute_stats(ds)
    params = fit_given_order(stats, tuple(range(ds.J))).params
    assert objective(stats, params, stats.M) == objective(stats, params)
    assert objective(ds, params, ds.M) == objective(ds, params)
    for data in (stats, ds):
        with pytest.raises(ValueError, match="score scale"):
            objective(data, params, M=stats.M + 1)


# ---------------------------------------------------------------------------
# fit_given_order
# ---------------------------------------------------------------------------

def test_fit_given_order_unanimous():
    order = (1, 0, 2)
    scores = np.array([[3.0, 1.0, 5.0]])
    ds = Dataset(J=3, M=10, scores=scores, rankings=(order,))
    cond = fit_given_order(compute_stats(ds), order)
    assert np.allclose(cond.params.p, [0.3, 0.1, 0.5])
    assert cond.theta_flag == "cap" and cond.params.theta_at_cap


def test_fit_given_order_dominates_feasible_candidates():
    rng = np.random.default_rng(77)
    for _ in range(8):
        ds = random_dataset(rng, missing_scores=0.1, missing_rankings=0.2)
        stats = compute_stats(ds)
        order = tuple(int(v) for v in rng.permutation(ds.J))
        cond = fit_given_order(stats, order)
        cap = ds.J + 2
        assert cond.f_value == pytest.approx(objective(stats, cond.params), abs=1e-10)
        for _ in range(400):
            vals = np.sort(rng.uniform(size=ds.J))
            p = np.empty(ds.J)
            p[list(order)] = vals
            theta = float(rng.uniform(THETA_FLOOR, cap))
            cand = Parameters(p=p, theta=theta, consensus_order=order)
            assert cond.f_value <= objective(stats, cand) + 1e-9


def test_fit_given_order_invariant_beyond_observed_distinctions():
    scores = np.array([[1.0, 3.0, np.nan, np.nan]])
    ds = Dataset(J=4, M=5, scores=scores, rankings=((0,),))
    stats = compute_stats(ds)
    a = fit_given_order(stats, (0, 1, 2, 3))
    b = fit_given_order(stats, (0, 1, 3, 2))
    assert a.f_value == pytest.approx(b.f_value, abs=1e-12)


def test_fit_given_order_score_only_has_no_theta():
    ds = Dataset(J=2, M=3, scores=np.array([[1.0, 2.0]]), rankings=(None,))
    cond = fit_given_order(compute_stats(ds), (0, 1))
    assert cond.params.theta is None and cond.theta_flag == "undefined"
