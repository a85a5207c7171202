"""The in-package special functions and every likelihood formula built on
them, bit for bit against scipy.special as the oracle."""
import math

import numpy as np
from scipy import special as sp

from conftest import (
    random_dataset,
    random_params,
    reference_binomial_cost,
    reference_distance_variance_total,
    reference_expected_distance_total,
    reference_level_weights,
)
from mallows_binomial import compute_stats, fit_given_order, kendall, log_density, log_psi, moments, objective, special
from mallows_binomial.fitting import log_psi_total, mean_kendall_distance


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def weight_p_pairs(n, seed):
    """Seeded (weight, p) pairs: weights of the forms count * mean and
    count * (M - mean), a seventh of them 0; p uniform on [0, 1], dense on
    both sides of Cephes' log1p branch at 1 - p = sqrt(1/2), and exactly 0 and 1."""
    rng = np.random.default_rng(seed)
    weight = rng.integers(0, 40, n) * rng.choice([1.0, 0.5, 2.0 / 3.0, 2.25], n)
    weight[::7] = 0.0
    edge = 1.0 - math.sqrt(0.5)
    p = np.concatenate([
        rng.uniform(size=n // 2),
        rng.uniform(0.0, 0.35, n // 4),
        edge + rng.uniform(-1e-9, 1e-9, n - n // 2 - n // 4 - 4),
        [0.0, 1.0, edge, np.nextafter(edge, 1.0)],
    ])
    p[rng.permutation(n)[: n // 50]] = rng.choice([0.0, 1.0], n // 50)
    return weight, p


def test_xlogy_and_xlog1py_match_scipy_bitwise():
    weight, p = weight_p_pairs(120_000, seed=91)
    z = 1.0 - p
    inner = (z >= math.sqrt(0.5)).sum()
    assert 20_000 < inner < 100_000 and (p == 0).sum() > 1000 and (p == 1).sum() > 1000
    pairs = list(zip(weight.tolist(), p.tolist()))
    assert bits([special.xlogy(w, q) for w, q in pairs]) == bits(sp.xlogy(weight, p))
    assert bits([special.xlog1py(w, -q) for w, q in pairs]) == bits(sp.xlog1py(weight, -p))


def test_log1p_matches_scipy_beyond_the_unit_interval():
    y = np.random.default_rng(92).uniform(-0.99, 2.0, 100_000)
    assert bits([special.log1p(v) for v in y.tolist()]) == bits(sp.log1p(y))
    for v in (-1.0, -2.0, math.nan, math.inf):
        assert bits(special.log1p(v)) == bits(sp.log1p(v))


def test_gammaln_matches_scipy_at_every_integer_to_1e5():
    n = np.arange(1, 100_001)
    assert bits([special.gammaln(k) for k in n.tolist()]) == bits(sp.gammaln(n.astype(float)))
    for k in (10**6, 10**8, 10**8 + 1, 10**12):
        assert bits(special.gammaln(k)) == bits(sp.gammaln(float(k)))


def scipy_objective(stats, params) -> float:
    total = reference_binomial_cost(params.p, stats.a, stats.b)
    if stats.n_rankers:
        total += params.theta * mean_kendall_distance(stats, params.consensus_order) * stats.n_rankers
        total += log_psi_total(params.theta, stats.length_profile)
    return float(total)


def scipy_log_density(row, ranking, params, M) -> float:
    row = np.asarray(row, dtype=float)
    observed = ~np.isnan(row)
    x, p = row[observed], params.p[observed]
    binom_coef = sp.gammaln(M + 1) - sp.gammaln(x + 1) - sp.gammaln(M - x + 1)
    total = float(np.sum(binom_coef + sp.xlogy(x, p) + sp.xlog1py(M - x, -p)))
    if ranking is not None:
        d = kendall.distance(ranking, params.consensus_order)
        total += -params.theta * d - log_psi(params.theta, len(ranking), params.J)
    return total


def test_likelihood_formulas_match_scipy_bitwise():
    rng = np.random.default_rng(93)
    for case in range(40):
        ds = random_dataset(rng, missing_scores=0.2, missing_rankings=0.3)
        stats = compute_stats(ds)
        order = tuple(int(o) for o in rng.permutation(ds.J))
        fitted = fit_given_order(stats, order).params
        for params in (fitted, random_params(rng, ds.J)):
            if params.theta is None:
                continue
            assert bits(objective(stats, params)) == bits(scipy_objective(stats, params))
            for row, ranking in zip(ds.scores, ds.rankings):
                assert bits(log_density(row, ranking, params, ds.M)) == bits(
                    scipy_log_density(row, ranking, params, ds.M))
            for R in (R for R, count in enumerate(stats.length_profile, 1) if count):
                weights = reference_level_weights((R,), ds.J)
                assert moments(params.theta, R, ds.J) == (reference_expected_distance_total(params.theta, *weights),
                                                          reference_distance_variance_total(params.theta, *weights))
    for J in range(1, 30):
        for R in range(1, J + 1):
            assert bits(log_psi(0.0, R, J)) == bits(float(sp.gammaln(J + 1) - sp.gammaln(J - R + 1)))


def test_boundary_terms_keep_scipy_conventions():
    # 0 * log(0) = 0; a positive weight on an impossible side is -inf
    assert special.xlogy(0.0, 0.0) == 0.0 and special.xlog1py(0.0, -1.0) == 0.0
    assert special.xlogy(2.0, 0.0) == -math.inf and special.xlog1py(2.0, -1.0) == -math.inf
    assert math.isnan(special.xlogy(0.0, math.nan)) and math.isnan(special.xlog1py(0.0, math.nan))
