import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_psi,
    enumerate_outcomes,
    length_profile,
    pairwise_wins_oracle,
    random_dataset,
    reference_stats,
)
from mallows_binomial import (
    Dataset,
    Parameters,
    SufficientStats,
    astar,
    compute_stats,
    log_density,
    log_psi,
    moments,
    order_of,
    psi,
    sample,
)
from mallows_binomial import fitting


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

def test_psi_single_object():
    assert psi(2.7, 1, 1) == pytest.approx(1.0, abs=1e-14)


def test_psi_uniform_limit():
    assert psi(0.0, 2, 3) == pytest.approx(6.0, abs=1e-12)
    assert psi(1e-12, 2, 3) == pytest.approx(6.0, rel=1e-9)


def test_psi_two_objects_closed_form():
    assert psi(1.0, 2, 2) == pytest.approx(1 + math.exp(-1), abs=1e-12)


def test_psi_matches_brute_force_sum():
    for J in range(1, 7):
        for R in range(1, J + 1):
            for theta in (0.1, 1.0, 5.0):
                assert psi(theta, R, J) == pytest.approx(brute_psi(theta, R, J), abs=1e-10)


def test_psi_rejects_bad_shape():
    with pytest.raises(ValueError):
        psi(1.0, 3, 2)
    with pytest.raises(ValueError):
        psi(1.0, 0, 2)
    with pytest.raises(ValueError):
        log_psi(-0.5, 1, 2)


def test_psi_large_theta_no_overflow():
    assert log_psi(200.0, 10, 20) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("quantity, theta", [
    (log_psi, math.nan), (psi, math.nan), (moments, 0.0), (moments, math.nan),
])
def test_paper_quantities_reject_a_bad_theta(quantity, theta):
    with pytest.raises(ValueError, match="theta"):
        quantity(theta, 3, 5)


def test_log_psi_at_the_largest_finite_theta_does_not_warn():
    # theta * k overflows to inf at theta = 1e308, where every level's log 1
    # = 0 is right: both log psi helpers, and an A* fit whose scale sits at a
    # 1e308 cap, return those values without a warning.
    stats = compute_stats(Dataset(J=3, M=4, scores=np.array([[1.0, 3.0, 2.0]] * 3), rankings=((2, 0, 1),) * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_psi(1e308, 2, 2) == 0.0 == log_psi(math.inf, 2, 2)
        assert fitting.log_psi_total(1e308, stats.length_profile) == 0.0
        fit = astar(stats, theta_max=1e308)
    assert (fit.params.consensus_order, fit.params.theta, fit.theta_flag) == ((2, 0, 1), 1e308, "cap")
    # D = 0, so f is the Binomial part alone
    assert fit.f_value == fitting._binomial_cost(stats, fit.params.p)


def test_paper_quantities_take_the_limit_at_infinite_theta():
    # theta -> inf puts all mass on the consensus order: psi -> 1, d -> 0
    assert log_psi(math.inf, 3, 5) == 0.0 and psi(math.inf, 3, 5) == 1.0
    assert moments(math.inf, 3, 5) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# log_density
# ---------------------------------------------------------------------------

def test_log_density_certain_outcome():
    params = Parameters(p=np.array([0.0]), theta=1.0, consensus_order=(0,))
    assert log_density([0.0], None, params, M=1) == 0.0


def test_log_density_two_objects():
    params = Parameters(p=np.array([0.5, 0.5]), theta=1.0, consensus_order=(0, 1))
    value = log_density([0.0, 0.0], (0, 1), params, M=1)
    assert value == pytest.approx(math.log(0.25 / (1 + math.exp(-1))), abs=1e-12)


def test_log_density_normalizes_over_outcome_space():
    params = Parameters(p=np.array([0.1, 0.4, 0.9]), theta=1.0, consensus_order=(0, 1, 2))
    total = math.fsum(
        math.exp(log_density(x, pi, params, M=1))
        for x, pi in enumerate_outcomes(J=3, M=1, R=3)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_log_density_normalizes_for_small_panels(data):
    J = data.draw(st.integers(2, 3))
    M = data.draw(st.integers(1, 2))
    R = data.draw(st.integers(1, J))
    p = np.array([data.draw(st.floats(0.05, 0.95)) for _ in range(J)])
    theta = data.draw(st.floats(0.1, 4.0))
    params = Parameters(p=p, theta=theta, consensus_order=order_of(p))
    total = math.fsum(
        math.exp(log_density(x, pi, params, M=M))
        for x, pi in enumerate_outcomes(J=J, M=M, R=R)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_log_density_boundary_conventions():
    params = Parameters(p=np.array([0.0, 1.0]), theta=1.0, consensus_order=(0, 1))
    # all-mass outcome has probability 1 from the scores
    assert log_density([0.0, 2.0], None, params, M=2) == pytest.approx(0.0, abs=1e-12)
    # impossible observations flag as -inf
    assert log_density([1.0, 2.0], None, params, M=2) == -math.inf
    assert log_density([0.0, 1.0], None, params, M=2) == -math.inf


def test_log_density_missing_cells_skipped():
    params = Parameters(p=np.array([0.3, 0.8]), theta=2.0, consensus_order=(0, 1))
    full = log_density([1.0, np.nan], (0, 1), params, M=2)
    score_only = log_density([1.0, np.nan], None, params, M=2)
    ranking_part = full - score_only
    assert ranking_part == pytest.approx(-log_psi(2.0, 2, 2), abs=1e-12)


def test_log_density_rejects_infinite_scores():
    # only NaN marks a missing cell, as in Dataset; an infinite score is out of range
    params = Parameters(p=np.array([0.3, 0.5, 0.8]), theta=2.0, consensus_order=(0, 1, 2))
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="integers"):
            log_density([bad, 3.0, 4.0], (0, 1), params, M=5)
    assert math.isfinite(log_density([np.nan, 3.0, 4.0], (0, 1), params, M=5))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_two_objects_closed_form():
    mean, var = moments(1.0, 2, 2)
    q = math.exp(-1) / (1 + math.exp(-1))
    assert mean == pytest.approx(q, abs=1e-12)
    assert var == pytest.approx(q * (1 - q), abs=1e-12)


def test_moments_large_theta_degenerate():
    mean, var = moments(60.0, 3, 5)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_moments_match_enumeration():
    from conftest import pairwise_distance_oracle

    for J in range(2, 6):
        order = tuple(range(J))
        for R in range(1, J + 1):
            for theta in (0.3, 1.0, 2.5):
                ds = [pairwise_distance_oracle(pi, order)
                      for pi in itertools.permutations(range(J), R)]
                weights = [math.exp(-theta * d) for d in ds]
                total = math.fsum(weights)
                mean_ref = math.fsum(d * w for d, w in zip(ds, weights)) / total
                var_ref = math.fsum(d * d * w for d, w in zip(ds, weights)) / total - mean_ref ** 2
                mean, var = moments(theta, R, J)
                assert mean == pytest.approx(mean_ref, abs=1e-10)
                assert var == pytest.approx(var_ref, abs=1e-10)


def test_moments_match_sampler():
    theta, R, J = 2.0, 3, 3
    p = np.array([0.2, 0.5, 0.8])
    params = Parameters(p=p, theta=theta, consensus_order=(0, 1, 2))
    n = 100_000
    ds = sample(params, n, M=1, R=R, rng=np.random.default_rng(42))
    from mallows_binomial.kendall import distance

    dists = np.array([distance(r, params.consensus_order) for r in ds.rankings])
    mean, var = moments(theta, R, J)
    se = math.sqrt(var / n)
    assert abs(dists.mean() - mean) <= 3 * se


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_at_a_huge_theta_draws_the_consensus_prefix():
    # -theta * k overflows to -inf at theta = 1e308, so the insertion weights
    # are 1 at the first place and 0 past it; the overflow must not warn.
    order = (2, 0, 3, 1)
    params = Parameters(p=[0.4, 0.9, 0.1, 0.5], theta=1e308, consensus_order=order)
    for R in (1, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = sample(params, 12, 5, R, np.random.default_rng(R))
        assert ds.rankings == (order[:R],) * 12


def test_sample_degenerate_binomial():
    params = Parameters(p=np.zeros(3), theta=1.0, consensus_order=(0, 1, 2))
    ds = sample(params, 50, M=4, R=3, rng=np.random.default_rng(0))
    assert np.all(ds.scores == 0)


def test_sample_strong_consensus_never_swaps():
    params = Parameters(p=np.array([0.2, 0.8]), theta=50.0, consensus_order=(0, 1))
    ds = sample(params, 10_000, M=1, R=2, rng=np.random.default_rng(1))
    swaps = sum(r == (1, 0) for r in ds.rankings)
    assert swaps == 0


def test_sample_swap_frequency_matches_density():
    params = Parameters(p=np.array([0.2, 0.8]), theta=1.0, consensus_order=(0, 1))
    n = 100_000
    ds = sample(params, n, M=1, R=2, rng=np.random.default_rng(2))
    swap_prob = math.exp(-1) / (1 + math.exp(-1))
    se = math.sqrt(swap_prob * (1 - swap_prob) / n)
    observed = sum(r == (1, 0) for r in ds.rankings) / n
    assert abs(observed - swap_prob) <= 3 * se


def test_sample_deterministic_under_seed():
    params = Parameters(p=np.array([0.3, 0.6, 0.9]), theta=1.5, consensus_order=(0, 1, 2))
    a = sample(params, 20, M=5, R=2, rng=np.random.default_rng(7))
    b = sample(params, 20, M=5, R=2, rng=np.random.default_rng(7))
    assert np.array_equal(a.scores, b.scores)
    assert a.rankings == b.rankings


# ---------------------------------------------------------------------------
# compute_stats
# ---------------------------------------------------------------------------

def test_stats_symmetric_pair():
    ds = Dataset(J=2, M=1, scores=np.full((2, 2), np.nan), rankings=((0, 1), (1, 0)))
    stats = compute_stats(ds)
    assert stats.W[0, 1] == 1.0 and stats.W[1, 0] == 1.0
    assert stats.n_rankers == 2 and stats.length_profile == (0, 2)


def test_stats_top1_unranked_rule():
    ds = Dataset(J=3, M=1, scores=np.full((1, 3), np.nan), rankings=((0,),))
    stats = compute_stats(ds)
    assert stats.W[0, 1] == 1.0 and stats.W[0, 2] == 1.0
    assert stats.W[1, 2] == 0.0 and stats.W[2, 1] == 0.0


def test_stats_complete_ranking_upper_triangular():
    ds = Dataset(J=3, M=1, scores=np.full((1, 3), np.nan), rankings=((0, 1, 2),))
    W = compute_stats(ds).W
    assert np.array_equal(W, np.triu(np.ones((3, 3)), k=1))


def test_stats_score_means_and_flags():
    scores = np.array([[1.0, np.nan], [3.0, np.nan]])
    ds = Dataset(J=2, M=5, scores=scores, rankings=(None, None))
    stats = compute_stats(ds)
    assert stats.mean_score[0] == 2.0
    assert np.isnan(stats.mean_score[1]) and stats.score_count[1] == 0
    assert stats.n_rankers == 0
    assert np.all(stats.W == 0)


def test_stats_reject_a_length_profile_of_the_wrong_shape():
    # fit_theta reads J as the profile's length, so a profile of another
    # length would fit the scale on the wrong number of objects
    base = dict(J=3, M=4, mean_score=np.full(3, 2.0), score_count=np.ones(3), W=np.zeros((3, 3)))
    assert SufficientStats(**base, length_profile=(1, 0, 2)).n_rankers == 3
    for profile in ((1, 2), (0, 0, 0, 1), (1, -1, 2)):
        with pytest.raises(ValueError, match="length_profile"):
            SufficientStats(**base, length_profile=profile)


def test_stats_reject_a_W_that_is_not_counts():
    # The fits read W's sums as exact Kendall totals: the old mean matrix
    # Q = W / n_rankers, a negative, NaN or infinite entry, a judge counted
    # against itself or a W of another shape would fit the wrong scale part.
    ds = random_dataset(np.random.default_rng(48), J=4, I=7)
    stats = compute_stats(ds)
    base = dict(J=4, M=stats.M, mean_score=stats.mean_score, score_count=stats.score_count,
                length_profile=stats.length_profile)
    assert SufficientStats(**base, W=stats.W).W.tobytes() == stats.W.tobytes()
    bad = [stats.W / stats.n_rankers]
    for value in (-1.0, np.nan, np.inf, 0.5):
        W = stats.W.copy()
        W[0, 1] = value
        bad.append(W)
    bad += [stats.W + np.eye(4), stats.W[:3, :3], stats.W.ravel(), np.zeros((4, 4, 1))]
    for W in bad:
        with pytest.raises(ValueError, match="W must be a 4 x 4 array of non-negative integer counts"):
            SufficientStats(**base, W=W)


def test_stats_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ds = random_dataset(rng, missing_scores=0.2, missing_rankings=0.3)
        stats = compute_stats(ds)
        assert stats.M == ds.M
        assert np.all(np.diag(stats.W) == 0)
        assert np.all(stats.W >= 0)
        assert np.all(stats.W + stats.W.T <= stats.n_rankers)
        assert np.array_equal(stats.W, np.rint(stats.W))  # counts of judges
        observed = stats.score_count > 0
        assert np.all(stats.mean_score[observed] >= 0)
        assert np.all(stats.mean_score[observed] <= ds.M)


def test_stats_win_matrix_matches_pairwise_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        J = int(rng.integers(1, 13))
        ds = random_dataset(rng, J=J, R=int(rng.integers(1, J + 1)), missing_rankings=0.3)
        rankings = tuple(None if r is None else r[:int(rng.integers(1, len(r) + 1))] for r in ds.rankings)
        ds = Dataset(J=J, M=ds.M, scores=ds.scores, rankings=rankings)
        stats = compute_stats(ds)
        assert stats.W.tobytes() == pairwise_wins_oracle(ds).tobytes()
        assert stats.n_rankers == sum(r is not None for r in rankings)


def _judge_rows(ds, idx):
    return Dataset(J=ds.J, M=ds.M, scores=ds.scores[idx], rankings=tuple(ds.rankings[i] for i in idx))


def _assert_stats_bitwise_equal(got, want):
    assert (got.J, got.M, got.n_rankers, got.length_profile) == (want.J, want.M, want.n_rankers, want.length_profile)
    assert type(got.n_rankers) is int
    for name in ("mean_score", "score_count", "W"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_stats_of_judge_rows_match_the_panel_built_from_them():
    # judge weights on the cached per-judge rows give bitwise the statistics
    # of the resampled Dataset, the length profile included, however many
    # rankers a draw leaves at weight 0; the cached per-judge rows, pair
    # orders included, are one C-contiguous float table
    rng = np.random.default_rng(29)
    seen = set()
    for trial in range(300):
        J = int(rng.integers(1, 11))
        I = int(rng.integers(1, 15))
        ds = random_dataset(rng, J=J, I=I, R=int(rng.integers(1, J + 1)),
                            missing_scores=float(rng.choice([0.0, 0.3, 0.9])),
                            missing_rankings=float(rng.choice([0.0, 0.4, 0.9])))
        # partial rankings of mixed lengths, and now and then none at all
        rankings = tuple(None if r is None else r[:int(rng.integers(1, len(r) + 1))] for r in ds.rankings)
        if trial % 10 == 0 and np.isfinite(ds.scores).any():
            rankings = (None,) * I
        ds = Dataset(J=J, M=ds.M, scores=ds.scores, rankings=rankings)
        _assert_stats_bitwise_equal(compute_stats(ds, np.arange(I)), compute_stats(ds))
        table = ds._judge_table
        assert table.dtype == float and table.flags.c_contiguous and table.shape == (I, 3 * J + J * J)
        rankers = {i for i, r in enumerate(rankings) if r is not None}
        if not rankers:
            seen.add("no rankings")
        for _ in range(4):
            idx = rng.integers(0, I, size=int(rng.integers(1, 2 * I + 1)))
            try:
                panel = _judge_rows(ds, idx)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)):
                    compute_stats(ds, idx)
                continue
            got = compute_stats(ds, idx)
            _assert_stats_bitwise_equal(got, compute_stats(panel))
            lengths = [len(r) for r in panel.rankings if r is not None]
            assert got.length_profile == length_profile(lengths, J)
            if rankers - set(idx.tolist()):
                seen.add("zero-weight rankers")
            if len(lengths) < len(idx):
                seen.add("unranked judges")
            if len(set(lengths)) > 1:
                seen.add("mixed lengths")
    assert seen == {"no rankings", "zero-weight rankers", "unranked judges", "mixed lengths"}, seen


def test_stats_fields_match_the_reference_construction_bitwise():
    # every field of compute_stats on seeded resamples, the score view
    # included, against the per-field numpy construction from the resampled
    # rows (conftest.reference_stats), by bytes
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(150):
        J, I = int(rng.integers(1, 11)), int(rng.integers(1, 15))
        ds = random_dataset(rng, J=J, I=I, R=int(rng.integers(1, J + 1)),
                            missing_scores=float(rng.choice([0.0, 0.3, 0.9])),
                            missing_rankings=float(rng.choice([0.0, 0.4])))
        for judges in (None, rng.integers(0, I, size=I), rng.integers(0, I, size=int(rng.integers(1, 2 * I + 1)))):
            try:
                want = reference_stats(ds, judges)
            except ValueError:  # a draw of judges with neither scores nor rankings
                continue
            got = compute_stats(ds, judges)
            for name in ("mean_score", "score_count", "W", "a", "b"):
                assert getattr(got, name).tobytes() == want[name].tobytes(), name
            for name in ("q", "q_weight"):
                assert np.array(getattr(got, name), dtype=float).tobytes() == want[name].tobytes(), name
            for name in ("observed", "by_q", "unobserved", "length_profile", "n_rankers"):
                assert getattr(got, name) == want[name], name
            assert all(type(v) is float for v in got.q + got.q_weight)
            checked += 1
    assert checked >= 400


def test_stats_arrays_are_read_only_and_alias_no_caller_array():
    mean, count, W = np.array([2.0, np.nan, 0.5]), np.array([3.0, 0.0, 2.0]), np.ones((3, 3)) - np.eye(3)
    stats = SufficientStats(J=3, M=4, mean_score=mean, score_count=count, W=W, length_profile=(0, 0, 4))
    fields = {name: getattr(stats, name) for name in ("mean_score", "score_count", "W", "a", "b")}
    before = {name: array.tobytes() for name, array in fields.items()}
    for name, array in fields.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = 1.0
        assert not any(np.shares_memory(array, caller) for caller in (mean, count, W)), name
    mean[0], count[0], W[0, 1] = 3.0, 1.0, 2.0  # the caller's arrays stay theirs
    assert {name: array.tobytes() for name, array in fields.items()} == before
    assert stats.q == (0.5, 0.0, 0.125) and stats.observed == (True, False, True)
    ds = random_dataset(np.random.default_rng(8), J=4, I=6)
    for got in (compute_stats(ds), compute_stats(ds, [1, 1, 3])):
        for name in ("mean_score", "score_count", "W", "a", "b"):
            assert not getattr(got, name).flags.writeable, name
            assert not np.shares_memory(getattr(got, name), ds._judge_table), name
    p = np.array([0.2, 0.6, 0.4])
    params = Parameters(p=p, theta=1.0, consensus_order=(0, 2, 1))
    assert not params.p.flags.writeable and not np.shares_memory(params.p, p)


def test_stats_reject_score_columns_of_the_wrong_length():
    with pytest.raises(ValueError, match="mean_score and score_count must hold 3 values"):
        SufficientStats(J=3, M=4, mean_score=[1.0, 2.0], score_count=[1.0, 1.0, 1.0], W=np.zeros((3, 3)),
                        length_profile=(0, 0, 0))


def test_stats_of_an_empty_draw_raise_like_the_dataset():
    # judge 0 has neither scores nor a ranking: a draw of only that judge is
    # an empty panel, with the Dataset's error
    scores = np.array([[np.nan, np.nan], [1.0, 2.0]])
    ds = Dataset(J=2, M=3, scores=scores, rankings=(None, (1, 0)))
    with pytest.raises(ValueError) as from_dataset:
        _judge_rows(ds, [0, 0])
    with pytest.raises(ValueError) as from_stats:
        compute_stats(ds, [0, 0])
    assert str(from_stats.value) == str(from_dataset.value) == "dataset holds neither scores nor rankings"
    with pytest.raises(ValueError, match="neither"):
        compute_stats(ds, [])
    for bad in ([2], [-1, 0]):
        with pytest.raises(ValueError, match="judge indices"):
            compute_stats(ds, bad)


@pytest.mark.parametrize("judges", [
    [0.5, 1.9, 2.2],                 # floats, once truncated to [0, 1, 2]
    np.array([0.0, 1.0]),            # integer-valued floats
    [True, False, True],             # booleans, once taken as 0/1
    [[0, 1], [2, 3]],                # 2-D, once flattened
    np.array([[0], [1]]),
    3,                               # a bare index
    ["0", "1"],
    [0, None],
])
def test_stats_reject_judges_that_are_not_a_1d_sequence_of_integers(judges):
    ds = random_dataset(np.random.default_rng(5), J=3, I=4)
    with pytest.raises(ValueError, match="judges must be a 1-D sequence of integer indices"):
        compute_stats(ds, judges)


@pytest.mark.parametrize("judges", [[4], [0, -1], np.array([1, 2**40]), np.array([3, 2**64 - 1], dtype=np.uint64)])
def test_stats_reject_judge_indices_out_of_range(judges):
    ds = random_dataset(np.random.default_rng(5), J=3, I=4)
    with pytest.raises(ValueError, match=r"judge indices must lie in \[0, 4\)"):
        compute_stats(ds, judges)
    # integer sequences of any integer type are accepted
    assert compute_stats(ds, np.array([3, 0], dtype=np.uint8)).J == 3


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_dataset_rejects_bad_scores():
    with pytest.raises(ValueError):
        Dataset(J=2, M=3, scores=np.array([[1.0, 4.0]]), rankings=(None,))
    with pytest.raises(ValueError):
        Dataset(J=2, M=3, scores=np.array([[1.0, 1.5]]), rankings=(None,))
    with pytest.raises(ValueError, match="integers"):  # infinite cells are not missing ones
        Dataset(J=2, M=4, scores=np.array([[1.0, np.inf], [2.0, -np.inf]]), rankings=((0, 1), (1, 0)))


def test_dataset_rejects_bad_rankings():
    with pytest.raises(ValueError, match="judge 0: ranking contains duplicates"):
        Dataset(J=2, M=3, scores=np.array([[1.0, 2.0]]), rankings=((0, 0),))
    for ranking in ((0, 5), (-1,), (1, 2)):
        with pytest.raises(ValueError, match=r"judge 1: ranking references objects outside \[0, J\)"):
            Dataset(J=2, M=3, scores=np.array([[1.0, 2.0], [0.0, 1.0]]), rankings=((1, 0), ranking))
    assert Dataset(J=2, M=3, scores=np.array([[1.0, 2.0]]), rankings=(np.array([1, 0]),)).rankings == ((1, 0),)


def test_dataset_requires_some_data():
    with pytest.raises(ValueError):
        Dataset(J=2, M=3, scores=np.full((1, 2), np.nan), rankings=(None,))


def test_dataset_rejects_bad_score_scale():
    for M in (0, -1):
        with pytest.raises(ValueError, match="score scale"):
            Dataset(J=2, M=M, scores=np.full((1, 2), np.nan), rankings=((0, 1),))
    with pytest.raises(TypeError):
        Dataset(J=2, M=3.0, scores=np.array([[1.0, 2.0]]), rankings=(None,))


def test_parameters_require_consistent_order():
    with pytest.raises(ValueError):
        Parameters(p=np.array([0.2, 0.1]), theta=1.0, consensus_order=(0, 1))
    with pytest.raises(ValueError):
        Parameters(p=np.array([0.1, 0.2]), theta=-1.0, consensus_order=(0, 1))


def test_parameters_reject_nan_quality_and_infinite_theta():
    for p in ([np.nan, 0.4], [0.1, np.inf]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Parameters(p=np.array(p), theta=1.0, consensus_order=(0, 1))
    for theta in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="theta"):
            Parameters(p=np.array([0.1, 0.4]), theta=theta, consensus_order=(0, 1))


def test_parameters_rank_places():
    params = Parameters(p=np.array([0.5, 0.1, 0.9]), theta=1.0, consensus_order=(1, 0, 2))
    assert params.rank_places().tolist() == [2, 1, 3]


# ---------------------------------------------------------------------------
# identifiability
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=40, deadline=None)
def test_identifiability_on_full_outcome_space(data):
    J = data.draw(st.integers(2, 3))
    M = data.draw(st.integers(1, 2))
    R = data.draw(st.integers(1, J))
    draw_p = lambda: np.array([data.draw(st.floats(0.01, 0.99)) for _ in range(J)])
    p1, p2 = draw_p(), draw_p()
    t1 = data.draw(st.floats(0.05, 5.0))
    t2 = data.draw(st.floats(0.05, 5.0))
    if np.max(np.abs(p1 - p2)) < 1e-3 and abs(t1 - t2) < 1e-3:
        return
    params1 = Parameters(p=p1, theta=t1, consensus_order=order_of(p1))
    params2 = Parameters(p=p2, theta=t2, consensus_order=order_of(p2))
    gap = max(
        abs(math.exp(log_density(x, pi, params1, M)) - math.exp(log_density(x, pi, params2, M)))
        for x, pi in enumerate_outcomes(J=J, M=M, R=R)
    )
    assert gap > 1e-12
