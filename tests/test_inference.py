import numpy as np
import pytest

from conftest import random_dataset
from mallows_binomial import Dataset, compute_stats, inference
from mallows_binomial.model import DegenerateDataError
from mallows_binomial.search import BRUTE_CAP
from mallows_binomial.inference import (
    COMPARISON_MODELS,
    CORE_METHODS,
    _converted_score_rows,
    benchmark_grid,
    bias_enumeration,
    bootstrap,
    comparison_fit,
    consistency_experiment,
    fit_method,
)


def identical_judges_dataset():
    row = [1.0, 3.0, 0.0, 2.0]
    ranking = (2, 0, 3, 1)
    return Dataset(J=4, M=4, scores=np.array([row] * 5), rankings=(ranking,) * 5)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_identical_judges_zero_width():
    ds = identical_judges_dataset()
    summary = bootstrap(ds, method="exact-crude", B=40, level=0.9, seed=3)
    assert np.all(summary.p_intervals[:, 0] == summary.p_intervals[:, 1])
    assert np.all(summary.rank_intervals[:, 0] == summary.rank_intervals[:, 1])
    assert summary.theta_interval[0] == summary.theta_interval[1]
    assert summary.theta_cap_proportion == 1.0
    assert summary.n_failed == 0


def test_bootstrap_deterministic_and_schedule_independent():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, J=4, I=8)
    a = bootstrap(ds, method="greedy-local", B=24, seed=9, n_jobs=1)
    b = bootstrap(ds, method="greedy-local", B=24, seed=9, n_jobs=2)
    assert np.array_equal(a.replicate_p, b.replicate_p)
    assert np.array_equal(a.replicate_ranks, b.replicate_ranks)
    assert np.array_equal(np.nan_to_num(a.replicate_theta), np.nan_to_num(b.replicate_theta))
    assert np.array_equal(a.rank_intervals, b.rank_intervals)


def test_bootstrap_pool_has_at_most_one_worker_per_replicate(monkeypatch):
    # A fork pool starts every worker at its first submit, so more workers
    # than replicates would be idle processes. A stand-in executor records
    # the size asked for and maps serially: no process starts.
    import concurrent.futures

    sizes = []

    class SerialExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    ds = random_dataset(np.random.default_rng(13), J=4, I=8)
    serial = bootstrap(ds, B=4, seed=5)
    for n_jobs, B, workers in ((64, 4, 4), (3, 4, 3), (8, 1, None)):
        pooled = bootstrap(ds, B=B, seed=5, n_jobs=n_jobs)
        assert (sizes.pop() if sizes else None) == workers
        assert pooled.replicate_p.tobytes() == serial.replicate_p[:B].tobytes()
        assert pooled.replicate_theta.tobytes() == serial.replicate_theta[:B].tobytes()
    assert not sizes


def test_bootstrap_replicates_equal_fits_of_resampled_panels():
    # A replicate is fit_method(judges=idx): the weighted judge rows, or for
    # fv and the comparison models the resampled Dataset. Either way it must
    # be bitwise the fit of the Dataset resampled from the same (seed, rep)
    # draw, with the generator in the same state on both sides (the
    # converted-rankings tie-breaks are drawn from it after the resample).
    rng = np.random.default_rng(31)
    ds = random_dataset(rng, J=5, I=9, missing_scores=0.3, missing_rankings=0.3)
    assert ds.J <= BRUTE_CAP
    for method in (*CORE_METHODS, *COMPARISON_MODELS):
        summary = bootstrap(ds, method=method, B=12, seed=4)
        assert summary.n_failed == 0, method
        for rep in range(12):
            draws = [np.random.default_rng([4, rep]) for _ in range(2)]
            idx = draws[0].integers(0, ds.I, size=ds.I)
            assert np.array_equal(draws[1].integers(0, ds.I, size=ds.I), idx)
            weighted = fit_method(ds, method, judges=idx, rng=draws[0])
            fit = fit_method(inference._resample(ds, idx), method, rng=draws[1])
            assert draws[0].bit_generator.state == draws[1].bit_generator.state, method
            assert weighted.params.p.tobytes() == fit.params.p.tobytes(), method
            assert weighted.params.theta == fit.params.theta and weighted.theta_flag == fit.theta_flag
            assert weighted.params.consensus_order == fit.params.consensus_order
            assert weighted.f_value.hex() == fit.f_value.hex(), method
            assert (weighted.nodes_expanded, weighted.candidate_evaluations) == (
                fit.nodes_expanded, fit.candidate_evaluations)
            assert summary.replicate_p[rep].tobytes() == fit.params.p.tobytes()
            theta = np.nan if fit.params.theta is None else fit.params.theta
            assert np.array_equal(summary.replicate_theta[rep], theta, equal_nan=True)
            assert summary.replicate_ranks[rep].tolist() == fit.params.rank_places().tolist()


def test_bootstrap_intervals_equal_one_quantile_call_per_bound():
    # each interval pair comes from one np.quantile call of both levels; its
    # bits are those of a call per bound, on replicate counts of every
    # parity and levels whose bounds fall between and on order statistics
    rng = np.random.default_rng(71)
    for B, level in ((1, 0.9), (2, 0.5), (7, 0.8), (20, 0.95), (33, 0.9)):
        ds = random_dataset(rng, J=5, I=8, missing_scores=0.2, missing_rankings=0.4)
        summary = bootstrap(ds, method="greedy", B=B, level=level, seed=B)
        lo, hi = (1 - level) / 2, (1 + level) / 2
        p_int = np.column_stack([np.quantile(summary.replicate_p, lo, axis=0),
                                 np.quantile(summary.replicate_p, hi, axis=0)])
        assert summary.p_intervals.tobytes() == p_int.tobytes() and summary.p_intervals.shape == p_int.shape
        theta = summary.replicate_theta[~np.isnan(summary.replicate_theta)]
        want = None if not theta.size else (float(np.quantile(theta, lo)), float(np.quantile(theta, hi)))
        if want is None:
            assert summary.theta_interval is None
        else:
            assert [type(v) for v in summary.theta_interval] == [float, float]
            assert [v.hex() for v in summary.theta_interval] == [v.hex() for v in want]


def test_bootstrap_rank_intervals_contain_point_rank():
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, J=5, I=6, theta=0.8)
    summary = bootstrap(ds, method="greedy", B=30, seed=1)
    points = summary.point.params.rank_places()
    assert np.all(summary.rank_intervals[:, 0] <= points)
    assert np.all(summary.rank_intervals[:, 1] >= points)
    assert np.all(summary.rank_intervals[:, 0] >= 1)
    assert np.all(summary.rank_intervals[:, 1] <= ds.J)


def test_bootstrap_records_failures():
    scores = np.array([[1.0, 2.0, 3.0]] * 4)
    rankings = ((0, 1, 2), None, None, None)
    ds = Dataset(J=3, M=5, scores=scores, rankings=rankings)
    summary = bootstrap(ds, method="only-rankings", B=60, seed=2)
    # resamples that drop the single ranking judge cannot be fit
    assert summary.n_failed > 0
    assert len(summary.failures) == summary.n_failed
    assert summary.replicate_p.shape[0] == 60 - summary.n_failed


def test_bootstrap_replicate_bug_propagates(monkeypatch):
    # only degenerate resamples (ValueError) count as failed replicates;
    # every replicate is one fit_method call, whether it fits weighted stats
    # (exact-crude) or a resample (fv)
    ds = identical_judges_dataset()
    for method in ("exact-crude", "fv"):
        real = inference.fit_method
        calls = []

        def buggy_after_point_fit(*args, _real=real, _calls=calls, **kwargs):
            _calls.append(args)
            if len(_calls) > 1:
                raise ZeroDivisionError("bug inside a replicate")
            return _real(*args, **kwargs)

        monkeypatch.setattr(inference, "fit_method", buggy_after_point_fit)
        with pytest.raises(ZeroDivisionError):
            bootstrap(ds, method, B=5, n_jobs=1)
        monkeypatch.undo()


@pytest.mark.parametrize("message", ["p is not non-decreasing along consensus_order",
                                     "mean distance must be finite and non-negative, got nan"])
def test_bootstrap_replicate_invariant_error_propagates(monkeypatch, message):
    # A ValueError that is not a DegenerateDataError is a broken invariant
    # (here a Parameters check and fit_theta's distance check), not a
    # resample the method cannot fit: it leaves bootstrap instead of being
    # counted as a failed replicate.
    ds = identical_judges_dataset()
    for method in ("exact-crude", "fv"):
        real = inference.fit_method
        calls = []

        def broken_after_point_fit(*args, _real=real, _calls=calls, **kwargs):
            _calls.append(args)
            if len(_calls) > 1:
                raise ValueError(message)
            return _real(*args, **kwargs)

        monkeypatch.setattr(inference, "fit_method", broken_after_point_fit)
        with pytest.raises(ValueError, match=message) as raised:
            bootstrap(ds, method, B=5, n_jobs=1)
        assert not isinstance(raised.value, DegenerateDataError)
        monkeypatch.undo()


def test_degenerate_resamples_raise_the_typed_error():
    # each degenerate case a bootstrap counts as a failed replicate
    scores_only = Dataset(J=3, M=5, scores=np.array([[1.0, 2.0, 3.0]] * 2), rankings=(None, None))
    rankings_only = Dataset(J=3, M=5, scores=np.full((2, 3), np.nan), rankings=((0, 1, 2), (2, 1, 0)))
    one_empty_judge = Dataset(J=3, M=5, scores=np.array([[1.0, 2.0, 3.0], [np.nan] * 3]), rankings=(None, None))
    cases = [
        (lambda: fit_method(scores_only, "only-rankings"), "requires at least one ranking"),
        (lambda: fit_method(rankings_only, "only-scores"), "requires at least one observed score"),
        (lambda: compute_stats(one_empty_judge, [1, 1]), "neither scores nor rankings"),
        (lambda: Dataset(J=3, M=5, scores=np.full((1, 3), np.nan), rankings=(None,)), "neither scores nor rankings"),
        (lambda: fit_method(Dataset(J=8, M=5, scores=np.ones((1, 8)), rankings=(None,)), "brute"),
         "exceeds the brute-force cap"),
    ]
    for call, message in cases:
        with pytest.raises(DegenerateDataError, match=message):
            call()


def test_bootstrap_validates_inputs():
    ds = identical_judges_dataset()
    with pytest.raises(ValueError):
        bootstrap(ds, B=0)
    with pytest.raises(ValueError):
        bootstrap(ds, level=1.0)


# ---------------------------------------------------------------------------
# bias enumeration
# ---------------------------------------------------------------------------

def test_bias_symmetric_objects():
    table = bias_enumeration((0.5, 0.5), theta0=1.0, M=1, J=2, R=2)
    assert table.bias[0] == pytest.approx(table.bias[1], abs=1e-12)
    assert table.total_probability == pytest.approx(1.0, abs=1e-12)


def test_bias_outcome_probabilities_sum_to_one():
    table = bias_enumeration((0.2, 0.6, 0.8), theta0=1.5, M=2, J=3, R=2)
    assert table.total_probability == pytest.approx(1.0, abs=1e-12)
    assert table.n_outcomes == 27 * 6


def test_bias_permutation_equivariance():
    base = bias_enumeration((0.1, 0.4, 0.9), theta0=1.0, M=1, J=3, R=3)
    flipped = bias_enumeration((0.9, 0.4, 0.1), theta0=1.0, M=1, J=3, R=3)
    assert np.allclose(base.bias, flipped.bias[::-1], atol=1e-10)


def test_bias_reports_cap_mass():
    table = bias_enumeration((0.1, 0.4, 0.9), theta0=1.0, M=1, J=3, R=3)
    assert table.theta_cap_probability > 0


def test_bias_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        bias_enumeration((0.5,) * 3, theta0=1.0, M=2, J=3, R=3, max_outcomes=10)


# ---------------------------------------------------------------------------
# comparison models
# ---------------------------------------------------------------------------

def test_converted_score_rows_example():
    # judge scores objects (10, 20) and ranks object 1 first
    ds = Dataset(J=2, M=30, scores=np.array([[10.0, 20.0]]), rankings=((1, 0),))
    rows = _converted_score_rows(ds)
    assert rows.tolist() == [[20.0, 10.0]]


def test_converted_scores_preserves_multisets():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ds = random_dataset(rng, missing_scores=0.25, missing_rankings=0.3)
        rows = _converted_score_rows(ds)
        rankers = [i for i, r in enumerate(ds.rankings) if r is not None]
        assert rows.shape[0] == len(rankers)
        for row, i in zip(rows, rankers):
            original = ds.scores[i]
            ranked = list(ds.rankings[i])
            unranked = [j for j in range(ds.J) if j not in ranked]
            assert sorted(row[ranked][np.isfinite(row[ranked])]) == sorted(
                original[ranked][np.isfinite(original[ranked])])
            assert np.array_equal(row[unranked], original[unranked], equal_nan=True)


def test_converted_scores_fit_augments_table():
    ds = Dataset(J=2, M=30, scores=np.array([[10.0, 20.0]]), rankings=((1, 0),))
    result = comparison_fit(ds, model="converted-scores")
    # augmented table is [[10,20],[20,10]] so both objects average 15
    assert np.allclose(result.params.p, [0.5, 0.5])
    assert result.params.theta is None


def test_only_scores_unconstrained_means():
    rng = np.random.default_rng(20)
    ds = random_dataset(rng, J=5, missing_scores=0.2)
    result = comparison_fit(ds, model="only-scores")
    stats = compute_stats(ds)
    observed = stats.score_count > 0
    assert np.allclose(result.params.p[observed], stats.mean_score[observed] / ds.M)
    assert result.params.theta is None and result.theta_flag == "undefined"


def test_only_rankings_unanimous():
    order = (2, 0, 1)
    scores = np.array([[4.0, 0.0, 2.0]] * 3)  # scores disagree with the rankings
    ds = Dataset(J=3, M=5, scores=scores, rankings=(order,) * 3)
    result = comparison_fit(ds, model="only-rankings")
    assert result.params.consensus_order == order
    assert result.theta_flag == "cap"
    assert set(result.non_identified) == {0, 1, 2}
    # the relabelled result keeps the exact-crude search's diagnostics
    ranks_only = Dataset(J=3, M=5, scores=np.full((3, 3), np.nan), rankings=(order,) * 3)
    exact = fit_method(ranks_only, "exact-crude")
    assert result.algorithm == "only-rankings" and exact.algorithm == "exact-crude"
    assert result.nodes_expanded == exact.nodes_expanded > 0
    assert result.candidate_evaluations == exact.candidate_evaluations


def test_converted_rankings_requires_rng_and_pools():
    ds = Dataset(J=3, M=5, scores=np.array([[0.0, 2.0, 4.0], [4.0, 2.0, 0.0]]),
                 rankings=((0, 1, 2), None))
    with pytest.raises(ValueError, match="rng"):
        comparison_fit(ds, model="converted-rankings")
    result = comparison_fit(ds, model="converted-rankings", rng=5)
    assert result.algorithm == "converted-rankings"
    assert set(result.non_identified) == {0, 1, 2}
    again = comparison_fit(ds, model="converted-rankings", rng=5)
    assert result.params.consensus_order == again.params.consensus_order


def test_model_data_mismatch_rejected():
    scores_only = Dataset(J=2, M=3, scores=np.array([[1.0, 2.0]]), rankings=(None,))
    with pytest.raises(ValueError):
        comparison_fit(scores_only, model="only-rankings")
    rankings_only = Dataset(J=2, M=3, scores=np.full((1, 2), np.nan), rankings=((0, 1),))
    with pytest.raises(ValueError):
        comparison_fit(rankings_only, model="only-scores")


def test_fit_method_dispatch_and_unknown():
    ds = identical_judges_dataset()
    for method in ("exact-crude", "exact-lp", "fv", "greedy", "greedy-local", "brute"):
        result = fit_method(ds, method=method)
        assert result.params.consensus_order == (2, 0, 3, 1)
    with pytest.raises(ValueError):
        fit_method(ds, method="annealing")


# ---------------------------------------------------------------------------
# experiment harnesses
# ---------------------------------------------------------------------------

def test_consistency_experiment_rows():
    rows = consistency_experiment(I_values=(3, 6), M_values=(5,), J_values=(3,),
                                  R_values=(2,), theta_values=(2.0,), trials=2, seed=0)
    assert len(rows) == 4
    for row in rows:
        assert set(row) >= {"I", "M", "J", "R", "theta", "trial", "mean_abs_p_err",
                            "theta_err", "theta_capped", "seconds"}
        assert row["mean_abs_p_err"] >= 0
    again = consistency_experiment(I_values=(3, 6), M_values=(5,), J_values=(3,),
                                   R_values=(2,), theta_values=(2.0,), trials=2, seed=0)
    assert [r["mean_abs_p_err"] for r in rows] == [r["mean_abs_p_err"] for r in again]


def test_benchmark_grid_rows():
    rows = benchmark_grid(I_values=(4,), M_values=(5,), J_values=(4,), R_values=(3,),
                          theta_values=(2.0,), trials=3, seed=1)
    assert len(rows) == 3 * 5
    for row in rows:
        if row["algorithm"] in ("exact-crude", "exact-lp"):
            assert row["exact_match"] == 1
            assert row["kendall_to_reference"] == 0
        assert row["f_value"] >= 0 or True
        assert row["seconds"] >= 0
    gl = {(r["trial"]): r["f_value"] for r in rows if r["algorithm"] == "greedy-local"}
    g = {(r["trial"]): r["f_value"] for r in rows if r["algorithm"] == "greedy"}
    for trial, f in gl.items():
        assert f <= g[trial] + 1e-12
