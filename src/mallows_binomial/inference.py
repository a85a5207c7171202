"""Uncertainty quantification and study harnesses.

Covers the nonparametric bootstrap (parameter and rank-place percentile
intervals), exact small-panel bias enumeration, the four conversion /
single-source comparison models, and the simulation grids used for
consistency and speed/accuracy studies.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import permutations, product
from typing import Sequence

import numpy as np

from . import kendall, search
from .fitting import fit_given_order
from .model import (
    Dataset,
    DegenerateDataError,
    Parameters,
    _check_partial_shape,
    _check_scale,
    compute_stats,
    log_density,
    order_of,
    sample,
)
from .search import FitResult, astar, brute_force, fv, greedy, greedy_local

CORE_METHODS = ("exact-crude", "exact-lp", "fv", "greedy", "greedy-local", "brute")
COMPARISON_MODELS = ("converted-scores", "only-scores", "converted-rankings", "only-rankings")
BENCHMARK_ALGORITHMS = tuple(m for m in CORE_METHODS if m != "brute")  # brute is each instance's reference


def fit_method(
    dataset: Dataset,
    method: str = "exact-crude",
    *,
    judges: Sequence[int] | None = None,
    theta_max: float | None = None,
    node_budget: int = search.DEFAULT_NODE_BUDGET,
    candidate_cap: int = search.DEFAULT_CANDIDATE_CAP,
    rng=None,
) -> FitResult:
    """Fit the panel with a named algorithm or comparison model.

    judges, when given, selects the panel made of those judge rows, repeats
    included (a bootstrap resample). fv and the comparison models read the
    judges themselves and fit the resampled Dataset; every other method
    fits compute_stats(dataset, judges), which is bitwise the same.
    """
    if judges is not None and (method == "fv" or method in COMPARISON_MODELS):
        dataset, judges = _resample(dataset, judges), None
    if method in COMPARISON_MODELS:
        return comparison_fit(dataset, method, theta_max=theta_max, rng=rng, node_budget=node_budget)
    stats = compute_stats(dataset, judges)
    if method in ("exact-crude", "exact-lp"):
        return astar(stats, theta_max=theta_max, heuristic=method[len("exact-"):], node_budget=node_budget)
    if method == "fv":
        return fv(stats, dataset, theta_max=theta_max, candidate_cap=candidate_cap)
    if method in ("greedy", "greedy-local", "brute"):
        fit = {"greedy": greedy, "greedy-local": greedy_local, "brute": brute_force}[method]
        return fit(stats, theta_max=theta_max)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Comparison models
# ---------------------------------------------------------------------------

def _converted_score_rows(dataset: Dataset) -> np.ndarray:
    """One pseudo score row per ranking judge: the judge's observed scores on
    ranked objects are reassigned best-to-worst down the ranking; unranked
    objects keep their original scores."""
    rows = []
    for row, ranking in zip(dataset.scores, dataset.rankings):
        if ranking is None:
            continue
        new_row = row.copy()
        scored_ranked = [j for j in ranking if np.isfinite(row[j])]
        values = sorted(row[j] for j in scored_ranked)
        for j, value in zip(scored_ranked, values):
            new_row[j] = value
        rows.append(new_row)
    return np.array(rows) if rows else np.zeros((0, dataset.J))


def _score_ranking(row: np.ndarray, rng) -> tuple[int, ...] | None:
    """Complete ranking of a judge's scored objects, ascending score with
    uniform random tie-breaks."""
    observed = np.flatnonzero(np.isfinite(row))
    if observed.size == 0:
        return None
    keys = [(row[j], rng.random(), int(j)) for j in observed]
    keys.sort(key=lambda t: (t[0], t[1]))
    return tuple(j for _, _, j in keys)


def _independent_binomial_fit(score_table: np.ndarray, J: int, M: int, algorithm: str) -> FitResult:
    """Unconstrained per-object Binomial fit; the consensus order is the
    ascending order of the fitted means (never-scored objects last)."""
    t0 = time.perf_counter()
    observed = np.isfinite(score_table)
    if not observed.any():
        raise DegenerateDataError(f"{algorithm} requires at least one observed score")
    dataset = Dataset(J=J, M=M, scores=score_table, rankings=(None,) * score_table.shape[0])
    stats = compute_stats(dataset)
    keys = np.where(stats.score_count > 0, stats.mean_score, np.inf)
    order = tuple(int(j) for j in np.argsort(keys, kind="stable"))
    return FitResult.from_fit(stats, fit_given_order(stats, order), algorithm, t0, 0, 1)


def comparison_fit(
    dataset: Dataset,
    model: str = "converted-scores",
    *,
    theta_max: float | None = None,
    rng=None,
    node_budget: int = search.DEFAULT_NODE_BUDGET,
) -> FitResult:
    """Fit one of the four single-data-type comparison models.

    converted-scores: each ranking is turned into an extra score row (the
    judge's own sorted scores laid down the ranking) and the augmented table
    is fit with independent Binomials; no consensus scale. only-scores: the
    same fit on the original table. converted-rankings: each judge's scores
    become a ranking by ascending score (uniform random tie-breaks, rng
    required) pooled with the real rankings into a rankings-only fit; object
    qualities are not identified. only-rankings: the rankings-only fit on the
    original rankings. Rankings-only fits are exact-crude searches relabelled
    with the model name.
    """
    M = dataset.M
    if model == "converted-scores":
        extra = _converted_score_rows(dataset)
        table = np.vstack([dataset.scores, extra]) if extra.size else np.array(dataset.scores)
        return _independent_binomial_fit(table, dataset.J, M, "converted-scores")
    if model == "only-scores":
        return _independent_binomial_fit(np.array(dataset.scores), dataset.J, M, "only-scores")
    if model in ("converted-rankings", "only-rankings"):
        rankings = [r for r in dataset.rankings if r is not None]
        if model == "converted-rankings":
            if rng is None:
                raise ValueError("converted-rankings needs an rng for tie-breaks")
            rng = np.random.default_rng(rng)
            for row in dataset.scores:
                converted = _score_ranking(row, rng)
                if converted is not None:
                    rankings.append(converted)
        if not rankings:
            raise DegenerateDataError(f"{model} requires at least one ranking")
        blank = np.full((len(rankings), dataset.J), np.nan)
        ranks_only = Dataset(J=dataset.J, M=M, scores=blank, rankings=tuple(rankings))
        result = astar(compute_stats(ranks_only), theta_max=theta_max, node_budget=node_budget)
        return replace(result, algorithm=model)
    raise ValueError(f"unknown comparison model {model!r}")


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapSummary:
    """Percentile bootstrap intervals for qualities, scale, and rank places.

    Rank intervals are integer percentile bounds widened (if needed) to
    contain the point-estimate rank. Replicates whose scale hit the cap enter
    the theta distribution at the cap value and are also reported as
    theta_cap_proportion; replicates with no resampled rankings leave theta
    undefined and are counted separately. Replicates whose A* search ran out
    of node budget enter at the best order it found and are counted in
    n_budget_exhausted; replicates the method cannot fit are left out and
    counted in n_failed.
    """

    B: int
    level: float
    point: FitResult
    p_intervals: np.ndarray           # (J, 2)
    theta_interval: tuple[float, float] | None
    theta_cap_proportion: float
    rank_intervals: np.ndarray        # (J, 2) integers
    replicate_p: np.ndarray           # (B_ok, J)
    replicate_theta: np.ndarray       # (B_ok,) NaN where undefined
    replicate_ranks: np.ndarray       # (B_ok, J)
    n_failed: int
    failures: tuple[str, ...]
    n_budget_exhausted: int           # replicates in the intervals whose A* ran out of budget
    theta_undefined_count: int


def _resample(dataset: Dataset, idx: np.ndarray) -> Dataset:
    """The panel made of judge rows idx, repeats included."""
    return Dataset(
        J=dataset.J,
        M=dataset.M,
        scores=dataset.scores[idx],
        rankings=tuple(dataset.rankings[i] for i in idx),
    )


def _bootstrap_replicate(args):
    """(rep, payload, None) for a fitted replicate, (rep, None, reason) for a
    failed one; perfbench's tracer reads slot 2 as the failure."""
    (dataset, method, theta_max, node_budget, candidate_cap, seed, rep) = args
    rng = np.random.default_rng([seed, rep])
    idx = rng.integers(0, dataset.I, size=dataset.I)
    try:
        # converted-rankings draws its tie-breaks from rng after the resample
        result = fit_method(dataset, method, judges=idx, theta_max=theta_max, node_budget=node_budget,
                            candidate_cap=candidate_cap, rng=rng)
    except DegenerateDataError as err:
        # a resample with no scores or no rankings for the method, or more
        # objects than brute force allows; anything else is a bug and propagates
        return rep, None, f"replicate {rep}: {err}"
    theta = np.nan if result.params.theta is None else float(result.params.theta)
    return rep, (result.params.p, theta, result.theta_flag, result.params.rank_places(), result.budget_exhausted), None


def bootstrap(
    dataset: Dataset,
    method: str = "exact-crude",
    B: int = 200,
    level: float = 0.90,
    seed: int = 0,
    *,
    theta_max: float | None = None,
    node_budget: int = search.DEFAULT_NODE_BUDGET,
    candidate_cap: int = search.DEFAULT_CANDIDATE_CAP,
    n_jobs: int = 1,
) -> BootstrapSummary:
    """Judge-level nonparametric bootstrap with percentile intervals.

    Judges are resampled with replacement, keeping each judge's scores and
    ranking paired; every replicate refits with the chosen method. Replicate
    r uses the RNG substream (seed, r), so results are identical however the
    replicates are scheduled. Raises DegenerateDataError when no replicate
    can be fitted.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    if not 0 < level < 1:
        raise ValueError("level must lie strictly between 0 and 1")
    point = fit_method(dataset, method, theta_max=theta_max, node_budget=node_budget,
                       candidate_cap=candidate_cap, rng=np.random.default_rng([seed, B]))
    tasks = [(dataset, method, theta_max, node_budget, candidate_cap, seed, rep) for rep in range(B)]
    workers = min(n_jobs, B)  # a fork pool starts every worker at its first submit
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only when a pool runs

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_bootstrap_replicate, tasks, chunksize=max(1, B // (4 * workers))))
    else:
        raw = [_bootstrap_replicate(t) for t in tasks]

    failures = [failure for _, _, failure in raw if failure is not None]
    fitted = [payload for _, payload, _ in raw if payload is not None]
    if not fitted:
        # no resample of this panel can be fitted: a property of the data, not a solver failure
        raise DegenerateDataError(f"every bootstrap replicate failed; cannot form intervals ({failures[0]})")
    p_rows, theta_vals, flags, rank_rows, exhausted = zip(*fitted)

    rep_p = np.array(p_rows)
    rep_theta = np.array(theta_vals)
    rep_ranks = np.array(rank_rows)
    lo_q, hi_q = (1 - level) / 2, (1 + level) / 2

    # one call per interval pair: numpy computes each quantile alone, so the
    # bits are those of two calls
    p_int = np.quantile(rep_p, [lo_q, hi_q], axis=0).T
    defined = ~np.isnan(rep_theta)
    if defined.any():
        theta_int = tuple(np.quantile(rep_theta[defined], [lo_q, hi_q]).tolist())
        cap_prop = float(np.mean([f == "cap" for f, d in zip(flags, defined) if d]))
    else:
        theta_int = None
        cap_prop = 0.0
    lo = np.quantile(rep_ranks, lo_q, axis=0, method="lower").astype(int)
    hi = np.quantile(rep_ranks, hi_q, axis=0, method="higher").astype(int)
    point_ranks = point.params.rank_places()
    rank_int = np.column_stack([np.minimum(lo, point_ranks), np.maximum(hi, point_ranks)])

    return BootstrapSummary(
        B=B,
        level=level,
        point=point,
        p_intervals=p_int,
        theta_interval=theta_int,
        theta_cap_proportion=cap_prop,
        rank_intervals=rank_int,
        replicate_p=rep_p,
        replicate_theta=rep_theta,
        replicate_ranks=rep_ranks,
        n_failed=len(failures),
        failures=tuple(failures),
        n_budget_exhausted=sum(exhausted),
        theta_undefined_count=int((~defined).sum()),
    )


# ---------------------------------------------------------------------------
# Exact bias enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiasTable:
    """Exact expectation of the single-judge MLE over every possible outcome."""

    p0: np.ndarray
    theta0: float
    M: int
    J: int
    R: int
    expected_p: np.ndarray
    bias: np.ndarray
    theta_cap_probability: float
    total_probability: float
    n_outcomes: int


def bias_enumeration(
    p0: Sequence[float],
    theta0: float,
    M: int,
    J: int,
    R: int,
    theta_max: float = 50.0,
    max_outcomes: int = 200_000,
) -> BiasTable:
    """Enumerate all single-judge outcomes, fit each exactly, and average.

    The internal scale cap is deliberately large so capped fits sit at the
    all-rankings-identical limit (where the normalizing constant is 1) and
    the quality biases match the uncapped maximum likelihood values; the
    capped probability mass is reported alongside.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.size != J:
        raise ValueError("p0 length must equal J")
    _check_partial_shape(R, J)
    _check_scale(M)
    n_outcomes = (M + 1) ** J * math.perm(J, R)
    if n_outcomes > max_outcomes:
        raise ValueError(f"{n_outcomes} outcomes exceed the enumeration cap {max_outcomes}")
    truth = Parameters(p=p0, theta=theta0, consensus_order=order_of(p0))
    expected_p = np.zeros(J)
    cap_mass = 0.0
    total = 0.0
    for scores in product(range(M + 1), repeat=J):
        row = np.array(scores, dtype=float)
        for ranking in permutations(range(J), R):
            prob = float(np.exp(log_density(row, ranking, truth, M)))
            ds = Dataset(J=J, M=M, scores=row.reshape(1, -1), rankings=(ranking,))
            result = brute_force(compute_stats(ds), theta_max=theta_max, cap=J)
            expected_p += prob * result.params.p
            if result.theta_flag == "cap":
                cap_mass += prob
            total += prob
    return BiasTable(
        p0=p0,
        theta0=float(theta0),
        M=M,
        J=J,
        R=R,
        expected_p=expected_p,
        bias=expected_p - p0,
        theta_cap_probability=cap_mass,
        total_probability=total,
        n_outcomes=n_outcomes,
    )


# ---------------------------------------------------------------------------
# Simulation harnesses
# ---------------------------------------------------------------------------

def grid_cells(I_values, M_values, J_values, R_values, theta_values) -> list[tuple]:
    """Every (I, M, J, R, theta) of the grid with R <= J, in product order."""
    return [(int(I), int(M), int(J), int(R), float(theta))
            for I, M, J, R, theta in product(I_values, M_values, J_values, R_values, theta_values) if R <= J]


def simulate_cell(I, M, J, R, theta, rng) -> tuple[Parameters, Dataset]:
    """Draw a truth (p uniform on the hypercube) and one panel from it."""
    p = rng.uniform(size=J)
    truth = Parameters(p=p, theta=theta, consensus_order=order_of(p))
    return truth, sample(truth, I, M, R, rng)


def consistency_experiment(
    I_values=(5, 20, 80),
    M_values=(10, 20, 40),
    J_values=(6, 12, 18),
    R_values=(6, 12, 18),
    theta_values=(1.0, 2.0, 3.0),
    trials: int = 20,
    seed: int = 0,
    method: str = "exact-crude",
    theta_max: float | None = None,
    node_budget: int = search.DEFAULT_NODE_BUDGET,
) -> list[dict]:
    """Estimation-error table over a simulation grid.

    Each row is one trial: the truth is drawn fresh, a panel is sampled and
    fit, and the row records the mean absolute quality error and the scale
    error (with capped fits marked so they can be excluded from scale
    summaries).
    """
    rows = []
    cells = grid_cells(I_values, M_values, J_values, R_values, theta_values)
    for cell_idx, (I, M, J, R, theta) in enumerate(cells):
        for trial in range(trials):
            rng = np.random.default_rng([seed, cell_idx, trial])
            truth, data = simulate_cell(I, M, J, R, theta, rng)
            t0 = time.perf_counter()
            result = fit_method(data, method, theta_max=theta_max, node_budget=node_budget)
            theta_hat = result.params.theta
            rows.append({
                "I": I, "M": M, "J": J, "R": R, "theta": theta, "trial": trial,
                "mean_abs_p_err": float(np.mean(np.abs(result.params.p - truth.p))),
                "theta_hat": None if theta_hat is None else float(theta_hat),
                "theta_err": None if theta_hat is None else float(theta_hat - theta),
                "theta_capped": result.theta_flag == "cap",
                "f_value": result.f_value,
                "seconds": time.perf_counter() - t0,
            })
    return rows


def benchmark_grid(
    I_values=(5, 20),
    M_values=(10,),
    J_values=(4, 5, 6),
    R_values=(2, 4, 6),
    theta_values=(1.0, 2.0, 3.0),
    trials: int = 5,
    algorithms: Sequence[str] = BENCHMARK_ALGORITHMS,
    seed: int = 0,
    theta_max: float | None = None,
    node_budget: int = search.DEFAULT_NODE_BUDGET,
) -> list[dict]:
    """Speed/accuracy benchmark: one row per (cell, trial, algorithm).

    Every instance also gets a reference MLE (brute force when J allows,
    otherwise exact search) so rows can report whether each algorithm hit the
    exact optimum and how far its order lies from the reference in Kendall
    distance.
    """
    rows = []
    cells = grid_cells(I_values, M_values, J_values, R_values, theta_values)
    for cell_idx, (I, M, J, R, theta) in enumerate(cells):
        for trial in range(trials):
            rng = np.random.default_rng([seed, cell_idx, trial])
            truth, data = simulate_cell(I, M, J, R, theta, rng)
            if J <= search.BRUTE_CAP:
                reference = fit_method(data, "brute", theta_max=theta_max)
            else:
                reference = fit_method(data, "exact-crude", theta_max=theta_max, node_budget=node_budget)
            ref_order = reference.params.consensus_order
            for algorithm in algorithms:
                result = fit_method(data, algorithm, theta_max=theta_max, node_budget=node_budget)
                est_order = result.params.consensus_order
                rows.append({
                    "I": I, "M": M, "J": J, "R": R, "theta": theta, "trial": trial,
                    "algorithm": algorithm,
                    "seconds": result.elapsed,
                    "nodes_expanded": result.nodes_expanded,
                    "candidate_evaluations": result.candidate_evaluations,
                    "f_value": result.f_value,
                    "exact_match": int(est_order == ref_order),
                    "kendall_to_reference": kendall.distance(est_order, ref_order),
                    "budget_exhausted": result.budget_exhausted,
                })
    return rows
