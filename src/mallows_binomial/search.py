"""Consensus-order search: exact A* over the prefix tree, a brute-force
oracle, and the FV / Greedy / Greedy-Local approximations.

Every algorithm returns the exact conditional fit for whatever order it
settles on, so f_value always equals the objective at the returned
parameters; the exact algorithms additionally guarantee that order is the
global minimizer.
"""
from __future__ import annotations

import heapq
import itertools
import math
import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kendall
from .fitting import (
    ConditionalFit,
    _binomial_costs,
    _conditional_fit,
    _fit_p_core,
    _node_binomial_costs,
    _theta_cap,
    _theta_cost,
    _theta_part,
    fit_given_order,
    mean_kendall_distance,
)
from .kemeny_lp import lp_free_cost
from .model import Dataset, Parameters, Ranking, SufficientStats

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_CANDIDATE_CAP = 1024
BRUTE_CAP = 7
MAX_LOCAL_ROUNDS = 100  # greedy_local's cap on improvement rounds


class BruteForceCapExceeded(ValueError):
    """Raised when brute_force is asked for more objects than its cap."""


@dataclass(frozen=True)
class FitResult:
    """A fitted model plus search diagnostics."""

    params: Parameters
    f_value: float
    algorithm: str
    nodes_expanded: int
    candidate_evaluations: int
    elapsed: float
    theta_flag: str
    non_identified: tuple[int, ...] = ()
    budget_exhausted: bool = False
    local_rounds: int = 0
    rounds_capped: bool = False
    candidate_cap_hit: bool = False

    @property
    def optimal(self) -> bool:
        """Whether an exact search proved its order optimal: it did unless
        the node budget ran out."""
        return not self.budget_exhausted

    @classmethod
    def from_fit(cls, stats: SufficientStats, cond: ConditionalFit, algorithm: str, t0: float,
                 nodes: int, cands: int, **flags) -> "FitResult":
        """Wrap an existing conditional fit; elapsed runs from t0 to now."""
        return cls(
            params=cond.params,
            f_value=cond.f_value,
            algorithm=algorithm,
            nodes_expanded=nodes,
            candidate_evaluations=cands,
            elapsed=time.perf_counter() - t0,
            theta_flag=cond.theta_flag,
            non_identified=stats.unobserved,
            **flags,
        )


class _SearchContext:
    """Precomputed arrays shared by every bound evaluation of one search."""

    def __init__(self, stats: SufficientStats, *, theta_max: float | None):
        self.stats = stats
        self.J = stats.J
        self.theta_max = _theta_cap(stats.J, theta_max)
        self.Q = stats.Q
        self.QT = np.ascontiguousarray(stats.Q.T)
        self.col_total = stats.Q.sum(axis=0)
        self.mmin = np.minimum(stats.Q, stats.Q.T)
        self.root_free_min = float(self.mmin[np.triu_indices(self.J, k=1)].sum())
        self._lp_cache: dict[tuple[int, ...], float] = {}

    def bounds(self, prefix: Ranking, extensions: Sequence[Ranking], fixed: Sequence[float],
               free_min: Sequence[float], frees: Sequence[tuple[int, ...]], heuristic: str) -> list[float]:
        """Admissible total-cost bound of each node prefix + ext with its
        (fixed, free_min, free): its theta part plus the Binomial cost of its
        p fit, the latter priced for all the nodes from one PAVA stack of the
        prefix."""
        theta_parts, profile = [], self.stats.length_profile
        for fixed_c, free_min_c, free in zip(fixed, free_min, frees):
            # Below three free objects the LP has no triangle rows and equals the
            # pairwise minimum sum.
            if heuristic == "lp" and len(free) >= 3:
                if free not in self._lp_cache:
                    self._lp_cache[free] = lp_free_cost(self.Q, free, free_min_c)
                free_min_c = self._lp_cache[free]
            # L sums non-negative costs, but its incremental update can round a zero below it.
            theta_parts.append(_theta_cost(max(fixed_c + free_min_c, 0.0), profile, self.theta_max))
        binomial = _node_binomial_costs(self.stats, prefix, extensions)
        return [value + cost for value, cost in zip(theta_parts, binomial)]

    def children(self, prefix: Ranking, fixed: float, free_min: float, heuristic: str):
        """Yield (bound, child_prefix, fixed, free_min, free) for every child
        of a node, in object order.

        A child adds its column of Q, less the prefix rows, to the fixed cost and
        drops its free pairs' minima from the free cost. Both are row sums of
        C-contiguous child x object blocks, which numpy sums row by row as it
        sums each row alone."""
        free = tuple(o for o in range(self.J) if o not in prefix)
        children = np.array(free)
        rows = children[:, None]
        fixed_c = (fixed + self.col_total[children] - self.QT[rows, list(prefix)].sum(axis=1)).tolist()
        free_min_c = (free_min - self.mmin[rows, children].sum(axis=1)).tolist()  # mmin[c, c] = 0
        extensions = [(child,) for child in free]
        frees = [free[:i] + free[i + 1:] for i in range(len(free))]
        bounds = self.bounds(prefix, extensions, fixed_c, free_min_c, frees, heuristic)
        prefixes = [prefix + ext for ext in extensions]
        yield from zip(bounds, prefixes, fixed_c, free_min_c, frees)


def _theta_chord(d: float, best: tuple[float, float], lo: tuple[float, float], hi: tuple[float, float]) -> float:
    """A lower bound on g(d) = _theta_cost(d) for lo[0] <= d <= hi[0], given
    the points (d, g(d)) best, lo and hi: g's chord from best to the end of
    the range on d's side."""
    (x0, y0), (x1, y1) = (best, hi) if d >= best[0] else (lo, best)
    return y0 if x1 == x0 else y0 + (y1 - y0) * ((d - x0) / (x1 - x0))


def _best_fit(stats, orders, *, theta_max, best: ConditionalFit | None = None) -> ConditionalFit | None:
    """Conditional fit of each order in turn; the first one with a strictly
    smaller f than the best so far (starting from best, a fit of these stats
    under this theta_max) wins.

    A first pass takes each order's mean Kendall distance d, and g(d) =
    _theta_cost(d) is solved at the smallest and the largest. g is a minimum
    over theta of functions affine in d with positive slope, so it is concave
    and non-decreasing; on each side of the best's d_best, g therefore lies
    on or above its chord from (d_best, g(d_best)) to that side's end of the
    range, wherever d_best lies. An order is fitted only if its exact
    Binomial part plus that chord does not exceed the best f by more than
    1e-9 f, which covers the rounding of g against the objective's theta
    part. A skipped order is not strictly better, so the winner is the same.
    A fit's p, d and Binomial part are the screen's, and g(d_best) is read
    from the best's own theta (fit_theta's bitwise rule), so no order's p,
    distance or theta is computed twice."""
    orders = list(orders)
    if not orders:
        return best
    distances = [mean_kendall_distance(stats, order) for order in orders]
    cap = _theta_cap(stats.J, theta_max)
    lo, hi = [(d, _theta_cost(d, stats.length_profile, cap)) for d in (min(distances), max(distances))]

    def point(fit: ConditionalFit, d: float) -> tuple[tuple[float, float], float]:
        # (d, g(d)) of a fit and the bound above which an order is skipped
        theta = fit.params.theta
        g = 0.0 if theta is None else _theta_part(theta, d, stats.length_profile)
        return (d, g), fit.f_value + 1e-9 * abs(fit.f_value)

    if best is not None:
        at_best, cutoff = point(best, mean_kendall_distance(stats, best.params.consensus_order))
    for order, d in zip(orders, distances):
        p = _fit_p_core(stats, order)
        binomial = _binomial_costs(stats, [p])[0]
        if best is not None and binomial + _theta_chord(d, at_best, lo, hi) > cutoff:
            continue
        cond = _conditional_fit(stats, order, p, d, binomial, theta_max)
        if best is None or cond.f_value < best.f_value:
            best = cond
            at_best, cutoff = point(best, d)
    return best


def astar(
    stats: SufficientStats,
    *,
    theta_max: float | None = None,
    heuristic: str = "crude",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> FitResult:
    """Exact MLE by best-first search over prefix orderings.

    Nodes are expanded by lowest admissible total-cost bound, ties by
    insertion order (the heap's counter is unique, so prefixes are never
    compared); the first terminal dequeued carries the exact conditional
    optimum and is the global MLE. heuristic selects the crude
    pairwise-minimum bound or the tighter Kemeny LP bound. If the node
    budget runs out, the best terminal generated so far is returned with
    budget_exhausted=True, so optimal=False (falling back to the greedy order
    when none exists yet).
    """
    if heuristic not in ("crude", "lp"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    t0 = time.perf_counter()
    ctx = _SearchContext(stats, theta_max=theta_max)
    J = stats.J
    algorithm = f"exact-{heuristic}"
    if J == 1:
        return FitResult.from_fit(stats, fit_given_order(stats, (0,), theta_max=theta_max), algorithm, t0, 0, 1)

    heap: list[tuple[float, int, Ranking, float, float]] = []
    counter = itertools.count()
    nodes_expanded = 0
    candidate_evals = 0
    best_terminal: tuple[float, Ranking] | None = None

    def expand(prefix: Ranking, fixed: float, free_min: float):
        nonlocal candidate_evals, best_terminal
        for bound, child_prefix, fixed_c, free_min_c, free_c in ctx.children(prefix, fixed, free_min, heuristic):
            candidate_evals += 1
            heapq.heappush(heap, (bound, next(counter), child_prefix, fixed_c, free_min_c))
            if len(child_prefix) == J - 1:
                if best_terminal is None or bound < best_terminal[0]:
                    best_terminal = (bound, child_prefix + free_c)

    expand((), 0.0, ctx.root_free_min)
    nodes_expanded += 1
    while heap:
        _, _, prefix, fixed, free_min = heapq.heappop(heap)
        if len(prefix) == J - 1:
            order = prefix + tuple(o for o in range(J) if o not in prefix)
            return FitResult.from_fit(stats, fit_given_order(stats, order, theta_max=theta_max), algorithm, t0,
                                      nodes_expanded, candidate_evals)
        if nodes_expanded >= node_budget:
            break
        expand(prefix, fixed, free_min)
        nodes_expanded += 1

    if best_terminal is None:
        warnings.warn("node budget exhausted before any terminal; returning greedy order", RuntimeWarning)
        order = _greedy_order(ctx)[0]
    else:
        order = best_terminal[1]
    return FitResult.from_fit(stats, fit_given_order(stats, order, theta_max=theta_max), algorithm, t0,
                              nodes_expanded, candidate_evals, budget_exhausted=True)


def brute_force(stats: SufficientStats, *, theta_max: float | None = None, cap: int = BRUTE_CAP) -> FitResult:
    """Global MLE by evaluating the conditional fit of every order.

    Ties in f break toward the lexicographically smallest order.
    """
    if stats.J > cap:
        raise BruteForceCapExceeded(f"J={stats.J} exceeds the brute-force cap {cap}")
    t0 = time.perf_counter()
    best = _best_fit(stats, itertools.permutations(range(stats.J)), theta_max=theta_max)
    return FitResult.from_fit(stats, best, "brute", t0, 0, math.factorial(stats.J))


def _greedy_order(ctx: _SearchContext) -> tuple[Ranking, int]:
    """Depth-first descent choosing the child with the smallest crude bound."""
    prefix: Ranking = ()
    fixed, free_min, free = 0.0, ctx.root_free_min, tuple(range(ctx.J))
    evals = 0
    while len(free) > 1:
        evals += len(free)
        _, prefix, fixed, free_min, free = min(ctx.children(prefix, fixed, free_min, "crude"),
                                               key=lambda child: child[0])
    return prefix + free, evals


def greedy(stats: SufficientStats, *, theta_max: float | None = None) -> FitResult:
    """One-pass descent of the prefix tree, never backtracking.

    At each level the child with the smallest crude total-cost bound is kept
    (ties: lexicographic); the final order gets the exact conditional fit.
    """
    t0 = time.perf_counter()
    order, evals = _greedy_order(_SearchContext(stats, theta_max=theta_max))
    return FitResult.from_fit(stats, fit_given_order(stats, order, theta_max=theta_max), "greedy", t0,
                              max(stats.J - 1, 0), evals)


def greedy_local(stats: SufficientStats, *, theta_max: float | None = None) -> FitResult:
    """Greedy followed by steepest-descent local search over adjacent swaps.

    Each round evaluates every adjacent-transposition neighbor of the
    incumbent and moves to the best strictly improving one; stops when no
    neighbor improves (that final sweep counts as a round) or after
    MAX_LOCAL_ROUNDS rounds.
    """
    t0 = time.perf_counter()
    order, evals = _greedy_order(_SearchContext(stats, theta_max=theta_max))
    incumbent = fit_given_order(stats, order, theta_max=theta_max)
    rounds, capped = 0, True
    while rounds < MAX_LOCAL_ROUNDS:
        rounds += 1
        neighbors = kendall.adjacent_neighbors(incumbent.params.consensus_order)
        evals += len(neighbors)
        best = _best_fit(stats, neighbors, theta_max=theta_max, best=incumbent)
        if best is incumbent:
            capped = False
            break
        incumbent = best
    return FitResult.from_fit(stats, incumbent, "greedy-local", t0, max(stats.J - 1, 0), evals,
                              local_rounds=rounds, rounds_capped=capped)


def _group_orders(groups: list[list[int]]):
    """Concatenations of one permutation per group, first group outermost
    (the order of itertools.product), generated lazily."""
    if not groups:
        yield ()
        return
    for head in itertools.permutations(groups[0]):
        for tail in _group_orders(groups[1:]):
            yield head + tail


def _tie_break_orders(averages: np.ndarray, cap: int):
    """All orders sorting the averages ascending, enumerating permutations of
    tied groups; returns at most cap orders and whether it truncated."""
    values = np.where(np.isfinite(averages), averages, np.inf)
    idx = sorted(range(values.size), key=lambda j: (values[j], j))
    groups: list[list[int]] = []
    for j in idx:
        if groups and abs(values[groups[-1][0]] - values[j]) <= 1e-9:
            groups[-1].append(j)
        else:
            groups.append([j])
    orders = list(itertools.islice(_group_orders(groups), cap + 1))
    return orders[:cap], len(orders) > cap


def fv(
    stats: SufficientStats,
    dataset: Dataset,
    *,
    theta_max: float | None = None,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> FitResult:
    """Average-rank candidate search.

    Base orders come from average rank positions computed from rankings alone
    and from scores alone (all tie-break permutations, capped); the candidate
    set is expanded with every adjacent-transposition neighbor of every base
    order, and the best conditional fit wins. candidate_cap must be positive.
    """
    if candidate_cap < 1:
        raise ValueError(f"candidate_cap must be positive, got {candidate_cap}")
    t0 = time.perf_counter()
    from_rankings, from_scores = kendall.average_ranks(dataset)
    bases: list[Ranking] = []
    cap_hit = False
    for avg in (from_rankings, from_scores):
        if avg is None:
            continue
        orders, truncated = _tie_break_orders(avg, candidate_cap)
        bases.extend(orders)
        cap_hit = cap_hit or truncated
    if cap_hit:
        warnings.warn(f"tie-break enumeration truncated at candidate cap {candidate_cap}", RuntimeWarning)
    candidates = set(bases)
    for base in bases:
        candidates.update(kendall.adjacent_neighbors(base))
    best = _best_fit(stats, sorted(candidates), theta_max=theta_max)
    return FitResult.from_fit(stats, best, "fv", t0, 0, len(candidates), candidate_cap_hit=cap_hit)
