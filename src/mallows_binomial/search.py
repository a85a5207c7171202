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
import operator
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import kendall
from .fitting import (
    ConditionalFit,
    _binomial_cost,
    _chain_costs,
    _conditional_fit,
    _fit_p_core,
    _kendall_total,
    _NodePricer,
    _pair_cost,
    _scale_fit,
    _theta_cap,
    fit_given_order,
)
from .kemeny_lp import lp_free_cost
from .model import Dataset, DegenerateDataError, Parameters, Ranking, SufficientStats

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_CANDIDATE_CAP = 1024
BRUTE_CAP = 7
MAX_LOCAL_ROUNDS = 100  # greedy_local's cap on improvement rounds


class BruteForceCapExceeded(DegenerateDataError):
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
    """Precomputed lists shared by every node of one search, and its bound.

    Pair costs are counts of judges: W[u][v] judges place u above v. A
    node's fixed cost counts the judges its prefix disagrees with on the
    pairs it settles, and its free cost the cheaper orientation of each free
    pair; both are sums of integer-valued floats, exact in any order, so a
    terminal's fixed cost is its order's Kendall total D bit for bit. A
    node's exact bound is its theta part (theta_part: the scale part g at
    the total fixed + free, computed for every child generated) plus the
    Binomial cost of its p fit, which _best_first prices lazily. heuristic
    "crude" bounds the free cost by each pair's cheaper orientation, "lp" by
    the Kemeny LP over the free objects."""

    def __init__(self, stats: SufficientStats, *, theta_max: float | None, heuristic: str = "crude"):
        if heuristic not in ("crude", "lp"):
            raise ValueError(f"unknown heuristic {heuristic!r}")
        self.stats = stats
        self.J = stats.J
        self.theta_max = _theta_cap(stats.J, theta_max)
        self.heuristic = heuristic
        mmin = np.minimum(stats.W, stats.W.T)
        self.W_rows, self.mmin, self.col_total = stats.W.tolist(), mmin.tolist(), stats.W.sum(axis=0).tolist()
        self.root_rows = mmin.sum(axis=1).tolist()
        self.root_free_min = sum(self.root_rows) / 2  # every free pair is in two rows
        self._lp_cache: dict[tuple[int, ...], float] = {}
        # crude bounds' g(D) of each total D read, so the memo's key, with its J-long profile, is hashed once per D
        self._scale_parts: dict[float, float] = {}

    def theta_part(self, fixed: float, free_min: float, free: tuple[int, ...]) -> float:
        """Admissible scale part of the bound of a node with pair costs
        (fixed, free_min) and free objects free, which only the LP reads.
        _lp_cache[free] holds the LP clamped by free_min, the exact integer sum
        of the free pairs' minima whatever path reached the node, so a cached
        value is a function of its key alone."""
        # Below three free objects the LP has no triangle rows and equals the
        # pairwise minimum sum.
        if self.heuristic == "lp" and len(free) >= 3:
            if free not in self._lp_cache:
                self._lp_cache[free] = lp_free_cost(self.stats.W, free, free_min)
            free_min = self._lp_cache[free]
        return _scale_fit(fixed + free_min, self.stats.length_profile, self.theta_max)[2]

    def children(self, prefix: Ranking, fixed: float, free_min: float, carry: tuple | None, floor: float,
                 pricer: _NodePricer, counter) -> list[tuple]:
        """The heap entries of every child of a node, in object order: (theta
        part + floor, counter, child prefix, fixed, free_min, the node's
        sums, theta part, None, pricer), the lazy entry of _best_first.

        A node's sums are cross[c], the wins over c of its prefix, and
        rows[c], the cheaper orientations of c's pairs with the free objects,
        for every object c, and its free objects: its parent's (carry)
        updated by its last object, or the root's when carry is None. A child c
        adds col_total[c] - cross[c] to the fixed cost and drops rows[c]
        from the free cost. Each counter is next(counter) plus
        (J - len(prefix)) << 40, so of two entries with equal keys the
        deeper pops first."""
        J = self.J
        if carry is None:
            cross, rows, free = [0.0] * J, self.root_rows, list(range(J))
        else:
            last = prefix[-1]
            cross = list(map(operator.add, carry[0], self.W_rows[last]))
            rows = list(map(operator.sub, carry[1], self.mmin[last]))
            free = carry[2][:]
            free.remove(last)
        sums, col_total, depth = (cross, rows, free), self.col_total, (J - len(prefix)) << 40
        profile, cap, lp, parts = self.stats.length_profile, self.theta_max, self.heuristic == "lp", self._scale_parts
        entries = []
        for i, c in enumerate(free):
            f, m = fixed + col_total[c] - cross[c], free_min - rows[c]
            if lp:
                t = self.theta_part(f, m, tuple(free[:i] + free[i + 1:]))
            else:
                t = parts.get(f + m)
                if t is None:
                    t = parts[f + m] = _scale_fit(f + m, profile, cap)[2]
            entries.append((t + floor, next(counter) + depth, prefix + (c,), f, m, sums, t, None, pricer))
        return entries

    def terminal_fit(self, terminal: tuple) -> tuple[ConditionalFit, float]:
        """The conditional fit of a priced terminal's order (the object left
        goes last) and its Kendall total D: D is the terminal's fixed cost and
        its priced cost the Binomial part, bit for bit, so one p fit is left."""
        _, _, prefix, fixed, _, _, _, cost, _ = terminal
        order = prefix + tuple(o for o in range(self.J) if o not in prefix)
        return _conditional_fit(self.stats, order, _fit_p_core(self.stats, order), fixed, cost, self.theta_max), fixed


def _lazy_floor(cost: float) -> float:
    """A parent's Binomial part less the margin of its children's lazy keys."""
    return cost - 1e-9 * abs(cost)


def _best_first(ctx: _SearchContext, node_budget: int = DEFAULT_NODE_BUDGET, *, greedy: bool = False):
    """Best-first search of the prefix tree, J > 1. Returns (the terminal's
    priced entry, nodes expanded, children generated, budget exhausted).

    Nodes are expanded by least (exact bound, counter), the counter ranking
    deeper children first and then in generation order (so prefixes are never
    compared); the first terminal popped ends the search. greedy drops the
    open list before each expansion, so every level keeps the child of least
    (exact bound, object index) and the descent never backtracks.

    A child is pushed under the lazy key "its theta part + its parent's
    Binomial part - 1e-9 |parent's part|". A child that pops with a lazy key
    is priced, from its parent's _NodePricer, and pushed back with its exact
    bound and the same counter; a node is expanded only when it pops with its
    exact key. A child's chain-plus-star constraints include its parent's, so
    its p fit costs at least the parent's; the margin covers the rounding of
    the two PAVA passes, and rounded addition is monotone, so no lazy key
    exceeds the child's exact bound. A node popped exact thus has the least
    (exact bound, counter) of the open list, and the expansions are those of
    a search that priced every child at once, in the same order.

    If the budget runs out, the open terminal of least (exact bound,
    counter) is returned, lazy ones priced then; the entry is None when no
    terminal was generated."""
    J = ctx.J
    # An entry is (key, counter, prefix, fixed, free_min, the parent's sums
    # or None, theta part, cost, the parent's pricer); a lazy one has no cost yet.
    heap: list[tuple] = []
    counter = itertools.count()
    nodes = cands = 0

    def expand(prefix: Ranking, fixed: float, free_min: float, carry, pricer: _NodePricer, cost: float):
        nonlocal nodes, cands
        if greedy:
            heap.clear()
        entries = ctx.children(prefix, fixed, free_min, carry, _lazy_floor(cost), pricer, counter)
        for entry in entries:
            heapq.heappush(heap, entry)
        cands += len(entries)
        nodes += 1

    def priced(entry):
        # the entry with its exact key and its original counter
        _, count, prefix, fixed, free_min, carry, theta_part, _, pricer = entry
        cost = pricer.cost(prefix[-1:])
        return theta_part + cost, count, prefix, fixed, free_min, carry, theta_part, cost, pricer

    root = _NodePricer(ctx.stats)
    expand((), 0.0, ctx.root_free_min, None, root, root.cost(()))
    while heap:
        entry = heapq.heappop(heap)
        while entry[7] is None:
            entry = heapq.heappushpop(heap, priced(entry))
        _, _, prefix, fixed, free_min, carry, _, cost, pricer = entry
        if len(prefix) == J - 1:
            return entry, nodes, cands, False
        if nodes >= node_budget:
            break
        expand(prefix, fixed, free_min, carry, pricer.child(prefix[-1]), cost)

    # a terminal leaves the open list only by ending the search, so every one generated is open
    terminals = [entry if entry[7] is not None else priced(entry) for entry in heap if len(entry[2]) == J - 1]
    return min(terminals, key=lambda entry: entry[:2]) if terminals else None, nodes, cands, True


def _greedy_descent(stats: SufficientStats, theta_max: float | None) -> tuple[ConditionalFit, float, int]:
    """Greedy's conditional fit, built from its terminal; its Kendall total; the children generated."""
    if stats.J == 1:
        return fit_given_order(stats, (0,), theta_max=theta_max), 0.0, 0
    ctx = _SearchContext(stats, theta_max=theta_max)
    terminal, _, cands, _ = _best_first(ctx, greedy=True)
    return *ctx.terminal_fit(terminal), cands


def _theta_chord(D: float, best: tuple[float, float], lo: tuple[float, float], hi: tuple[float, float]) -> float:
    """A lower bound on the scale part g(D) = _scale_fit(D)[2] for
    lo[0] <= D <= hi[0], given the points (D, g(D)) best, lo and hi: g's
    chord from best to the end of the range on D's side."""
    (x0, y0), (x1, y1) = (best, hi) if D >= best[0] else (lo, best)
    return y0 if x1 == x0 else y0 + (y1 - y0) * ((D - x0) / (x1 - x0))


def _adjacent_swaps(stats: SufficientStats, order: Ranking,
                    total: float) -> tuple[list[Ranking], list[float], list[float]]:
    """The adjacent-swap neighbours of an order whose Kendall total is total
    (kendall.adjacent_neighbors), each one's Kendall total, exact because
    swapping a and b (a first) adds the integer W[a][b] - W[b][a], and a
    floor under its Binomial part: with the chain constraints on either side
    of the swapped pair dropped, the p fit splits into the isotonic fits of
    order[:i], of the pair and of order[i + 2:], whose summed cost is no
    larger, less _lazy_floor's margin for rounding; a pair costs O(1) (_pair_cost)."""
    W = stats.W
    prefix = _chain_costs(stats, order)
    suffix = _chain_costs(stats, order[::-1], -1.0)[::-1]  # suffix[k]: the cost of order[k:]
    totals, floors = [], []
    for i, (a, b) in enumerate(zip(order, order[1:])):
        totals.append(total - W.item(b, a) + W.item(a, b))
        floors.append(_lazy_floor(prefix[i] + _pair_cost(stats, b, a) + suffix[i + 2]))
    return kendall.adjacent_neighbors(order), totals, floors


def _best_fit(stats, orders, totals, *, theta_max, best: ConditionalFit | None = None, best_total: float | None = None,
              floors=None) -> ConditionalFit | None:
    """Conditional fit of each order in turn, given its Kendall total D
    (and, optionally, a floor under the Binomial cost of its p fit); the
    first one with a strictly smaller f than the best so far (starting from
    best, a fit of these stats under this theta_max whose order's Kendall
    total is best_total) wins.

    The scale part g(D) = _scale_fit(D)[2] is read at the smallest and the
    largest D. g is a minimum over theta of functions affine in D with
    positive slope, so it is concave and non-decreasing; on each side of the
    best's D_best, g therefore lies on or above its chord from (D_best,
    g(D_best)) to that side's end of the range, wherever D_best lies. An
    order is fitted only if its Binomial part plus that chord does not exceed
    the best f by more than 1e-9 f, which covers the rounding of g and of
    the chord. The order's floor is tested first, and its p
    is fitted only if the floor passes: the floor is at most the exact
    Binomial part and rounded addition is monotone, so an order its floor
    skips would fail the exact test too. A skipped order is not strictly
    better, so the winner is the same.
    A fit's p, D and Binomial part are the screen's, and its theta and
    g(D_best) come from the one scale-fit memo, so no order's p or distance
    is computed twice and a theta is solved again only once the memo has
    dropped it; only a winner is wrapped in a ConditionalFit."""
    if not orders:
        return best
    profile, cap = stats.length_profile, _theta_cap(stats.J, theta_max)
    lo, hi = [(D, _scale_fit(D, profile, cap)[2]) for D in (min(totals), max(totals))]

    def point(fit: ConditionalFit, D: float) -> tuple[tuple[float, float], float]:
        # (D, g(D)) of a fit and the bound above which an order is skipped
        return (D, _scale_fit(D, profile, cap)[2]), fit.f_value + 1e-9 * abs(fit.f_value)

    cutoff = math.inf  # until there is a best, nothing is skipped
    if best is not None:
        at_best, cutoff = point(best, best_total)
    for order, D, floor in zip(orders, totals, itertools.repeat(-math.inf) if floors is None else floors):
        chord = -math.inf if best is None else _theta_chord(D, at_best, lo, hi)
        if floor + chord > cutoff:
            continue
        p = _fit_p_core(stats, order)
        binomial = _binomial_cost(stats, p)
        if binomial + chord > cutoff:
            continue
        if best is not None and not binomial + _scale_fit(D, profile, cap)[2] < best.f_value:
            continue
        best = _conditional_fit(stats, order, p, D, binomial, theta_max)
        at_best, cutoff = point(best, D)
    return best


def astar(
    stats: SufficientStats,
    *,
    theta_max: float | None = None,
    heuristic: str = "crude",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> FitResult:
    """Exact MLE by best-first search over prefix orderings (_best_first).

    Nodes are expanded by least admissible total-cost bound, ties toward the
    deeper node and then by generation order; the first terminal dequeued
    carries the exact conditional optimum and is the global MLE. Its fixed
    cost is its order's Kendall total D and its priced cost its order's
    Binomial cost, bit for bit, so the fit is built from the terminal with
    one p fit, and its f, the Binomial cost plus g(D), is the terminal's key.
    heuristic selects the crude pairwise-minimum bound or the tighter
    Kemeny LP bound. If the node budget runs out, the generated terminal of
    least (bound, counter) is returned with budget_exhausted=True, so
    optimal=False (falling back to the greedy order, under crude bounds,
    when none exists yet). nodes_expanded counts expansions and
    candidate_evaluations every generated child, priced or not.
    """
    t0 = time.perf_counter()
    ctx = _SearchContext(stats, theta_max=theta_max, heuristic=heuristic)
    algorithm = f"exact-{heuristic}"
    if stats.J == 1:
        return FitResult.from_fit(stats, fit_given_order(stats, (0,), theta_max=theta_max), algorithm, t0, 0, 1)
    terminal, nodes, cands, exhausted = _best_first(ctx, node_budget)
    if terminal is None:
        warnings.warn("node budget exhausted before any terminal; returning greedy order", RuntimeWarning)
        cond = _greedy_descent(stats, theta_max)[0]
    else:
        cond = ctx.terminal_fit(terminal)[0]
    return FitResult.from_fit(stats, cond, algorithm, t0, nodes, cands, budget_exhausted=exhausted)


def brute_force(stats: SufficientStats, *, theta_max: float | None = None, cap: int = BRUTE_CAP) -> FitResult:
    """Global MLE by evaluating the conditional fit of every order.

    Ties in f break toward the lexicographically smallest order.
    """
    if stats.J > cap:
        raise BruteForceCapExceeded(f"J={stats.J} exceeds the brute-force cap {cap}")
    t0 = time.perf_counter()
    orders = list(itertools.permutations(range(stats.J)))
    best = _best_fit(stats, orders, [_kendall_total(stats, order) for order in orders], theta_max=theta_max)
    return FitResult.from_fit(stats, best, "brute", t0, 0, math.factorial(stats.J))


def greedy(stats: SufficientStats, *, theta_max: float | None = None) -> FitResult:
    """One-pass descent of the prefix tree, never backtracking: the
    best-first loop keeping only the newest children (_best_first).

    At each level the child with the smallest crude total-cost bound is kept
    (ties: lexicographic); the final order gets the exact conditional fit,
    built from the terminal the descent pops, as astar builds its own.
    """
    t0 = time.perf_counter()
    cond, _, evals = _greedy_descent(stats, theta_max)
    return FitResult.from_fit(stats, cond, "greedy", t0, max(stats.J - 1, 0), evals)


def greedy_local(stats: SufficientStats, *, theta_max: float | None = None) -> FitResult:
    """Greedy followed by steepest-descent local search over adjacent swaps.

    Each round evaluates every adjacent-transposition neighbor of the
    incumbent and moves to the best strictly improving one; stops when no
    neighbor improves (that final sweep counts as a round) or after
    MAX_LOCAL_ROUNDS rounds; greedy's terminal fit is the first incumbent.
    After two passes over the incumbent, a neighbor's distance and a floor
    under its Binomial part cost O(1) each (_adjacent_swaps), and its p is
    fitted only if the floor passes the order screen (_best_fit).
    """
    t0 = time.perf_counter()
    incumbent, total, evals = _greedy_descent(stats, theta_max)
    rounds, capped = 0, True
    while rounds < MAX_LOCAL_ROUNDS:
        rounds += 1
        neighbors, totals, floors = _adjacent_swaps(stats, incumbent.params.consensus_order, total)
        evals += len(neighbors)
        best = _best_fit(stats, neighbors, totals, theta_max=theta_max, best=incumbent, best_total=total, floors=floors)
        if best is incumbent:
            capped = False
            break
        incumbent, total = best, totals[neighbors.index(best.params.consensus_order)]
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
    tied groups; returns at most cap orders and whether it truncated.
    Objects without a finite average come last and keep their index order."""
    # Python floats: inf - inf is nan without a warning, so each such object is a group of its own
    values = np.where(np.isfinite(averages), averages, np.inf).tolist()
    idx = sorted(range(len(values)), key=lambda j: (values[j], j))
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
    orders = sorted(candidates)
    best = _best_fit(stats, orders, [_kendall_total(stats, order) for order in orders], theta_max=theta_max)
    return FitResult.from_fit(stats, best, "fv", t0, 0, len(candidates), candidate_cap_hit=cap_hit)
