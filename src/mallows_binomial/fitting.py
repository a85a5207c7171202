"""Conditional maximum-likelihood solvers.

Given a full or partial ordering of the objects, the joint objective splits
into a univariate convex problem for the consensus scale and an
order-constrained Binomial likelihood for the qualities. Both conditional
solvers are exact; the search module composes them into lower bounds and
full fits.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .kendall import _positions
from .model import Dataset, Parameters, Ranking, SufficientStats, _check_partial_shape, compute_stats
from .special import xlog1py, xlogy

THETA_FLOOR = 1e-8
_TERM_MEMO_SIZE = 4096  # Binomial terms a SufficientStats keeps per object
# fit_theta's step limit: halving (THETA_FLOOR, cap) below 1e-12 takes about
# 1,070 steps at the largest finite cap, so every finite cap converges within it.
_THETA_STEPS = 2200


def default_theta_max(J: int) -> float:
    """Scale cap J + 2: consistency arguments assume theta < J, and a
    slightly larger cap keeps boundary hits detectable."""
    return float(J + 2)


def _theta_cap(J: int, theta_max: float | None) -> float:
    """The scale cap of a fit: default_theta_max(J) when theta_max is None,
    else theta_max, which must lie strictly between THETA_FLOOR and inf."""
    if theta_max is None:
        return default_theta_max(J)
    theta_max = float(theta_max)
    if not THETA_FLOOR < theta_max < np.inf:
        raise ValueError(f"theta_max must lie strictly between {THETA_FLOOR} and inf, got {theta_max}")
    return theta_max


class _Levels(NamedTuple):
    """Mallows level weights of a length profile: w[j-1] = number of judges
    ranking at least j objects and k[j-1] = J-j+1 the level size, for
    j = 1..J, sum_r the summed lengths; wk = w*k, wkk = w*k*k and
    signed_k = [k, -k] are the Newton step's constants."""
    w: np.ndarray
    k: np.ndarray
    sum_r: float
    wk: np.ndarray
    wkk: np.ndarray
    signed_k: np.ndarray


@lru_cache(maxsize=4096)
def _level_weights(profile: tuple[int, ...]) -> _Levels:
    """The level weights of a length profile (J = len(profile)). The counts
    are integers, so any lengths with this profile give the same bits."""
    J = len(profile)
    w = np.cumsum(np.array(profile[::-1], dtype=float))[::-1].copy()
    k = np.arange(J, 0, -1, dtype=float)
    wk = w * k
    return _Levels(w, k, float(sum(R * count for R, count in enumerate(profile, 1))), wk, wk * k, np.array([k, -k]))


@lru_cache(maxsize=4096)
def _distance_at_floor_and_cap(profile: tuple[int, ...], theta_max: float) -> tuple[float, float]:
    """Summed E[d] at THETA_FLOOR and at theta_max: fit_theta's floor and cap tests."""
    levels = _level_weights(profile)
    with np.errstate(over="ignore"):
        return _expected_distance_total(THETA_FLOOR, levels)[0], _expected_distance_total(theta_max, levels)[0]


def log_psi_total(theta: float, profile: tuple[int, ...]) -> float:
    """Sum of log normalizing constants over the judges of a length profile
    (entry R-1 counts the judges ranking R of J = len(profile) objects)."""
    w, k, sum_r, *_ = _level_weights(profile)
    with np.errstate(over="ignore"):  # theta * k = inf near theta = 1e308, where log 1 = 0 is right
        return float(np.sum(w * np.log(-np.expm1(-theta * k))) - sum_r * np.log(-np.expm1(-theta)))


def _expected_distance_total(theta: float, levels: _Levels) -> tuple[float, float]:
    # Sums over judges of the mean and variance of d_{R_i,J}: both expm1 signs
    # from one call on [theta, -theta] and one on theta * [k, -k]. Overflow at
    # a large theta is harmless (a term w*k/inf is 0), so callers run it under
    # np.errstate(over="ignore"), entered once per solve.
    e1, em1 = np.expm1((theta, -theta)).tolist()
    ek, ekm = np.expm1(theta * levels.signed_k)
    mean = levels.sum_r / e1 - np.add.reduce(levels.wk / ek)
    variance = levels.sum_r / (e1 * -em1) - np.add.reduce(levels.wkk / (ek * -ekm))
    return float(mean), float(variance)


def moments(theta: float, R: int, J: int) -> tuple[float, float]:
    """Mean and variance of the Kendall distance of a top-R Mallows draw.

    Both follow from the independent level decomposition (a sum of R truncated-
    geometric insertion counts), in the single pass each fit_theta step takes.
    """
    _check_partial_shape(R, J)
    if not theta > 0:  # NaN included
        raise ValueError("theta must be positive")
    with np.errstate(over="ignore"):
        return _expected_distance_total(theta, _level_weights(tuple(int(j == R) for j in range(1, J + 1))))


def fit_theta(
    mean_distance: float,
    length_profile: tuple[int, ...],
    theta_max: float | None = None,
) -> tuple[float | None, str]:
    """Minimize theta * D * n + sum_i log_psi(theta, R_i, J) over (0, cap].

    mean_distance is the average Kendall distance per ranking-providing
    judge, and length_profile counts those judges by ranking length: entry
    R-1 is the number ranking exactly R of J = len(length_profile) objects,
    and n is its sum. Returns (theta, flag) with flag one of "interior",
    "cap" (zero or near-zero distance, the all-identical-rankings
    degeneracy), "floor" (distance at or above the uniform-limit mean, no
    interior minimizer), or "undefined" when no rankings exist. Interior
    solves are safeguarded Newton steps, each taking E[d] and Var[d] from one
    pass; the floor and cap tests read E[d] at both ends from a cache keyed
    on (length profile, theta_max). A cap outside (THETA_FLOOR, inf) or a
    negative or non-finite distance raises ValueError, and a solve still
    unconverged after _THETA_STEPS steps RuntimeError.

    The result is a function of the bits of (mean_distance, the profile,
    cap) alone, and each step's numpy operations are fixed element for
    element, so every solve of one input returns the same theta.
    The searches rely on it: _scale_fit memoizes the solve on (the Kendall
    total D, profile, cap), mean_distance being D / n, and a bound, an
    order screen and a conditional fit that meet one key all read the same
    theta and scale part, whichever of them solved it.
    """
    theta_max = _theta_cap(len(length_profile), theta_max)
    n = sum(length_profile)
    if not n:
        return None, "undefined"
    if not 0 <= mean_distance < np.inf:
        raise ValueError(f"mean distance must be finite and non-negative, got {mean_distance}")
    levels = _level_weights(length_profile)
    total = mean_distance * n
    at_floor, at_cap = _distance_at_floor_and_cap(length_profile, theta_max)
    if total - at_floor >= 0:
        return THETA_FLOOR, "floor"
    if total - at_cap <= 0:
        return theta_max, "cap"
    lo, hi = THETA_FLOOR, theta_max
    theta = 0.5 * (lo + hi)
    with np.errstate(over="ignore"):
        for _ in range(_THETA_STEPS):
            mean, curv = _expected_distance_total(theta, levels)
            h = total - mean
            if h > 0:
                hi = theta
            elif h < 0:
                lo = theta
            else:
                break
            step = h / curv if curv > 0 else 0.0
            nxt = theta - step
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - theta) < 1e-12 or hi - lo < 1e-12:
                theta = nxt
                break
            theta = nxt
        else:
            raise RuntimeError(f"theta solve did not converge in {_THETA_STEPS} steps (cap {theta_max})")
    return float(theta), "interior"


@lru_cache(maxsize=4096)
def _scale_fit(total: float, profile: tuple[int, ...], theta_max: float) -> tuple[float | None, str, float]:
    """(theta, flag, g) of the rankings' Kendall total D: fit_theta(D / n,
    profile, theta_max) for a resolved cap, n = sum(profile), and g =
    _scale_part(theta, D, profile), the scale part of f that the searches
    bound; (None, "undefined", 0.0) when there are no rankings. One memo
    serves every bound, order screen and conditional fit; keyed on the O(J)
    profile, not the judges, it holds at most 4096 * O(J) values."""
    theta, flag = fit_theta(total / (sum(profile) or 1), profile, theta_max)
    return theta, flag, _scale_part(theta, total, profile)


def _scale_part(theta: float | None, total: float, profile: tuple[int, ...]) -> float:
    """theta * D + the summed log psi of the judges of a length profile, D
    the Kendall total of their rankings; 0.0 without rankings. theta * D is
    taken as theta * ((D / n) * n), the mean distance fit_theta solves for
    times n, the bits every search key is built from."""
    n = sum(profile)
    return float(theta * (total / n * n) + log_psi_total(theta, profile)) if n else 0.0


def _pava(stack: list[tuple[float, float, tuple[int, ...]]], v: float, w: float, j: int) -> int:
    """Push object j's value v of weight w onto a pool-adjacent-violators
    stack of blocks (value, weight, members), members the block's objects in
    push order, and return the number of blocks below it.

    The value is pooled with the blocks below it while they lie above it; a
    pool of (v1, w1, members1) below (v, w, members) is ((w1*v1 + w*v) /
    (w1 + w), w1 + w, members1 + members)."""
    members = (j,)
    while stack and stack[-1][0] > v:
        v1, w1, members1 = stack.pop()
        v, w, members = (w1 * v1 + w * v) / (w1 + w), w1 + w, members1 + members
    stack.append((v, w, members))
    return len(stack) - 1


def _chain_costs(stats: SufficientStats, chain: Sequence[int], sign: float = 1.0) -> list[float]:
    """The Binomial cost of the isotonic p fit of each prefix of a chain,
    entry k that of chain[:k], from one PAVA pass: a block costs its
    members' terms at its value, and unobserved objects cost nothing. With
    sign -1 the pass pushes -q, so a reversed chain gives the cost of each
    suffix of the chain, for a pool of negated values is the pool negated."""
    q, weight, observed = stats.q, stats.q_weight, stats.observed
    stack, block_costs, costs = [], [], [0.0]  # block_costs: one per block of the stack
    for j in chain:
        if observed[j]:
            v = sign * q[j]
            if stack and stack[-1][0] > v:  # it pools: the blocks it joins are costed again
                depth = _pava(stack, v, weight[j], j)
                v, _, members = stack[depth]
                del block_costs[depth:]
                block_costs.append(sum([_binomial_term(stats, member, sign * v) for member in members]))
            else:  # a block of its own, at its own q: what _pava and the sum of one term would give
                stack.append((v, weight[j], (j,)))
                block_costs.append(0 + _binomial_term(stats, j, q[j]))
        costs.append(-sum(block_costs))
    return costs


def _pair_cost(stats: SufficientStats, first: int, second: int) -> float:
    """_chain_costs(stats, (first, second))[2], bit for bit: both terms at their
    own q, or at _pava's pool if q[first] > q[second]; the pass if one is unobserved."""
    q, weight, observed = stats.q, stats.q_weight, stats.observed
    if not (observed[first] and observed[second]):
        return _chain_costs(stats, (first, second))[2]
    v, w = q[first], q[second]
    if v > w:
        v = w = (weight[first] * v + weight[second] * w) / (weight[first] + weight[second])
    return -(_binomial_term(stats, first, v) + _binomial_term(stats, second, w))


def _binomial_term(stats: SufficientStats, j: int, p_j: float) -> float:
    """xlogy(a, p) + xlog1py(b, -p) of object j at p_j, where a = count * mean
    and b = count * (M - mean), so 0*log(0) = 0 at the boundary and an
    unobserved object's term is 0. The term depends on the object and p value
    only, and the stats remember up to _TERM_MEMO_SIZE of them per object, so
    the fits of one search seldom compute a log."""
    memo = stats.binomial_terms[j]
    term = memo.get(p_j)
    if term is None:
        term = xlogy(stats.a.item(j), p_j) + xlog1py(stats.b.item(j), -p_j)
        if len(memo) < _TERM_MEMO_SIZE:
            memo[p_j] = term
    return term


def _binomial_cost(stats: SufficientStats, p: np.ndarray) -> float:
    """Negative Binomial loglikelihood, less its coefficients, of the quality
    vector p: minus the correctly rounded sum (math.fsum) of its per-object
    terms, which no summation order can change."""
    return -math.fsum([_binomial_term(stats, j, p_j) for j, p_j in enumerate(p.tolist())])


class _NodePricer:
    """The Binomial cost of the p fit of the children of one search node,
    one child at a time: the cost of prefix + ext is, bit for bit,
    _binomial_cost(stats, _fit_p_core(stats, prefix + ext)).

    The pricer holds the PAVA stack of the prefix chain, each block with its
    members. A child resumes from it, pushes its extension, then pushes the
    q-sorted free tail only while a value would pool with the top block: the
    first that would not, and every later one, stays a singleton at its own
    q, because the tail is sorted. Each child's row is the prefix's template
    (chain terms at their blocks' values, tail terms at their own q, 0 for
    unobserved objects) with only the members of re-pooled blocks replaced,
    and is summed by math.fsum, as _binomial_cost sums.
    A pricer is built for the root and derived object by object down the
    tree; PAVA pushes one value at a time, so a derived stack and template
    are those a build from the whole prefix would give."""

    __slots__ = ("stats", "tail", "stack", "template")

    def __init__(self, stats: SufficientStats):
        """The pricer of the root, whose prefix is empty."""
        self.stats = stats
        self.stack = []
        self.tail = list(stats.by_q)
        self.template = [0.0] * stats.J
        for j in self.tail:
            self.template[j] = _binomial_term(stats, j, stats.q[j])

    def child(self, j: int) -> "_NodePricer":
        """The pricer of the node prefix + (j,)."""
        stats = self.stats
        if not stats.observed[j]:
            return self  # no term, no place on the chain, not in the tail
        child = _NodePricer.__new__(_NodePricer)
        child.stats = stats
        child.tail = tail = self.tail[:]
        tail.remove(j)  # an observed free object is in the tail once
        child.stack = stack = self.stack[:]
        v, _, members = stack[_pava(stack, stats.q[j], stats.q_weight[j], j)]
        child.template = template = self.template[:]
        for member in members:
            template[member] = _binomial_term(stats, member, v)
        return child

    def cost(self, ext: Ranking) -> float:
        """The Binomial cost of the node prefix + ext, ext a tuple of free
        objects (one for a child, none for the node itself)."""
        stats = self.stats
        q, weight, observed = stats.q, stats.q_weight, stats.observed
        blocks, depth = self.stack[:], len(self.stack)
        for j in ext:
            if observed[j]:
                below = _pava(blocks, q[j], weight[j], j)
                if below < depth:
                    depth = below
        for j in self.tail:
            if j not in ext:
                if not blocks or blocks[-1][0] <= q[j]:
                    break  # it would pool with nothing
                below = _pava(blocks, q[j], weight[j], j)
                if below < depth:
                    depth = below
        row = self.template[:]
        for v, _, members in blocks[depth:]:
            for j in members:
                row[j] = _binomial_term(stats, j, v)
        return -math.fsum(row)


def _fit_p_core(stats: SufficientStats, prefix: Ranking) -> np.ndarray:
    """Exact order-constrained Binomial MLE of the quality vector.

    Minimizes sum_j count_j * [mean_j log(1/p_j) + (M - mean_j) log(1/(1-p_j))]
    subject to the chain-plus-star partial order of the prefix n_1..n_k:
    p_{n_1} <= ... <= p_{n_k}, and p_{n_k} <= p_l for every object l outside
    it. Appending the star leaves to the chain in ascending order of their
    mean score gives a total order whose isotonic regression is already
    star-feasible, hence optimal under the partial order too. Isotonic
    regression minimizes every Bregman loss at once, the Binomial one
    included (Robertson, Wright & Dykstra 1988), so one chain PAVA gives the
    constrained MLE.

    Objects with no observed scores contribute no term; they take the nearest
    feasible value (the top chain value when free) and are non-identified.
    The prefix must list distinct objects in [0, J); callers pass search
    nodes and permutations, so it is not checked.
    """
    # Python floats from the stats' score view: the same IEEE operations as
    # numpy scalars, without their per-operation cost.
    q, weight, observed = stats.q, stats.q_weight, stats.observed
    members = [j for j in prefix if observed[j]]
    n_chain = len(members)
    fixed = set(prefix)
    members += [j for j in stats.by_q if j not in fixed]
    p = [0.5] * stats.J
    if not members:
        return np.array(p)
    stack: list[tuple[float, float, tuple[int, ...]]] = []
    for j in members:
        _pava(stack, q[j], weight[j], j)
    for v, _, block in stack:
        for j in block:
            p[j] = v

    # Zero-count objects take the nearest feasible value: a chain gap the
    # value below it (the first observed value when it leads), an unobserved
    # chain min(lowest leaf, 0.5), a free object the top of the chain.
    prev = stack[0][0] if n_chain else min(stack[0][0], 0.5)
    for j in prefix:
        if observed[j]:
            prev = p[j]
        else:
            p[j] = prev
    if prefix:
        top = p[prefix[-1]]
        for j in stats.unobserved:
            if j not in fixed:
                p[j] = top
    return np.array(p)


def _kendall_total(stats: SufficientStats, order: Sequence[int]) -> float:
    """D: the summed Kendall distance of the observed rankings to a full
    order, the win counts of the pairs it reverses, an integer summed
    exactly; 0.0 without rankings. A search reaches the same D through its
    own sums, so both give the scale fit the same key."""
    pos = _positions(order)
    mask = pos[:, None] > pos[None, :]
    return float(stats.W[mask].sum())


def objective(data: Dataset | SufficientStats, params: Parameters, M: int | None = None) -> float:
    """Negative joint loglikelihood less the binomial-coefficient constants,
    generalized to per-judge ranking lengths and missing score cells: the
    Binomial part of p plus the scale part theta * D + sum log psi, D the
    Kendall total of the rankings to the consensus order, added as a search
    adds its keys. The score scale is read from data; M, when given, must
    equal it."""
    stats = compute_stats(data) if isinstance(data, Dataset) else data
    if M is not None and M != stats.M:
        raise ValueError(f"M={M} disagrees with the data's score scale M={stats.M}")
    if params.J != stats.J:
        raise ValueError(f"parameters hold {params.J} objects, the data J={stats.J}")
    if stats.n_rankers and params.theta is None:
        raise ValueError("rankings present but parameters carry no theta")
    total = _kendall_total(stats, params.consensus_order)
    return _binomial_cost(stats, params.p) + _scale_part(params.theta, total, stats.length_profile)


class ConditionalFit(NamedTuple):
    params: Parameters
    f_value: float
    theta_flag: str


def fit_given_order(
    stats: SufficientStats,
    order: Sequence[int],
    *,
    theta_max: float | None = None,
) -> ConditionalFit:
    """Exact conditional optimum of (p, theta) for a fixed consensus order."""
    order = tuple(map(int, order))
    if sorted(order) != list(range(stats.J)):
        raise ValueError("order is not a permutation of the objects")
    p = _fit_p_core(stats, order)
    return _conditional_fit(stats, order, p, _kendall_total(stats, order), _binomial_cost(stats, p), theta_max)


def _conditional_fit(stats: SufficientStats, order: Ranking, p: np.ndarray, total: float, binomial: float,
                     theta_max: float | None) -> ConditionalFit:
    """The conditional fit of a permutation from its p fit, its Kendall
    total D and the Binomial cost of p: the theta solve is all that is left,
    and it is read from the scale-fit memo, which the search that found the
    order has mostly filled. f is the Binomial cost plus the memo's scale
    part g(D), the sum a search's key takes, so every conditional fit's
    value is the objective's at its parameters, bit for bit."""
    theta, flag, g = _scale_fit(total, stats.length_profile, _theta_cap(stats.J, theta_max))
    params = Parameters(p=p, theta=theta, consensus_order=order, theta_at_cap=flag == "cap")
    return ConditionalFit(params, binomial + g, flag)
