"""Conditional maximum-likelihood solvers.

Given a full or partial ordering of the objects, the joint objective splits
into a univariate convex problem for the consensus scale and an
order-constrained Binomial likelihood for the qualities. Both conditional
solvers are exact; the search module composes them into lower bounds and
full fits.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .model import Dataset, Parameters, Ranking, SufficientStats, _check_partial_shape, compute_stats
from .special import xlog1py, xlogy

THETA_FLOOR = 1e-8
_TERM_MEMO_SIZE = 4096  # Binomial terms a SufficientStats keeps per object


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
    negative or non-finite distance raises ValueError.

    The result is a function of the bits of (mean_distance, the profile,
    cap) alone, and each step's numpy operations are fixed element for
    element, so every solve of one input returns the same theta.
    The searches rely on it: theta * (mean_distance * n) + log psi at the
    returned theta is _theta_cost(mean_distance) bit for bit, which lets an
    order scan read g at a fitted order from its fit instead of solving again.
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
        for _ in range(200):
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
    return float(theta), "interior"


@lru_cache(maxsize=4096)
def _theta_cost(mean_distance: float, profile: tuple[int, ...], theta_max: float) -> float:
    """Minimized scale-part value theta*total + log psi at the fitted theta;
    0.0 when there are no rankings. One memo serves every search; keyed on
    the O(J) profile, not the judges, it holds at most 4096 * O(J) values."""
    if not sum(profile):
        return 0.0
    return _theta_part(fit_theta(mean_distance, profile, theta_max)[0], mean_distance, profile)


def _theta_part(theta: float, mean_distance: float, profile: tuple[int, ...]) -> float:
    """theta * (mean_distance * n) + log psi summed over the n judges of a
    length profile: the scale part of f as the order scans bound it."""
    return float(theta * (mean_distance * sum(profile)) + log_psi_total(theta, profile))


def _pava(stack: list[tuple[float, float, int]], v: float, w: float) -> int:
    """Push the value v of weight w onto a pool-adjacent-violators stack of
    blocks (value, weight, member count) and return the number of blocks
    below it.

    The value is pooled with the blocks below it while they lie above it; a
    pool of (v1, w1) below (v, w) is (w1*v1 + w*v) / (w1 + w)."""
    span = 1
    while stack and stack[-1][0] > v:
        v1, w1, span1 = stack.pop()
        v, w, span = (w1 * v1 + w * v) / (w1 + w), w1 + w, span + span1
    stack.append((v, w, span))
    return len(stack) - 1


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


def _binomial_costs(stats: SufficientStats, fits: Sequence[np.ndarray]) -> list[float]:
    """Negative Binomial loglikelihood, less its coefficients, of each quality
    vector in fits: minus the row sum of its per-object terms. The rows of one
    matrix are summed as numpy sums one vector."""
    rows = [[_binomial_term(stats, j, p_j) for j, p_j in enumerate(p.tolist())] for p in fits]
    return (-np.array(rows).sum(axis=1)).tolist()


def _node_binomial_costs(stats: SufficientStats, prefix: Ranking, extensions: Sequence[Ranking]) -> list[float]:
    """The Binomial cost of the p fit of each node prefix + ext, bit for bit
    _binomial_costs(stats, [_fit_p_core(stats, prefix + ext) for ext in extensions]).

    The PAVA stack of the prefix chain is built once. A node resumes from it,
    pushes its extension, then pushes the q-sorted free tail only until a
    value pools with nothing: that value and every later one stays a
    singleton at its own q, because the tail is sorted. Each node's row is
    the prefix's template (chain terms at the stack's values, tail terms at
    their own q, 0 for unobserved objects) with only the entries of re-pooled
    blocks replaced."""
    q, weight, observed = stats.q, stats.q_weight, stats.observed
    fixed = set(prefix)
    chain = [j for j in prefix if observed[j]]
    tail = [j for j in stats.by_q if j not in fixed]
    stack: list[tuple[float, float, int]] = []
    for j in chain:
        _pava(stack, q[j], weight[j])
    starts = list(itertools.accumulate((span for _, _, span in stack), initial=0))
    template = [0.0] * stats.J
    for (v, _, span), start in zip(stack, starts):
        for j in chain[start:start + span]:
            template[j] = _binomial_term(stats, j, v)
    for j in tail:
        template[j] = _binomial_term(stats, j, q[j])

    rows = []
    for ext in extensions:
        blocks, depth, pushed = stack[:], len(stack), []
        for j in ext:
            if observed[j]:
                depth = min(depth, _pava(blocks, q[j], weight[j]))
                pushed.append(j)
        for j in tail:
            if j not in ext:
                below = _pava(blocks, q[j], weight[j])
                if blocks[-1][2] == 1:  # pooled with nothing
                    blocks.pop()
                    break
                pushed.append(j)
                depth = min(depth, below)
        row = template[:]
        members = chain[starts[depth]:] + pushed
        start = 0
        for v, _, span in blocks[depth:]:
            for j in members[start:start + span]:
                row[j] = _binomial_term(stats, j, v)
            start += span
        rows.append(row)
    return (-np.array(rows).sum(axis=1)).tolist()


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
    stack: list[tuple[float, float, int]] = []
    for j in members:
        _pava(stack, q[j], weight[j])
    fitted = [v for v, _, span in stack for _ in range(span)]
    for j, v in zip(members, fitted):
        p[j] = v

    # Zero-count objects take the nearest feasible value: a chain gap the
    # value below it (the first observed value when it leads), an unobserved
    # chain min(lowest leaf, 0.5), a free object the top of the chain.
    prev = fitted[0] if n_chain else min(fitted[0], 0.5)
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


def mean_kendall_distance(stats: SufficientStats, order: Sequence[int]) -> float:
    """Average Kendall distance of the observed rankings to a full order,
    recovered from the pairwise preference matrix."""
    pos = np.empty(stats.J, dtype=int)
    for r, obj in enumerate(order):
        pos[obj] = r
    mask = pos[:, None] > pos[None, :]
    return float(stats.Q[mask].sum())


def objective(data: Dataset | SufficientStats, params: Parameters, M: int | None = None) -> float:
    """Negative joint loglikelihood less the binomial-coefficient constants,
    generalized to per-judge ranking lengths and missing score cells. The
    score scale is read from data; M, when given, must equal it."""
    stats = compute_stats(data) if isinstance(data, Dataset) else data
    if M is not None and M != stats.M:
        raise ValueError(f"M={M} disagrees with the data's score scale M={stats.M}")
    d_mean = None
    if stats.n_rankers:
        if params.theta is None:
            raise ValueError("rankings present but parameters carry no theta")
        d_mean = mean_kendall_distance(stats, params.consensus_order)
    return _objective(stats, _binomial_costs(stats, [params.p])[0], params.theta, d_mean)


def _objective(stats: SufficientStats, binomial: float, theta: float | None, d_mean: float | None) -> float:
    # objective from the Binomial cost of p, theta and the mean Kendall
    # distance of the rankings to the consensus order
    if not stats.n_rankers:
        return float(binomial)
    return float(binomial + theta * d_mean * stats.n_rankers + log_psi_total(theta, stats.length_profile))


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
    order = tuple(int(o) for o in order)
    if sorted(order) != list(range(stats.J)):
        raise ValueError("order is not a permutation of the objects")
    p = _fit_p_core(stats, order)
    return _conditional_fit(stats, order, p, mean_kendall_distance(stats, order), _binomial_costs(stats, [p])[0],
                            theta_max)


def _conditional_fit(stats: SufficientStats, order: Ranking, p: np.ndarray, d_mean: float, binomial: float,
                     theta_max: float | None) -> ConditionalFit:
    """The conditional fit of a permutation from its p fit, its mean Kendall
    distance and the Binomial cost of p: the theta solve is all that is left.
    Every conditional fit is built here, so its value is the objective's."""
    theta, flag = None, "undefined"
    if stats.n_rankers:
        theta, flag = fit_theta(d_mean, stats.length_profile, theta_max)
    params = Parameters(p=p, theta=theta, consensus_order=order, theta_at_cap=flag == "cap")
    return ConditionalFit(params, _objective(stats, binomial, theta, d_mean), flag)
