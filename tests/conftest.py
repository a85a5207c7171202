"""Shared helpers: instance generators and independent oracles."""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import xlog1py, xlogy

from mallows_binomial import Dataset, Parameters, order_of, sample, search
from mallows_binomial.fitting import THETA_FLOOR, _binomial_costs, _fit_p_core, _theta_cost, default_theta_max
from mallows_binomial.kemeny_lp import lp_free_cost


def pairwise_distance_oracle(ranking, order) -> int:
    """Discordant-pair count straight from the definition: ranked objects
    precede unranked ones, unranked pairs are incomparable."""
    J = len(order)
    pos0 = {obj: r for r, obj in enumerate(order)}
    rank_pos = {obj: r for r, obj in enumerate(ranking)}

    def before(a, b):
        if a in rank_pos and b in rank_pos:
            return rank_pos[a] < rank_pos[b]
        if a in rank_pos:
            return True
        return False

    d = 0
    for a, b in itertools.combinations(range(J), 2):
        if before(a, b) and pos0[b] < pos0[a]:
            d += 1
        if before(b, a) and pos0[a] < pos0[b]:
            d += 1
    return d


def pairwise_wins_oracle(dataset) -> np.ndarray:
    """Win counts wins[u, v] of judges whose ranking puts u strictly above v,
    one pair at a time: ranked objects beat later ranked ones and every
    unranked one; unranked pairs add nothing."""
    J = dataset.J
    wins = np.zeros((J, J))
    for ranking in dataset.rankings:
        if ranking is None:
            continue
        ranked = np.zeros(J, dtype=bool)
        for pos, u in enumerate(ranking):
            ranked[u] = True
            for v in ranking[pos + 1:]:
                wins[u, v] += 1.0
        unranked = np.flatnonzero(~ranked)
        for u in ranking:
            wins[u, unranked] += 1.0
    return wins


def all_partial_rankings(J, R):
    return itertools.permutations(range(J), R)


def brute_psi(theta, R, J) -> float:
    order = tuple(range(J))
    return math.fsum(
        math.exp(-theta * pairwise_distance_oracle(pi, order))
        for pi in all_partial_rankings(J, R)
    )


def random_params(rng, J, theta_range=(0.3, 4.0)) -> Parameters:
    p = rng.uniform(size=J)
    theta = float(rng.uniform(*theta_range))
    return Parameters(p=p, theta=theta, consensus_order=order_of(p))


def random_dataset(rng, J=None, I=None, M=None, R=None, theta=None,
                   missing_scores=0.0, missing_rankings=0.0) -> Dataset:
    """Panel drawn from a random truth, optionally with MCAR missingness."""
    J = int(rng.integers(3, 7)) if J is None else J
    I = int(rng.integers(3, 12)) if I is None else I
    M = int(rng.choice([5, 10])) if M is None else M
    R = int(rng.integers(2, J + 1)) if R is None else R
    p = rng.uniform(size=J)
    params = Parameters(p=p, theta=theta or float(rng.uniform(0.3, 4.0)),
                        consensus_order=order_of(p))
    ds = sample(params, I, M, R, rng)
    scores = np.array(ds.scores)
    rankings = list(ds.rankings)
    if missing_scores > 0:
        mask = rng.random(scores.shape) < missing_scores
        scores[mask] = np.nan
    if missing_rankings > 0:
        for i in range(I):
            if rng.random() < missing_rankings:
                rankings[i] = None
    if not np.isfinite(scores).any() and all(r is None for r in rankings):
        rankings[0] = ds.rankings[0]
    return Dataset(J=J, M=M, scores=scores, rankings=tuple(rankings))


def enumerate_outcomes(J, M, R):
    """Every (score vector, ranking) pair a single judge can produce."""
    for scores in itertools.product(range(M + 1), repeat=J):
        for ranking in itertools.permutations(range(J), R):
            yield np.array(scores, dtype=float), ranking


def binomial_cost(p, mean, count, M):
    a = count * np.where(count > 0, mean, 0.0)
    b = count * np.where(count > 0, M - mean, 0.0)
    return float(-np.sum(xlogy(a, p) + xlog1py(b, -p)))


def structural_oracle(mean, count, M, prefix, free):
    """Brute-force optimum of the order-constrained Binomial likelihood:
    enumerate every block structure (contiguous chain partition x subset of
    leaves pooled into the top block), keep feasible candidates, return the
    cheapest. Independent of the production solver's merge path."""
    q = np.where(count > 0, mean / M, 0.0)
    w = count * M
    k = len(prefix)
    best_cost, best_p = np.inf, None
    cuts_options = [()] if k == 0 else [c for r in range(k) for c in itertools.combinations(range(1, k), r)]
    for cuts in cuts_options:
        bounds = [0, *cuts, k]
        blocks = [list(prefix[bounds[i]:bounds[i + 1]]) for i in range(len(bounds) - 1)]
        for attach_size in range(len(free) + 1):
            for attached in itertools.combinations(free, attach_size):
                p = np.full(len(q), np.nan)
                ok = True
                prev = -np.inf
                for bi, block in enumerate(blocks):
                    members = list(block)
                    if bi == len(blocks) - 1:
                        members += list(attached)
                    wt = sum(w[j] for j in members)
                    if wt == 0:
                        ok = False
                        break
                    val = sum(w[j] * q[j] for j in members) / wt
                    if val < prev - 1e-12:
                        ok = False
                        break
                    for j in members:
                        p[j] = val
                    prev = val
                if not ok:
                    continue
                top = prev if blocks else 0.0
                for j in free:
                    if j not in attached:
                        if q[j] < top - 1e-12:
                            ok = False
                            break
                        p[j] = q[j]
                if not ok:
                    continue
                cost = binomial_cost(p, mean, count, M)
                if cost < best_cost - 1e-15:
                    best_cost, best_p = cost, p
    return best_cost, best_p


def sweep_fit_p(mean, count, M, prefix, free):
    """Order-constrained Binomial MLE by chain PAVA plus an exhaustive sweep
    over how many of the ascending star leaves pool into the top chain block;
    every sweep candidate is feasible and the optimum is among them. Zero-count
    objects take the nearest feasible value."""
    with np.errstate(invalid="ignore"):
        q = np.where(count > 0, mean / M, 0.0)
    weight = count * M
    chain = [j for j in prefix if count[j] > 0]
    leaves = sorted((j for j in free if count[j] > 0), key=lambda j: (q[j], j))
    p = np.full(count.size, 0.5)
    if not chain and not leaves:
        return p
    if not chain:
        for j in leaves:
            p[j] = q[j]
        top = min(q[j] for j in leaves)
    else:
        members = chain + leaves
        idx = np.array(members)
        best_cost, best = np.inf, None
        cv = [q[j] for j in chain]
        cw = [weight[j] for j in chain]
        leaf_v = [q[j] for j in leaves]
        leaf_w = [weight[j] for j in leaves]
        extra_v = extra_w = 0.0
        for t in range(len(leaves) + 1):
            vals, wts = list(cv), list(cw)
            if extra_w:
                vals[-1] = (cw[-1] * cv[-1] + extra_v) / (cw[-1] + extra_w)
                wts[-1] = cw[-1] + extra_w
            fitted = reference_pava(vals, wts)
            top_val = fitted[-1]
            cand = fitted + [top_val] * t + [max(v, top_val) for v in leaf_v[t:]]
            cost = binomial_cost(np.array(cand), mean[idx], count[idx], M)
            if cost < best_cost:
                best_cost, best = cost, cand
            if t < len(leaves):
                extra_v += leaf_w[t] * leaf_v[t]
                extra_w += leaf_w[t]
        for j, value in zip(members, best):
            p[j] = value
        top = best[len(chain) - 1]
    fitted_chain = {j: p[j] for j in chain}
    prev, pending = None, []
    for j in prefix:
        if j in fitted_chain:
            if prev is None:
                for z in pending:
                    p[z] = fitted_chain[j]
            pending = []
            prev = fitted_chain[j]
        elif prev is None:
            pending.append(j)
        else:
            p[j] = prev
    if prev is None and pending:  # chain entirely unobserved
        for z in pending:
            p[z] = min(top, 0.5)
    if len(prefix):
        for j in free:
            if count[j] == 0:
                p[j] = p[prefix[-1]]
    return p


# The p fit as it ran on numpy arrays, sorting the free objects at every
# call; the search's fit on the stats' cached score view must match it bit
# for bit.

def reference_pava(values, weights):
    vals = []
    wts = []
    spans = []
    for v, w in zip(values, weights):
        vals.append(v)
        wts.append(w)
        spans.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, w2, s2 = vals.pop(), wts.pop(), spans.pop()
            w1 = wts[-1]
            vals[-1] = (wts[-1] * vals[-1] + w2 * v2) / (w1 + w2)
            wts[-1] += w2
            spans[-1] += s2
    out = []
    for v, s in zip(vals, spans):
        out.extend([v] * s)
    return out


def reference_fit_p_core(stats, prefix, free) -> np.ndarray:
    mean_score, count, M = stats.mean_score, stats.score_count, stats.M
    with np.errstate(invalid="ignore"):
        q = np.where(count > 0, mean_score / M, 0.0)
    weight = count * M

    members = [j for j in prefix if count[j] > 0]
    n_chain = len(members)
    members += sorted((j for j in free if count[j] > 0), key=lambda j: (q[j], j))
    p = np.full(count.size, 0.5)
    if not members:
        return p
    fitted = reference_pava([q[j] for j in members], [weight[j] for j in members])
    p[members] = fitted

    # Zero-count objects take the nearest feasible value: a chain gap the
    # value below it (the first observed value when it leads), an unobserved
    # chain min(lowest leaf, 0.5), a free object the top of the chain.
    prev = fitted[0] if n_chain else min(fitted[0], 0.5)
    for j in prefix:
        if count[j] > 0:
            prev = p[j]
        else:
            p[j] = prev
    if prefix:
        p[[j for j in free if count[j] == 0]] = p[prefix[-1]]
    return p


# Kendall ranking-cost oracles at a search node, recomputed from scratch;
# the search keeps the same quantities incrementally.

def fixed_pair_cost(Q, prefix) -> float:
    """Mean Kendall cost of the pairs the prefix already determines: each
    prefix object above every later prefix object and every free object."""
    J = Q.shape[0]
    in_prefix = np.zeros(J, dtype=bool)
    cost = 0.0
    col_total = Q.sum(axis=0)
    for v in prefix:
        in_prefix[v] = True
        cost += col_total[v] - Q[in_prefix, v].sum()
    return float(cost)


def min_pair_cost(Q, free) -> float:
    """Crude free-pair cost: sum of min(Q_uv, Q_vu) over free pairs."""
    free = np.asarray(list(free), dtype=int)
    if free.size < 2:
        return 0.0
    sub = Q[np.ix_(free, free)]
    lower = np.minimum(sub, sub.T)
    return float(lower[np.triu_indices(free.size, k=1)].sum())


def crude_cost(stats, prefix) -> float:
    """Admissible mean ranking cost L at the node of a prefix: fixed pairs
    plus pairwise minima over free pairs."""
    free = tuple(o for o in range(stats.J) if o not in prefix)
    return fixed_pair_cost(stats.Q, prefix) + min_pair_cost(stats.Q, free)


def lp_bound(stats, prefix) -> float:
    """Tight admissible mean ranking cost L_LP at the node of a prefix:
    fixed-pair cost plus the Kemeny LP optimum over free pairs."""
    free = tuple(o for o in range(stats.J) if o not in prefix)
    return fixed_pair_cost(stats.Q, prefix) + lp_free_cost(stats.Q, free, min_pair_cost(stats.Q, free))


# The search's child loop as it ran one child at a time, with scipy's Binomial
# terms; the node kernel must give every bound bit for bit. ctx is a
# search._SearchContext.

def reference_binomial_cost(p, a, b) -> float:
    return float(-np.sum(xlogy(a, p) + xlog1py(b, -p)))


def reference_child_costs(ctx, prefix, fixed, free_min, child, free):
    fixed_c = fixed + float(ctx.col_total[child]) - float(ctx.Q[list(prefix), child].sum())
    drop = float(ctx.mmin[list(free), child].sum())  # mmin[child, child] = 0
    return fixed_c, free_min - drop


def reference_bound(ctx, prefix, fixed, free_min, free, heuristic) -> float:
    # Below three free objects the LP has no triangle rows and equals the pairwise
    # minimum sum.
    if heuristic == "lp" and len(free) >= 3:
        if free not in ctx._lp_cache:
            ctx._lp_cache[free] = lp_free_cost(ctx.Q, free, free_min)
        free_min = ctx._lp_cache[free]
    # L sums non-negative costs, but its incremental update can round a zero below it.
    value = _theta_cost(max(fixed + free_min, 0.0), ctx.stats.length_profile, ctx.theta_max)
    p = _fit_p_core(ctx.stats, prefix)
    return value + reference_binomial_cost(p, ctx.stats.a, ctx.stats.b)


def reference_children(ctx, prefix, fixed, free_min, heuristic):
    """Yield (bound, child_prefix, fixed, free_min, free) for every child
    of a node, in object order."""
    free = tuple(o for o in range(ctx.J) if o not in prefix)
    for child in free:
        fixed_c, free_min_c = reference_child_costs(ctx, prefix, fixed, free_min, child, free)
        free_c = tuple(o for o in free if o != child)
        child_prefix = prefix + (child,)
        yield (reference_bound(ctx, child_prefix, fixed_c, free_min_c, free_c, heuristic),
               child_prefix, fixed_c, free_min_c, free_c)


def astar_bounds(monkeypatch, stats, **options):
    """Run astar and return (the bound of every node it generated, in order,
    its result); a budget cut before any terminal adds the greedy fallback's
    bounds. They are read by wrapping _SearchContext.children as installed
    at the call, so a test may patch in reference_children first."""
    bounds = []
    children = search._SearchContext.children

    def recorded(ctx, *args):
        for child in children(ctx, *args):
            bounds.append(child[0])
            yield child

    with monkeypatch.context() as patch:
        patch.setattr(search._SearchContext, "children", recorded)
        result = search.astar(stats, **options)
    return bounds, result


def reference_node_binomial_costs(stats, prefix, extensions):
    """The Binomial part of each node's bound as the search priced it before
    a node's children shared one PAVA stack: a full p fit per node, one matrix."""
    return _binomial_costs(stats, [_fit_p_core(stats, tuple(prefix) + tuple(ext)) for ext in extensions])


def reference_best_fit(stats, orders, *, theta_max, best=None):
    """The order scan without its screen: every order gets its conditional
    fit, and the first strictly smaller f wins. The fits go through
    search.fit_given_order, where tests count them."""
    for order in orders:
        cond = search.fit_given_order(stats, order, theta_max=theta_max)
        if best is None or cond.f_value < best.f_value:
            best = cond
    return best


def length_profile(lengths, J):
    """The judges' ranking lengths as the package's scale solver takes them:
    entry R-1 counts the judges ranking exactly R of J objects."""
    return tuple(np.bincount(np.asarray(lengths, dtype=int), minlength=J + 1)[1:].tolist())


# Scale solver before its slope and curvature passes were fused and its
# floor/cap tests cached; kept verbatim so the fitted bits can be compared.
# It reads the judges' lengths one at a time, as the solver once did.

def reference_level_weights(lengths, J):
    """Mallows level weights from the judges' lengths one at a time:
    w[j-1] = judges ranking at least j objects, the level sizes, sum of R."""
    w = np.zeros(J)
    for R in lengths:
        w[:R] += 1.0
    return w, np.arange(J, 0, -1, dtype=float), float(sum(lengths))


def reference_expected_distance_total(theta, w, k, sum_r) -> float:
    with np.errstate(over="ignore"):
        return float(sum_r / np.expm1(theta) - np.sum(w * k / np.expm1(theta * k)))


def reference_distance_variance_total(theta, w, k, sum_r) -> float:
    with np.errstate(over="ignore"):
        head = sum_r / (np.expm1(theta) * (-np.expm1(-theta)))
        tail = np.sum(w * k * k / (np.expm1(theta * k) * (-np.expm1(-theta * k))))
        return float(head - tail)


def reference_fit_theta(mean_distance, ranking_lengths, J, theta_max=None):
    lengths = tuple(int(r) for r in ranking_lengths)
    if not lengths:
        return None, "undefined"
    if mean_distance < 0:
        raise ValueError("mean distance must be non-negative")
    if theta_max is None:
        theta_max = default_theta_max(J)
    w, k, sum_r = reference_level_weights(lengths, J)
    total = mean_distance * len(lengths)

    def slope(theta):
        return total - reference_expected_distance_total(theta, w, k, sum_r)

    if slope(THETA_FLOOR) >= 0:
        return THETA_FLOOR, "floor"
    if slope(theta_max) <= 0:
        return theta_max, "cap"
    lo, hi = THETA_FLOOR, theta_max
    theta = 0.5 * (lo + hi)
    for _ in range(200):
        h = slope(theta)
        if h > 0:
            hi = theta
        elif h < 0:
            lo = theta
        else:
            break
        curv = reference_distance_variance_total(theta, w, k, sum_r)
        step = h / curv if curv > 0 else 0.0
        nxt = theta - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - theta) < 1e-12 or hi - lo < 1e-12:
            theta = nxt
            break
        theta = nxt
    return float(theta), "interior"
