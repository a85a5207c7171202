"""Shared helpers: instance generators and independent oracles."""
from __future__ import annotations

import heapq
import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy.special import xlog1py, xlogy

from mallows_binomial import Dataset, Parameters, kendall, order_of, sample, search
from mallows_binomial.cli import IngestError, _judge_rows
from mallows_binomial.fitting import (
    THETA_FLOOR,
    _binomial_cost,
    _binomial_term,
    _chain_costs,
    _fit_p_core,
    _NodePricer,
    _pava,
    _scale_fit,
    default_theta_max,
)
from mallows_binomial.kemeny_lp import PairLP, SimplexError, lp_free_cost


# ingest as it converted and checked one score cell at a time; the one-pass
# ingest must give the same Dataset bit for bit, and the same message on
# every fault.

def reference_to_integer(scale, raw: float) -> int:
    if not scale.min - 1e-9 <= raw <= scale.max + 1e-9:  # also rejects nan
        raise IngestError(f"score {raw} outside [{scale.min}, {scale.max}]")
    k = (raw - scale.min) / scale.step
    if abs(k - round(k)) > 1e-6:
        raise IngestError(f"score {raw} is not on the step-{scale.step} lattice")
    k = int(round(k))
    return scale.M - k if scale.higher_is_better else k


def reference_ingest(scores_path, rankings_path, scale):
    if scores_path is None and rankings_path is None:
        raise IngestError("need at least one of --scores / --rankings")

    labels = []
    score_rows = {}
    if scores_path is not None:
        labels, judges = _judge_rows(scores_path, "judge,<labels...>")
        if "" in labels:
            raise IngestError(f"{scores_path} column {labels.index('') + 2}: blank object label in header")
        if len(set(labels)) != len(labels):
            raise IngestError(f"{scores_path}: duplicate object labels in header")
        for judge, (r, cells) in judges.items():
            if len(cells) != len(labels):
                raise IngestError(f"{scores_path} row {r}: expected {len(labels)} score cells")
            values = []
            for c, cell in enumerate(cells, start=2):
                if not cell:
                    values.append(np.nan)
                    continue
                try:
                    raw = float(cell)
                except ValueError as err:
                    raise IngestError(f"{scores_path} row {r} column {c}: not a number: {cell!r}") from err
                try:
                    values.append(float(reference_to_integer(scale, raw)))
                except IngestError as err:
                    raise IngestError(f"{err} ({scores_path} row {r} column {c})") from None
            score_rows[judge] = values

    ranking_rows = {}
    if rankings_path is not None:
        _, judges = _judge_rows(rankings_path, "judge,rank1,...")
        if scores_path is None:
            labels = sorted({cell for _, cells in judges.values() for cell in cells if cell})
        label_index = {lab: i for i, lab in enumerate(labels)}
        for judge, (r, cells) in judges.items():
            ranking = []
            ended = False
            for c, cell in enumerate(cells, start=2):
                if not cell:
                    ended = True
                    continue
                if ended:
                    raise IngestError(f"{rankings_path} row {r}: ranking has a gap before column {c}")
                if cell not in label_index:
                    raise IngestError(f"{rankings_path} row {r} column {c}: unknown object label {cell!r}")
                ranking.append(label_index[cell])
            if len(set(ranking)) != len(ranking):
                raise IngestError(f"{rankings_path} row {r}: duplicate object in ranking")
            ranking_rows[judge] = tuple(ranking) if ranking else None

    if not labels:
        raise IngestError("no objects found in the input files")
    J = len(labels)
    judge_ids = list(dict.fromkeys([*score_rows, *ranking_rows]))
    scores = np.full((len(judge_ids), J), np.nan)
    rankings = []
    for i, judge in enumerate(judge_ids):
        if judge in score_rows:
            scores[i] = score_rows[judge]
        rankings.append(ranking_rows.get(judge))
    try:
        dataset = Dataset(J=J, M=scale.M, scores=scores, rankings=tuple(rankings))
    except ValueError as err:
        raise IngestError(str(err)) from err
    return dataset, labels, judge_ids


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


def reference_stats(dataset, judges=None) -> dict:
    """compute_stats of the panel made of judge rows judges (all when None),
    one numpy array per field, from the resampled rows themselves: score
    means and counts, W from pairwise_wins_oracle, the length profile, and
    the score view (q, its weights, the observed flags, by_q, unobserved, a
    and b) as numpy computes it element by element."""
    rows = np.arange(dataset.I) if judges is None else np.asarray(judges)
    panel = Dataset(J=dataset.J, M=dataset.M, scores=dataset.scores[rows],
                    rankings=tuple(dataset.rankings[i] for i in rows))
    J, M = panel.J, panel.M
    observed = ~np.isnan(panel.scores)
    count = observed.sum(axis=0).astype(float)
    sums = np.where(observed, panel.scores, 0.0).sum(axis=0)
    seen = count > 0
    mean = np.where(seen, sums / np.where(seen, count, 1.0), np.nan)
    lengths = [len(r) for r in panel.rankings if r is not None]
    wins = pairwise_wins_oracle(panel)
    q = np.where(seen, mean / M, 0.0)
    by_q = np.flatnonzero(seen)[np.argsort(q[seen], kind="stable")]
    return {
        "mean_score": mean, "score_count": count, "W": wins,
        "length_profile": tuple(lengths.count(R) for R in range(1, J + 1)), "n_rankers": len(lengths),
        "q": q, "q_weight": count * M, "observed": tuple(seen.tolist()), "by_q": tuple(by_q.tolist()),
        "unobserved": tuple(np.flatnonzero(~seen).tolist()),
        "a": count * np.where(seen, mean, 0.0), "b": count * np.where(seen, M - mean, 0.0),
    }


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

def fixed_pair_cost(W, prefix) -> float:
    """Kendall cost, in judges, of the pairs the prefix already determines:
    each prefix object above every later prefix object and every free object."""
    J = W.shape[0]
    in_prefix = np.zeros(J, dtype=bool)
    cost = 0.0
    col_total = W.sum(axis=0)
    for v in prefix:
        in_prefix[v] = True
        cost += col_total[v] - W[in_prefix, v].sum()
    return float(cost)


def min_pair_cost(W, free) -> float:
    """Crude free-pair cost: sum of min(W_uv, W_vu) over free pairs."""
    free = np.asarray(list(free), dtype=int)
    if free.size < 2:
        return 0.0
    sub = W[np.ix_(free, free)]
    lower = np.minimum(sub, sub.T)
    return float(lower[np.triu_indices(free.size, k=1)].sum())


def crude_cost(stats, prefix) -> float:
    """Admissible ranking cost L, in judges, at the node of a prefix: fixed
    pairs plus pairwise minima over free pairs."""
    free = tuple(o for o in range(stats.J) if o not in prefix)
    return fixed_pair_cost(stats.W, prefix) + min_pair_cost(stats.W, free)


def lp_bound(stats, prefix) -> float:
    """Tight admissible ranking cost L_LP, in judges, at the node of a
    prefix: fixed-pair cost plus the Kemeny LP optimum over free pairs."""
    free = tuple(o for o in range(stats.J) if o not in prefix)
    return fixed_pair_cost(stats.W, prefix) + lp_free_cost(stats.W, free, min_pair_cost(stats.W, free))


# The Kemeny LP as it was built and solved one row, column and pivot row at a
# time; kept verbatim so kemeny_lp's programs, optima and y can be compared
# bit for bit.

def reference_build_pair_lp(Q: np.ndarray, free) -> PairLP:
    """Assemble the free-pair Kemeny LP for the given free objects."""
    free = list(free)
    pairs = list(itertools.combinations(free, 2))
    index = {e: i for i, e in enumerate(pairs)}
    n = len(pairs)
    c = np.zeros(n)
    constant = 0.0
    for i, (u, v) in enumerate(pairs):
        # pair cost: Q_uv + (Q_vu - Q_uv) * y_uv
        constant += Q[u, v]
        c[i] = Q[v, u] - Q[u, v]
    rows = []
    rhs = []
    for i in range(n):
        row = np.zeros(n)
        row[i] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for a, b, d in itertools.combinations(free, 3):
        row = np.zeros(n)
        row[index[(a, b)]] = 1.0
        row[index[(b, d)]] = 1.0
        row[index[(a, d)]] = -1.0
        rows.append(row)       # y_ab + y_bd - y_ad <= 1
        rhs.append(1.0)
        rows.append(-row)      # y_ab + y_bd - y_ad >= 0
        rhs.append(0.0)
    A = np.array(rows) if rows else np.zeros((0, n))
    return PairLP(pairs=tuple(pairs), c=c, A_ub=A, b_ub=np.array(rhs), constant=constant)


def reference_solve_dense_lp(program: PairLP, max_pivots: int | None = None) -> tuple[float, np.ndarray]:
    """Minimize the pair LP by dense primal simplex with Bland's rule.

    The origin is feasible by construction (all right-hand sides are
    non-negative), so no phase-1 is needed. Returns the optimum including the
    program constant and the y vector. Raises SimplexError past the pivot
    budget.
    """
    n = program.c.size
    if n == 0:
        return float(program.constant), np.zeros(0)
    m = program.b_ub.size
    if max_pivots is None:
        max_pivots = 200 + 40 * (n + m)
    # Tableau columns: n structural, m slacks, rhs. Basis starts at slacks.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = program.A_ub
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = program.b_ub
    T[m, :n] = program.c
    basis = list(range(n, n + m))
    tol = 1e-11
    for pivot_count in range(max_pivots + 1):
        reduced = T[m, :n + m]
        entering = -1
        for j in range(n + m):  # Bland: smallest index with negative reduced cost
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            y = np.zeros(n)
            for i, var in enumerate(basis):
                if var < n:
                    y[var] = T[i, -1]
            return float(program.constant - T[m, -1]), y
        col = T[:m, entering]
        ratios = np.full(m, np.inf)
        positive = col > tol
        ratios[positive] = T[:m, -1][positive] / col[positive]
        best = np.inf
        leave = -1
        for i in range(m):  # min ratio, ties by smallest basis variable index
            r = ratios[i]
            if r < best or (r == best and leave >= 0 and basis[i] < basis[leave]):
                best = r
                leave = i
        if leave < 0:
            raise SimplexError("unbounded pair LP (cannot happen for valid programs)")
        piv = T[leave, entering]
        T[leave, :] /= piv
        for i in range(m + 1):
            if i != leave and T[i, entering] != 0.0:
                T[i, :] -= T[i, entering] * T[leave, :]
        basis[leave] = entering
    raise SimplexError(f"pivot budget exceeded after {max_pivots} pivots")


# The search's child loop as it ran one child at a time, with scipy's Binomial
# terms and numpy's sums of the win counts; the node kernel must give every
# bound bit for bit. ctx is a search._SearchContext.

def reference_binomial_cost(p, a, b) -> float:
    """The Binomial cost of p, its terms summed correctly rounded."""
    return -math.fsum((xlogy(a, p) + xlog1py(b, -p)).tolist())


def reference_child_costs(ctx, prefix, fixed, free_min, child, free):
    W = ctx.stats.W
    fixed_c = fixed + float(W[:, child].sum()) - float(W[list(prefix), child].sum())
    drop = float(np.minimum(W, W.T)[list(free), child].sum())  # min(W[c, c], W[c, c]) = 0
    return fixed_c, free_min - drop


def reference_theta_part(ctx, fixed, free_min, free, heuristic) -> float:
    # Below three free objects the LP has no triangle rows and equals the pairwise
    # minimum sum.
    if heuristic == "lp" and len(free) >= 3:
        if free not in ctx._lp_cache:
            ctx._lp_cache[free] = lp_free_cost(ctx.stats.W, free, free_min)
        free_min = ctx._lp_cache[free]
    # the scale part at the Kendall total: the costs count judges
    return _scale_fit(fixed + free_min, ctx.stats.length_profile, ctx.theta_max)[2]


def reference_bound(ctx, prefix, fixed, free_min, free, heuristic) -> float:
    p = _fit_p_core(ctx.stats, prefix)
    return (reference_theta_part(ctx, fixed, free_min, free, heuristic)
            + reference_binomial_cost(p, ctx.stats.a, ctx.stats.b))


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


def complete(prefix, J):
    """The full order of a terminal prefix: the one object left goes last."""
    return tuple(prefix) + tuple(o for o in range(J) if o not in prefix)


def tie_rank(J, prefix) -> int:
    """What the counter of a child of the node of prefix adds to its number,
    so that of two entries with equal bounds the deeper pops first."""
    return (J - len(prefix)) << 40


def reference_greedy_order(ctx, popped=None):
    """The greedy descent as it ran before its children were priced lazily:
    every child gets its exact bound, and min keeps the first smallest.
    Returns (order, candidate evaluations). Each child kept is appended to
    popped as (prefix, bound bits, counter), the counter numbering every
    generated child plus its tie_rank, as the search's heap records the
    descent."""
    prefix, fixed, free_min, evals = (), 0.0, ctx.root_free_min, 0
    while len(prefix) < ctx.J - 1:
        children = list(reference_children(ctx, prefix, fixed, free_min, "crude"))
        index = min(range(len(children)), key=lambda i: children[i][0])
        rank = tie_rank(ctx.J, prefix)
        bound, prefix, fixed, free_min, _ = children[index]
        if popped is not None:
            popped.append((prefix, bound.hex(), evals + index + rank))
        evals += len(children)
    return complete(prefix, ctx.J), evals


def reference_astar(stats, *, theta_max=None, heuristic="crude", node_budget=search.DEFAULT_NODE_BUDGET):
    """The A* search as it ran before its children were priced lazily: every
    child is pushed with its exact bound from reference_children and a
    counter in generation order plus its tie_rank. Returns a dict of the popped entries as
    (prefix, bound bits, counter) in order, the bound of every generated
    node in order, the order found, the node and candidate counts and
    budget_exhausted. A budget cut returns the generated terminal of least
    (bound, counter), or the greedy order when there is none, whose kept
    children are popped entries too. J > 1."""
    ctx = search._SearchContext(stats, theta_max=theta_max)
    J = stats.J
    heap, counter, popped, generated, terminals = [], itertools.count(), [], [], []
    cands = 0

    def expand(prefix, fixed, free_min):
        nonlocal cands
        for bound, child, fixed_c, free_min_c, _ in reference_children(ctx, prefix, fixed, free_min, heuristic):
            cands += 1
            entry = (bound, next(counter) + tie_rank(J, prefix), child, fixed_c, free_min_c)
            generated.append(bound)
            heapq.heappush(heap, entry)
            if len(child) == J - 1:
                terminals.append(entry)

    expand((), 0.0, ctx.root_free_min)
    nodes, order = 1, None
    while heap:
        bound, count, prefix, fixed, free_min = heapq.heappop(heap)
        popped.append((prefix, bound.hex(), count))
        if len(prefix) == J - 1:
            order = complete(prefix, J)
            break
        if nodes >= node_budget:
            break
        expand(prefix, fixed, free_min)
        nodes += 1
    exhausted = order is None
    if exhausted:
        order = complete(min(terminals)[2], J) if terminals else reference_greedy_order(ctx, popped)[0]
    return {"popped": popped, "generated": generated, "order": order, "nodes": nodes, "cands": cands,
            "budget_exhausted": exhausted, "terminals": len(terminals)}


class HeapTraffic:
    """Stands in for the heapq module of the search's best-first loop (A*
    and its greedy fallback) and records its heap traffic: every pushed
    entry as (key bits, counter, prefix), and every popped entry whose key
    is exact as (prefix, key bits, counter). An entry is (key, counter,
    prefix, ..., cost, pricer), exact when its Binomial cost is known."""

    def __init__(self):
        self.pushed, self.popped = [], []

    def heappush(self, heap, entry):
        self.pushed.append((entry[0].hex(), entry[1], entry[2]))
        heapq.heappush(heap, entry)

    def heappop(self, heap):
        return self._popped(heapq.heappop(heap))

    def heappushpop(self, heap, entry):
        self.pushed.append((entry[0].hex(), entry[1], entry[2]))
        return self._popped(heapq.heappushpop(heap, entry))

    def _popped(self, entry):
        if entry[-2] is not None:
            self.popped.append((entry[2], entry[0].hex(), entry[1]))
        return entry


def astar_traffic(monkeypatch, stats, **options):
    """Run astar with its heap traffic recorded; returns (HeapTraffic, result)."""
    traffic = HeapTraffic()
    with monkeypatch.context() as patch:
        patch.setattr(search, "heapq", traffic)
        result = search.astar(stats, **options)
    return traffic, result


def node_pricer(stats, prefix):
    """The search's _NodePricer of the node of a prefix, derived from the
    root's object by object as the search derives it."""
    pricer = _NodePricer(stats)
    for j in prefix:
        pricer = pricer.child(j)
    return pricer


def node_bound(ctx, prefix, fixed, free_min, free):
    """The exact bound the search gives the node of a prefix with pair costs
    (fixed, free_min) and free objects free, under ctx's heuristic."""
    return ctx.theta_part(fixed, free_min, free) + node_pricer(ctx.stats, prefix).cost(())


class ChildEntry(NamedTuple):
    """A heap entry of _best_first as _SearchContext.children emits it."""
    key: float
    counter: int
    prefix: tuple
    fixed: float
    free_min: float
    sums: tuple  # the node's (cross, rows, free), which its children carry down
    theta_part: float
    cost: float | None
    pricer: object


def node_sums(ctx, prefix):
    """A node's (cross, rows, free) from scratch: lists over every object,
    cross[c] the wins over c of the prefix and rows[c] the sum of min(W[c, v],
    W[v, c]) over the free objects v, and the free objects in index order."""
    W = ctx.stats.W
    free = [o for o in range(ctx.J) if o not in prefix]
    return W[list(prefix)].sum(axis=0).tolist(), np.minimum(W, W.T)[:, free].sum(axis=1).tolist(), free


def search_children(ctx, prefix, fixed, free_min, floor=0.0, pricer=None):
    """ctx.children of a node as ChildEntry tuples, counters from 0 plus the
    tie rank, the parent's sums computed from scratch."""
    carry = node_sums(ctx, prefix[:-1]) if prefix else None
    return [ChildEntry(*entry) for entry in
            ctx.children(prefix, fixed, free_min, carry, floor, pricer, itertools.count())]


def exact_children(ctx, prefix, fixed, free_min):
    """Yield (bound, child_prefix, fixed, free_min, free) for every child of
    a node, in object order, each priced exactly from the search's pieces."""
    pricer = node_pricer(ctx.stats, prefix)
    for entry in search_children(ctx, prefix, fixed, free_min, pricer=pricer):
        yield (entry.theta_part + pricer.cost(entry.prefix[-1:]), entry.prefix, entry.fixed, entry.free_min,
               tuple(o for o in range(ctx.J) if o not in entry.prefix))


def reference_node_binomial_costs(stats, prefix, extensions):
    """The Binomial part of each node's bound as the search priced it before
    a node's children shared one PAVA stack: a full p fit per node, one matrix."""
    return [_binomial_cost(stats, _fit_p_core(stats, tuple(prefix) + tuple(ext))) for ext in extensions]


def reference_chain_costs(stats, chain, sign=1.0):
    """_chain_costs as it ran before its pass skipped _pava for a value that
    pools with nothing: every push goes through _pava, and the block it tops
    is costed by summing the terms of the last len(block) objects pushed."""
    stack, members, block_costs, costs = [], [], [], [0.0]
    for j in chain:
        if stats.observed[j]:
            members.append(j)
            depth = _pava(stack, sign * stats.q[j], stats.q_weight[j], j)
            v, _, block = stack[depth]
            del block_costs[depth:]
            block_costs.append(sum([_binomial_term(stats, member, sign * v) for member in members[-len(block):]]))
        costs.append(-sum(block_costs))
    return costs


def reference_pair_cost(stats, first, second) -> float:
    """The Binomial cost of the isotonic fit of the chain (first, second),
    from the general chain pass."""
    return float(_chain_costs(stats, (first, second))[2])


def reference_greedy_local(stats, *, theta_max=None):
    """greedy_local as it ran before its floors and screens: from the eager
    greedy order's fit_given_order, each round fits every adjacent-swap
    neighbour and moves to the first of least f if it is strictly smaller.
    Returns (fit, candidate evaluations, rounds)."""
    order, evals = reference_greedy_order(search._SearchContext(stats, theta_max=theta_max))
    incumbent, rounds = search.fit_given_order(stats, order, theta_max=theta_max), 0
    while rounds < search.MAX_LOCAL_ROUNDS:
        rounds += 1
        neighbours = kendall.adjacent_neighbors(incumbent.params.consensus_order)
        evals += len(neighbours)
        best = reference_best_fit(stats, neighbours, None, theta_max=theta_max, best=incumbent)
        if best is incumbent:
            break
        incumbent = best
    return incumbent, evals, rounds


def reference_best_fit(stats, orders, totals, *, theta_max, best=None, best_total=None, floors=None):
    """The order scan without its screen: every order gets its conditional
    fit, and the first strictly smaller f wins. It takes search._best_fit's
    arguments and ignores the totals and floors, so each fit computes its
    own. The fits go through search.fit_given_order, where tests count them."""
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
