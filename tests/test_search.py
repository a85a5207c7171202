import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    ChildEntry,
    HeapTraffic,
    astar_traffic,
    crude_cost,
    enumerate_outcomes,
    exact_children,
    node_bound,
    node_pricer,
    random_dataset,
    reference_astar,
    reference_best_fit,
    reference_chain_costs,
    reference_child_costs,
    reference_children,
    reference_greedy_order,
    reference_greedy_local,
    reference_node_binomial_costs,
    reference_pair_cost,
    reference_theta_part,
    fixed_pair_cost,
    min_pair_cost,
    node_sums,
    search_children,
)
from mallows_binomial import (
    Dataset,
    Parameters,
    astar,
    brute_force,
    compute_stats,
    fit_given_order,
    fv,
    greedy,
    greedy_local,
    objective,
)
from mallows_binomial import fitting, kendall, search
from mallows_binomial.fitting import THETA_FLOOR, _kendall_total
from mallows_binomial.inference import bootstrap, simulate_cell
from mallows_binomial.kemeny_lp import lp_free_cost
from mallows_binomial.search import BruteForceCapExceeded, _SearchContext, _tie_break_orders


def unanimous_dataset():
    order = (2, 0, 1)
    scores = np.array([[2.0, 4.0, 1.0]] * 4)
    return Dataset(J=3, M=5, scores=scores, rankings=(order,) * 4), order


def test_astar_unanimous():
    ds, order = unanimous_dataset()
    result = astar(compute_stats(ds))
    assert result.params.consensus_order == order
    assert np.allclose(result.params.p, [0.4, 0.8, 0.2])
    assert result.theta_flag == "cap" and result.params.theta_at_cap
    assert result.optimal


def test_astar_single_object():
    ds = Dataset(J=1, M=3, scores=np.array([[2.0]]), rankings=(None,))
    result = astar(compute_stats(ds))
    assert result.params.consensus_order == (0,)
    assert result.params.p[0] == pytest.approx(2 / 3)


def test_fit_options_are_keyword_only():
    # the score scale comes from the stats; a positional M must not become theta_max
    ds, order = unanimous_dataset()
    stats = compute_stats(ds)
    for call in (lambda: astar(stats, 10), lambda: brute_force(stats, 10), lambda: greedy(stats, 10),
                 lambda: greedy_local(stats, 10), lambda: fv(stats, ds, 10),
                 lambda: fit_given_order(stats, order, 10)):
        with pytest.raises(TypeError):
            call()


def test_astar_matches_brute_force_random():
    rng = np.random.default_rng(100)
    for _ in range(25):
        ds = random_dataset(rng, missing_scores=0.1, missing_rankings=0.2)
        stats = compute_stats(ds)
        ref = brute_force(stats)
        for heuristic in ("crude", "lp"):
            result = astar(stats, heuristic=heuristic)
            assert result.f_value == pytest.approx(ref.f_value, abs=1e-8)
            assert result.f_value == pytest.approx(objective(stats, result.params), abs=1e-10)


def test_astar_all_48_single_judge_outcomes():
    for scores, ranking in enumerate_outcomes(J=3, M=1, R=3):
        ds = Dataset(J=3, M=1, scores=scores.reshape(1, -1), rankings=(ranking,))
        stats = compute_stats(ds)
        ref = brute_force(stats, cap=3)
        for heuristic in ("crude", "lp"):
            result = astar(stats, heuristic=heuristic)
            assert result.f_value == pytest.approx(ref.f_value, abs=1e-10)


def test_astar_deterministic():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, J=5)
    stats = compute_stats(ds)
    a = astar(stats)
    b = astar(stats)
    assert a.params.consensus_order == b.params.consensus_order
    assert a.f_value == b.f_value
    assert a.nodes_expanded == b.nodes_expanded
    assert a.candidate_evaluations == b.candidate_evaluations


def test_astar_budget_exhaustion_flags():
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, J=6, theta=0.4)
    stats = compute_stats(ds)
    with pytest.warns(RuntimeWarning, match="before any terminal"):
        limited = astar(stats, node_budget=2)
    assert limited.budget_exhausted and not limited.optimal
    ref = brute_force(stats)
    assert limited.f_value >= ref.f_value - 1e-10


def test_heuristic_admissibility_every_node():
    rng = np.random.default_rng(15)
    for _ in range(3):
        ds = random_dataset(rng, J=4, missing_rankings=0.2)
        stats = compute_stats(ds)
        crude_ctx, lp_ctx = (_SearchContext(stats, theta_max=None, heuristic=h) for h in ("crude", "lp"))
        J = ds.J
        for k in range(1, J):
            for prefix in itertools.permutations(range(J), k):
                free = tuple(o for o in range(J) if o not in prefix)
                fixed = crude_cost(stats, prefix) - sum(
                    min(stats.W[u, v], stats.W[v, u])
                    for u, v in itertools.combinations(free, 2))
                free_min = crude_cost(stats, prefix) - fixed
                crude_b = node_bound(crude_ctx, prefix, fixed, free_min, free)
                lp_b = node_bound(lp_ctx, prefix, fixed, free_min, free)
                exact = min(
                    fit_given_order(stats, prefix + tail).f_value
                    for tail in itertools.permutations(free))
                assert crude_b <= lp_b + 1e-9
                assert lp_b <= exact + 1e-9


def test_child_bounds_never_decrease():
    rng = np.random.default_rng(23)
    ds = random_dataset(rng, J=5, missing_scores=0.1)
    stats = compute_stats(ds)
    for heuristic in ("crude", "lp"):
        ctx = _SearchContext(stats, theta_max=None, heuristic=heuristic)
        stack = [((), 0.0, ctx.root_free_min, -np.inf)]
        while stack:
            prefix, fixed, free_min, parent_bound = stack.pop()
            if len(prefix) > 2:  # keep the walk small
                continue
            for bound, child_prefix, fixed_c, free_min_c, _ in exact_children(ctx, prefix, fixed, free_min):
                assert bound >= parent_bound - 1e-9
                stack.append((child_prefix, fixed_c, free_min_c, bound))


def node_bits(children):
    return [np.array([bound, fixed, free_min]).tobytes() + repr((prefix, free)).encode()
            for bound, prefix, fixed, free_min, free in children]


def test_lazy_search_matches_the_eager_reference_bitwise(monkeypatch):
    # The lazy A* pops the nodes the eager one pops, in the same order, with
    # the same exact bounds and counters; a budget cut falls back on the same
    # terminal, or on the same greedy order, whose descent pops the children
    # the eager descent keeps. greedy finds that order too.
    rng = np.random.default_rng(61)
    panels = []
    for case in range(24):
        J = int(rng.integers(3, 10))
        R = J if case % 2 else int(rng.integers(2, J))
        _, data = simulate_cell(int(rng.integers(3, 16)), int(rng.choice([2, 5, 10])), J, R,
                                float(rng.uniform(0.2, 2.5)), rng)
        panels.append(compute_stats(data))
    for J in (10, 11, 12):
        # crude only: deep prefixes, whose children carry sums down long paths
        _, data = simulate_cell(int(rng.integers(3, 8)), 5, J, J, 1.5, rng)
        panels.append(compute_stats(data))
    seen = set()
    for case, stats in enumerate(panels):
        for heuristic, theta_max in (("crude", None), ("lp", None), ("crude", 0.5)):
            if heuristic == "lp" and (case % 2 or stats.J >= 10):
                continue  # the LP's cost, not the search, would dominate the test
            options = {"heuristic": heuristic, "theta_max": theta_max}
            full = reference_astar(stats, **options)
            # a cut one node short of the optimum, with terminals open when J - 1 fit in it
            for node_budget in {search.DEFAULT_NODE_BUDGET, 1, max(full["nodes"] - 1, 1)}:
                reference = full if node_budget == search.DEFAULT_NODE_BUDGET else reference_astar(
                    stats, node_budget=node_budget, **options)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    traffic, result = astar_traffic(monkeypatch, stats, node_budget=node_budget, **options)
                fell_to_greedy = reference["budget_exhausted"] and not reference["terminals"]
                assert [str(w.message) for w in caught] == (
                    ["node budget exhausted before any terminal; returning greedy order"] if fell_to_greedy else [])
                assert traffic.popped == reference["popped"], (case, options, node_budget)
                assert result.params.consensus_order == reference["order"]
                expected = fit_given_order(stats, reference["order"], theta_max=theta_max)
                assert result.f_value.hex() == expected.f_value.hex()
                assert (result.nodes_expanded, result.candidate_evaluations, result.budget_exhausted) == (
                    reference["nodes"], reference["cands"], reference["budget_exhausted"])
                if reference["budget_exhausted"] and not fell_to_greedy:
                    # terminals still lazy at the cut are priced there
                    lazy = {count for _, count, prefix in traffic.pushed if len(prefix) == stats.J - 1}
                    priced = {count for prefix, _, count in traffic.popped if len(prefix) == stats.J - 1}
                    seen.add("cut, unpriced terminal" if lazy - priced else "cut, terminals priced")
                seen.add("greedy fallback" if fell_to_greedy else "optimal" if result.optimal else "cut")
        fit, _, evals = search._greedy_descent(stats, None)
        assert (fit.params.consensus_order, evals) == reference_greedy_order(_SearchContext(stats, theta_max=None))
        reference_order, evals = reference_greedy_order(_SearchContext(stats, theta_max=0.5))
        fit = greedy(stats, theta_max=0.5)
        assert (fit.params.consensus_order, fit.candidate_evaluations) == (reference_order, evals)
        assert fit.f_value.hex() == fit_given_order(stats, reference_order, theta_max=0.5).f_value.hex()
    assert {"optimal", "cut", "greedy fallback", "cut, unpriced terminal"} <= seen, seen


def terminal_fit_panels():
    """Seeded panels of every shape the terminal's fit must cover: full and
    top-R rankings with missing ones, wholly unobserved objects, score-only,
    rankings-only, unanimous rankings (theta at the cap) and two opposite
    rankings (theta at the floor)."""
    rng = np.random.default_rng(81)
    kinds = ("full", "top-R", "unobserved", "scores", "rankings", "unanimous", "opposite")
    for case in range(28):
        kind, J = kinds[case % 7], 3 + case % 5
        # weak consensus and a coarse scale, so that some searches backtrack
        ds = random_dataset(rng, J=J, I=int(rng.integers(3, 10)), M=2, R=J if kind == "full" else 2, theta=0.3,
                            missing_scores=0.2, missing_rankings=0.3)
        scores, rankings = np.array(ds.scores), ds.rankings
        if kind == "unobserved":
            scores[:, rng.choice(J, size=max(1, J // 3), replace=False)] = np.nan
        elif kind == "scores":
            rankings = (None,) * ds.I
        elif kind == "rankings":
            scores[:] = np.nan
        elif kind == "unanimous":
            rankings = (tuple(rng.permutation(J).tolist()),) * ds.I
        elif kind == "opposite":
            order = tuple(rng.permutation(J).tolist())
            rankings = tuple(order if i % 2 else order[::-1] for i in range(2 * (ds.I // 2)))
            scores = scores[:len(rankings)]
        yield kind, compute_stats(Dataset(J=J, M=ds.M, scores=scores, rankings=rankings))


def test_astar_result_is_its_terminal_fit_bitwise(monkeypatch):
    # A* builds its fit from the terminal it pops: the order's D is the
    # terminal's fixed cost, its Binomial cost the terminal's priced cost, and
    # one p fit is left. That is fit_given_order of the order bit for bit (p
    # bytes, theta, flag and f), and no fit_given_order call follows the
    # terminal. greedy builds its fit from the terminal its descent pops the
    # same way, and so does a budget cut that generated no terminal.
    order_fits = _counting(monkeypatch, search, "fit_given_order")

    def bits(fit):
        return (fit.params.consensus_order, fit.params.p.tobytes(), repr(fit.params.theta),
                fit.params.theta_at_cap, fit.theta_flag, fit.f_value.hex())

    seen = set()
    for kind, stats in terminal_fit_panels():
        # and every cut short of the optimum, up to 30 nodes
        cuts = range(1, min(astar(stats).nodes_expanded, 31))
        for heuristic, theta_max, node_budget in (("crude", None, search.DEFAULT_NODE_BUDGET),
                                                  ("lp", None, search.DEFAULT_NODE_BUDGET),
                                                  ("crude", 0.5, search.DEFAULT_NODE_BUDGET),
                                                  *(("crude", None, cut) for cut in cuts)):
            order_fits.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = astar(stats, heuristic=heuristic, theta_max=theta_max, node_budget=node_budget)
            fell_to_greedy = bool(caught)
            assert not order_fits, (kind, heuristic, node_budget)
            expected = fit_given_order(stats, result.params.consensus_order, theta_max=theta_max)
            assert bits(result) == bits(expected), (kind, heuristic, theta_max, node_budget)
            seen.update((kind, result.theta_flag))
            seen.add("greedy fallback" if fell_to_greedy else "cut" if result.budget_exhausted else "optimal")
        for theta_max in (None, 0.5):
            order_fits.clear()
            result = greedy(stats, theta_max=theta_max)
            assert not order_fits, (kind, theta_max)
            expected = fit_given_order(stats, result.params.consensus_order, theta_max=theta_max)
            assert bits(result) == bits(expected), (kind, "greedy", theta_max)
    assert seen == {"full", "top-R", "unobserved", "scores", "rankings", "unanimous", "opposite", "interior",
                    "cap", "floor", "undefined", "greedy fallback", "cut", "optimal"}, seen


def test_searches_price_few_children(monkeypatch):
    # Lazy pricing that stopped skipping children would leave every result
    # unchanged; only the number of children priced shows it.
    priced = _counting(monkeypatch, fitting._NodePricer, "cost")
    stats = compute_stats(simulate_cell(10, 10, 20, 20, 0.4, np.random.default_rng(76))[1])
    *_, evals = search._greedy_descent(stats, None)
    # The eager descent priced all 209 children it generated; the lazy one
    # prices 26 of them, plus the root's own cost.
    assert (evals, len(priced)) == (209, 27)
    stats = compute_stats(simulate_cell(20, 2, 8, 8, 0.3, np.random.default_rng(78))[1])
    # The eager A* priced all 75 children; the lazy one prices 23, plus the
    # root. Under the LP bound it is the same: breaking key ties toward the
    # deeper node took it from 16 nodes, 81 children and 25 priced to these.
    for heuristic, expected in (("crude", (15, 75, 24)), ("lp", (15, 75, 24))):
        priced.clear()
        result = astar(stats, heuristic=heuristic)
        assert (result.nodes_expanded, result.candidate_evaluations, len(priced)) == expected, heuristic
    with pytest.raises(ValueError, match="unknown heuristic 'bogus'"):
        astar(stats, heuristic="bogus")


def test_children_carry_prefix_sums_bitwise(monkeypatch):
    # Every node but the root takes its cross and free-row sums and its free
    # objects from its parent's, updated by its last object, at every depth.
    # On greedy descents and A* runs up to J = 20, every child's fixed and
    # free cost must equal numpy's per-child sums of the win counts and the
    # node's costs summed from scratch, bit for bit, and the sums and free
    # objects a node hands its children must equal those computed from scratch.
    calls = []
    children = search._SearchContext.children

    def recorded(ctx, prefix, fixed, free_min, carry, *rest):
        entries = children(ctx, prefix, fixed, free_min, carry, *rest)
        calls.append((ctx, prefix, fixed, free_min, carry, entries))
        return entries

    def bits(values):
        return [v.hex() for v in values]

    monkeypatch.setattr(search._SearchContext, "children", recorded)
    rng = np.random.default_rng(91)
    depths = {}
    for J, R, theta in ((6, 3, 2.0), (8, 8, 0.3), (9, 9, 0.5), (10, 10, 0.5), (12, 12, 1.0), (20, 20, 0.4)):
        stats = compute_stats(simulate_cell(12, 5, J, R, theta, rng)[1])
        calls.clear()
        greedy(stats)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a budget cut before any terminal
            astar(stats, node_budget=200)
        for ctx, prefix, fixed, free_min, carry, entries in calls:
            assert (carry is None) == (not prefix), (J, prefix)
            depths.setdefault(J, set()).add(len(prefix))
            free = tuple(o for o in range(J) if o not in prefix)
            cross, rows, free_list = node_sums(ctx, prefix)
            for entry in map(ChildEntry._make, entries):
                c = entry.prefix[-1]
                fixed_c, free_min_c = reference_child_costs(ctx, prefix, fixed, free_min, c, free)
                assert (entry.fixed.hex(), entry.free_min.hex()) == (fixed_c.hex(), free_min_c.hex()), (J, prefix, c)
                from_scratch = (fixed_pair_cost(stats.W, entry.prefix),
                                min_pair_cost(stats.W, tuple(o for o in free if o != c)))
                assert (entry.fixed.hex(), entry.free_min.hex()) == tuple(v.hex() for v in from_scratch)
                assert (bits(entry.sums[0]), bits(entry.sums[1])) == (bits(cross), bits(rows)), (J, prefix)
                assert entry.sums[2] == free_list, (J, prefix)
    # greedy reaches every depth a node is expanded at
    assert depths == {J: set(range(J - 1)) for J in (6, 8, 9, 10, 12, 20)}, depths


def test_children_and_theta_parts_match_the_eager_reference_bitwise(monkeypatch):
    # Every child a search generates, the root's included, under both
    # heuristics: its fixed and free costs are the reference's numpy sums,
    # its theta part is the reference's scale fit (after the LP, read from
    # the search's own LP cache), and its key is that part plus the node's
    # floor. A root holds cross sums of 0.0.
    calls = []
    children = search._SearchContext.children

    def recorded(ctx, prefix, fixed, free_min, carry, floor, *rest):
        entries = children(ctx, prefix, fixed, free_min, carry, floor, *rest)
        calls.append((ctx, prefix, fixed, free_min, floor, entries))
        return entries

    monkeypatch.setattr(search._SearchContext, "children", recorded)
    rng = np.random.default_rng(57)
    roots = 0
    for J, R, theta in ((2, 2, 1.0), (3, 2, 2.0), (5, 3, 0.5), (6, 3, 2.0), (7, 7, 0.3), (8, 8, 0.3), (10, 4, 0.5)):
        stats = compute_stats(simulate_cell(12, 5, J, R, theta, rng)[1])
        for heuristic in ("crude", "lp"):
            calls.clear()
            astar(stats, heuristic=heuristic)
            if heuristic == "crude":
                greedy(stats)
            for ctx, prefix, fixed, free_min, floor, entries in calls:
                free = tuple(o for o in range(J) if o not in prefix)
                for entry in map(ChildEntry._make, entries):
                    c = entry.prefix[-1]
                    fixed_c, free_min_c = reference_child_costs(ctx, prefix, fixed, free_min, c, free)
                    assert (entry.fixed.hex(), entry.free_min.hex()) == (fixed_c.hex(), free_min_c.hex())
                    want = reference_theta_part(ctx, fixed_c, free_min_c, tuple(o for o in free if o != c), heuristic)
                    assert entry.theta_part.hex() == want.hex(), (J, heuristic, entry.prefix)
                    assert entry.key.hex() == (want + floor).hex()
                    if not prefix:
                        assert entry.sums[0] == [0.0] * J
                roots += not prefix
    assert roots == 7 * 2 + 7


def test_lp_cache_is_a_function_of_its_key():
    # A node's free_min is the exact integer sum of its free pairs' minima,
    # whatever path reached it, so every LP the search caches equals the LP
    # clamped by the from-scratch minimum sum of its free set, bit for bit.
    rng = np.random.default_rng(81)
    entries = 0
    for _ in range(60):
        stats = compute_stats(random_dataset(rng, J=8, I=6))
        ctx = _SearchContext(stats, theta_max=None, heuristic="lp")
        search._best_first(ctx)
        for free, cached in ctx._lp_cache.items():
            assert cached.hex() == lp_free_cost(stats.W, free, min_pair_cost(stats.W, free)).hex(), free
        entries += len(ctx._lp_cache)
    assert entries > 1000, entries


def test_node_kernel_matches_the_per_child_loop_at_twenty_objects():
    # the carried sums of up to 19 placed objects; every child on greedy's
    # path must still match numpy's sums of the win counts bit for bit
    for R in (5, 20):
        stats = compute_stats(simulate_cell(10, 10, 20, R, 0.4, np.random.default_rng([62, R]))[1])
        ctx, reference = _SearchContext(stats, theta_max=None), _SearchContext(stats, theta_max=None)
        node = ((), 0.0, ctx.root_free_min)
        while len(node[0]) < stats.J - 1:
            children = list(exact_children(ctx, *node))
            assert node_bits(children) == node_bits(reference_children(reference, *node, "crude"))
            _, prefix, fixed, free_min, _ = min(children, key=lambda child: child[0])
            node = (prefix, fixed, free_min)


def _counting(monkeypatch, module, name):
    """Patch module.name with a wrapper that records each call; return the log."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls



def pricer_panels():
    """Seeded panels with missing cells, wholly unobserved objects and ties in q."""
    rng = np.random.default_rng(71)
    for case in range(36):
        J = int(rng.integers(2, 11))
        ds = random_dataset(rng, J=J, M=int(rng.choice([1, 2, 10])),
                            missing_scores=(0.0, 0.3, 0.6)[case % 3], missing_rankings=0.2)
        scores = np.array(ds.scores)
        if case % 4 == 0:
            scores[:, rng.choice(J, size=max(1, J // 3), replace=False)] = np.nan
        if case % 4 == 1:
            scores[:, J - 1] = scores[:, 0]  # equal q, so the tail holds a tie
        if case % 4 == 2:
            scores[:] = np.nan
        yield compute_stats(Dataset(J=J, M=ds.M, scores=scores, rankings=ds.rankings))


def test_lazy_key_never_exceeds_the_exact_bound():
    # Over whole prefix trees, every child's Binomial part is at least its
    # parent's less the lazy key's margin, so the key (theta part + parent's
    # part - margin) is at most the child's exact bound. Every other panel
    # has missing cells, and one in four each wholly unobserved objects,
    # ties in q, or no rankings.
    rng = np.random.default_rng(79)
    seen, checked = set(), 0
    for case in range(16):
        J = 3 + case % 4
        ds = random_dataset(rng, J=J, M=int(rng.choice([1, 2, 10])), missing_scores=(0.0, 0.3)[case % 2],
                            missing_rankings=0.2)
        scores, rankings = np.array(ds.scores), ds.rankings
        if case % 4 == 1:
            scores[:, rng.choice(J, size=max(1, J // 3), replace=False)] = np.nan
        if case % 4 == 2:
            scores[:, 1:3] = scores[:, :1]  # equal q
        if case % 4 == 3:
            rankings = (None,) * ds.I
        stats = compute_stats(Dataset(J=J, M=ds.M, scores=scores, rankings=rankings))
        q = [stats.q[j] for j in stats.by_q]
        seen.update(kind for kind, present in (("missing cells", np.isnan(scores).any()),
                                               ("unobserved", bool(stats.unobserved)),
                                               ("tie in q", len(set(q)) < len(q)),
                                               ("score-only", not stats.n_rankers)) if present)
        ctx = _SearchContext(stats, theta_max=None)
        stack = [((), 0.0, ctx.root_free_min)]
        while stack:
            prefix, fixed, free_min = stack.pop()
            pricer = node_pricer(stats, prefix)
            parent = pricer.cost(())
            floor = search._lazy_floor(parent)
            for entry in search_children(ctx, prefix, fixed, free_min, pricer=pricer):
                theta_part, child, fixed_c, free_min_c = entry.theta_part, entry.prefix, entry.fixed, entry.free_min
                cost = pricer.cost(child[-1:])
                assert cost >= parent - 1e-9 * abs(parent), (prefix, child, parent, cost)
                assert theta_part + floor <= theta_part + cost
                seen.add("above" if cost > parent else "equal" if cost == parent else "rounded below")
                checked += 1
                if len(child) < J - 1:
                    stack.append((child, fixed_c, free_min_c))
    # "rounded below": a child's part equal in exact arithmetic can round
    # below its parent's, which is why the key has a margin
    assert seen == {"missing cells", "unobserved", "tie in q", "score-only", "above", "equal", "rounded below"}, seen
    assert checked >= 2000, checked


def test_node_pricer_matches_per_node_fits_bitwise():
    # every child of a node, a shuffled subset of them, the node itself and
    # two-object extensions, at empty to near-full prefixes
    rng = np.random.default_rng(72)
    checked = 0
    for stats in pricer_panels():
        J = stats.J
        perm = tuple(int(o) for o in rng.permutation(J))
        for k in sorted({0, 1, J // 2, max(J - 2, 0), J - 1}):
            prefix = perm[:k]
            free = [o for o in range(J) if o not in prefix]
            shuffled = [int(c) for c in rng.permutation(free)]
            for extensions in ([(c,) for c in free], [(c,) for c in shuffled[:max(1, len(free) // 2)]],
                               [(), *zip(shuffled, shuffled[1:])]):
                got = [node_pricer(stats, prefix).cost(ext) for ext in extensions]
                expected = reference_node_binomial_costs(stats, prefix, extensions)
                assert [v.hex() for v in got] == [v.hex() for v in expected], (prefix, extensions)
                checked += len(extensions)
    assert checked >= 500, checked


def screen_panels():
    """Panels for the order scan: some with no rankings, some whose theta
    sits at the cap (unanimous rankings) or at the floor (two opposite
    judges), the rest random."""
    rng = np.random.default_rng(73)
    panels = []
    for case in range(12):
        J = int(rng.integers(3, 8))
        ds = random_dataset(rng, J=J, I=int(rng.integers(3, 9)), missing_scores=0.2, theta=0.4)
        rankings = ds.rankings
        if case % 4 == 1:
            rankings = (None,) * ds.I
        elif case % 4 == 2:
            rankings = (tuple(rng.permutation(J).tolist()),) * ds.I
        elif case % 4 == 3:
            order = tuple(rng.permutation(J).tolist())
            rankings = tuple(order if i % 2 else order[::-1] for i in range(ds.I))
        panels.append(Dataset(J=J, M=ds.M, scores=ds.scores, rankings=rankings))
    return panels


def test_order_screen_returns_the_unscreened_fit(monkeypatch):
    def run():
        results = []
        for ds in screen_panels():
            stats = compute_stats(ds)
            for theta_max in (None, 0.5):
                for result in (greedy_local(stats, theta_max=theta_max), fv(stats, ds, theta_max=theta_max),
                               brute_force(stats, theta_max=theta_max)):
                    results.append((result.algorithm, result.params.consensus_order, result.f_value.hex(),
                                    repr(result.params.theta), result.theta_flag, result.params.p.tobytes(),
                                    result.candidate_evaluations, result.local_rounds))
        return results

    screened = run()
    flags = {entry[4] for entry in screened}
    assert {"interior", "cap", "floor", "undefined"} <= flags, flags
    monkeypatch.setattr(search, "_best_fit", reference_best_fit)
    assert screened == run()


def test_order_screen_skips_order_fits(monkeypatch):
    # A screen that stopped skipping would leave every result unchanged;
    # only the number of conditional fits shows it. Every conditional fit is
    # built by _conditional_fit: the screen calls it from search, and
    # fit_given_order from fitting.
    _, data = simulate_cell(10, 10, 12, 12, 0.4, np.random.default_rng(74))
    stats = compute_stats(data)
    fits = _counting(monkeypatch, search, "_conditional_fit")
    monkeypatch.setattr(fitting, "_conditional_fit", search._conditional_fit)
    screened = greedy_local(stats), fv(stats, data)
    screened_fits = len(fits)
    fits.clear()
    monkeypatch.setattr(search, "_best_fit", reference_best_fit)
    unscreened = greedy_local(stats), fv(stats, data)
    assert [r.f_value for r in screened] == [r.f_value for r in unscreened]
    # The chord-from-zero screen this one replaced made 26 fits here.
    assert screened_fits <= 26 // 2, (screened_fits, len(fits))
    assert screened_fits < len(fits)


def floor_panels():
    """Panels for the swap floor, J = 2..8: full, top-R and score-only
    rankings, missing cells, and from J = 3 on an object with no scores,
    objects tied in q, and q at 0 and at 1."""
    rng = np.random.default_rng(76)
    for J in range(2, 9):
        for kind in ("full", "top-R", "scores"):
            ds = random_dataset(rng, J=J, I=6, R=J if kind == "full" else max(1, J - 2), theta=0.5,
                                missing_scores=0.15)
            scores, rankings = np.array(ds.scores), ds.rankings
            if J >= 3:
                scores[:, 0] = np.nan
                scores[:, 1] = scores[:, 2] = np.arange(ds.I) % (ds.M + 1)
                scores[0, 1] = scores[0, 2] = 1.0  # not all missing, whatever the draw
            if J >= 5:
                scores[:, 3], scores[:, 4] = 0.0, ds.M
            if kind == "scores":
                rankings = (None,) * ds.I
            yield Dataset(J=J, M=ds.M, scores=scores, rankings=rankings)


def test_swap_floor_bounds_every_adjacent_neighbour():
    # For every adjacent swap of several orders (the q-sorted order, whose
    # swaps all pool, its reverse, a random one and greedy's), the floor lies
    # at or below the neighbour's exact Binomial part, and its O(1) Kendall
    # total is _kendall_total's, bit for bit.
    rng = np.random.default_rng(77)
    checked, pooled = 0, 0
    for ds in floor_panels():
        stats = compute_stats(ds)
        by_q = tuple(sorted(range(ds.J), key=lambda j: (stats.q[j], j)))
        greedy_order = search._greedy_descent(stats, None)[0].params.consensus_order
        for order in (by_q, by_q[::-1], tuple(rng.permutation(ds.J).tolist()), greedy_order):
            neighbours, totals, floors = search._adjacent_swaps(stats, order, _kendall_total(stats, order))
            for neighbour, total, floor in zip(neighbours, totals, floors):
                exact = fitting._binomial_cost(stats, fitting._fit_p_core(stats, neighbour))
                assert floor <= exact, (ds, order, neighbour, floor, exact)
                assert total.hex() == _kendall_total(stats, neighbour).hex(), (order, neighbour)
                checked += 1
                pooled += floor > 0.9 * exact > 0
    assert checked >= 300 and pooled >= checked // 4, (checked, pooled)


def test_chain_costs_match_the_general_pass_bitwise():
    # Prefix and suffix passes over the orders the swap floor reads, and
    # over orders that pool everywhere and nowhere, on every floor panel.
    rng = np.random.default_rng(78)
    singletons = pooled = 0
    for ds in floor_panels():
        stats = compute_stats(ds)
        by_q = tuple(sorted(range(ds.J), key=lambda j: (stats.q[j], j)))
        for order in (by_q, by_q[::-1], tuple(rng.permutation(ds.J).tolist())):
            for chain, sign in ((order, 1.0), (order[::-1], -1.0)):
                got = fitting._chain_costs(stats, chain, sign)
                want = reference_chain_costs(stats, chain, sign)
                assert [float(c).hex() for c in got] == [float(c).hex() for c in want], (ds, chain, sign)
                blocks = []
                for j in chain:
                    if stats.observed[j]:
                        fitting._pava(blocks, sign * stats.q[j], stats.q_weight[j], j)
                singletons += sum(len(members) == 1 for _, _, members in blocks)
                pooled += sum(len(members) > 1 for _, _, members in blocks)
    assert singletons > 200 and pooled > 50, (singletons, pooled)


def test_pair_cost_is_the_chain_pass_bitwise():
    # Every ordered pair of every floor panel and of its rankings-only copy:
    # pooled and unpooled pairs, pairs tied in q, pairs with an unobserved
    # object and pairs on panels with no scores.
    seen = set()
    for ds in floor_panels():
        panels = [ds]
        if ds.rankings[0] is not None:
            panels.append(Dataset(J=ds.J, M=ds.M, scores=np.full(ds.scores.shape, np.nan), rankings=ds.rankings))
        for stats in map(compute_stats, panels):
            for first, second in itertools.permutations(range(stats.J), 2):
                got = fitting._pair_cost(stats, first, second)
                assert float(got).hex() == reference_pair_cost(stats, first, second).hex(), (ds, first, second)
                q, observed = stats.q, stats.observed
                seen.add("no scores" if not any(observed) else "unobserved" if not observed[first] * observed[second]
                         else "tied" if q[first] == q[second] else "pooled" if q[first] > q[second] else "chained")
    assert seen == {"no scores", "unobserved", "tied", "pooled", "chained"}, seen


def test_greedy_searches_at_twenty_objects_match_the_eager_references_bitwise(monkeypatch):
    # On seeded J = 20 panels, full and top-5: greedy pops the children the
    # eager descent keeps, with the same exact keys and counters, and its fit,
    # built from the terminal it pops, is fit_given_order's of the same
    # order; greedy_local, screened, ends where the unscreened local search
    # ends, after as many rounds and candidates. A* cut before any terminal
    # falls back on the same descent.
    for R, seed in ((20, 76), (20, 88), (5, 98)):  # 1, 3 and 5 local rounds
        stats = compute_stats(simulate_cell(10, 10, 20, R, 0.4, np.random.default_rng(seed))[1])
        popped = []
        order, evals = reference_greedy_order(_SearchContext(stats, theta_max=None), popped)
        traffic = HeapTraffic()
        with monkeypatch.context() as patch:
            patch.setattr(search, "heapq", traffic)
            fit = greedy(stats)
        assert traffic.popped == popped, R
        expected = fit_given_order(stats, order)
        assert (fit.params.consensus_order, fit.params.p.tobytes(), fit.f_value.hex()) == (
            order, expected.params.p.tobytes(), expected.f_value.hex())
        assert (fit.nodes_expanded, fit.candidate_evaluations) == (stats.J - 1, evals)
        local = greedy_local(stats)
        reference, reference_evals, rounds = reference_greedy_local(stats)
        assert (local.params.consensus_order, local.f_value.hex(), local.candidate_evaluations, local.local_rounds) == (
            reference.params.consensus_order, reference.f_value.hex(), reference_evals, rounds), R
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a budget cut before any terminal
            traffic, cut = astar_traffic(monkeypatch, stats, node_budget=1)
        reference = reference_astar(stats, node_budget=1)
        assert (traffic.popped, cut.params.consensus_order, cut.f_value.hex()) == (
            reference["popped"], reference["order"], fit.f_value.hex())


def test_greedy_local_screens_most_neighbours_before_their_p_fit(monkeypatch):
    # The unfloored scan fitted the p of all J - 1 neighbours every round, and
    # greedy's order once more; the floor leaves fewer p fits than that.
    _, data = simulate_cell(10, 10, 20, 20, 0.4, np.random.default_rng(74))
    stats = compute_stats(data)
    p_fits = _counting(monkeypatch, search, "_fit_p_core")
    monkeypatch.setattr(fitting, "_fit_p_core", search._fit_p_core)
    result = greedy_local(stats)
    assert len(p_fits) < (stats.J - 1) * result.local_rounds, (len(p_fits), result.local_rounds)


def test_order_screen_chord_is_a_lower_bound(monkeypatch):
    # Every chord an order is screened by lies at or below g(D) =
    # _scale_fit(D)[2], up to 1e-12 |f|, and every point it is drawn through is
    # g itself, bit for bit, whether solved at an end of the scan or read
    # from a fit. Covered: full, top-R and score-only panels, a cap below
    # and at its default, an incoming best inside, above and below the
    # scan's range of D, and a best replaced mid-scan.
    chords, scans, seen = [], [], set()
    chord, best_fit = search._theta_chord, search._best_fit

    def recorded_chord(D, best, lo, hi):
        value = chord(D, best, lo, hi)
        chords.append((len(scans), D, best, lo, hi, value))
        return value

    def recorded_scan(*args, **kwargs):
        scans.append(None)
        return best_fit(*args, **kwargs)

    monkeypatch.setattr(search, "_theta_chord", recorded_chord)
    monkeypatch.setattr(search, "_best_fit", recorded_scan)
    rng = np.random.default_rng(75)
    for case in range(9):
        J, kind = 5 + case % 2, ("full", "top-3", "scores")[case % 3]
        ds = random_dataset(rng, J=J, I=8, R=3 if kind == "top-3" else J, theta=0.6, missing_scores=0.1)
        if kind == "scores":
            ds = Dataset(J=J, M=ds.M, scores=ds.scores, rankings=(None,) * ds.I)
        stats = compute_stats(ds)
        profile = stats.length_profile
        for theta_max in (None, 0.5):
            chords.clear()
            results = [greedy_local(stats, theta_max=theta_max), fv(stats, ds, theta_max=theta_max),
                       brute_force(stats, theta_max=theta_max)]
            # incoming bests far from the scanned orders: the reversed
            # optimum scanning the optimum's neighbours, and the other way round
            order = results[2].params.consensus_order
            for scanned, incoming in ((order, order[::-1]), (order[::-1], order)):
                neighbours = kendall.adjacent_neighbors(scanned)
                search._best_fit(stats, neighbours, [_kendall_total(stats, o) for o in neighbours],
                                 theta_max=theta_max, best=fit_given_order(stats, incoming, theta_max=theta_max),
                                 best_total=_kendall_total(stats, incoming))
            f = min(abs(result.f_value) for result in results)
            cap = fitting._theta_cap(J, theta_max)
            g = {}
            for scan, D, best, lo, hi, value in chords:
                for x, g_x in (best, lo, hi, (D, None)):
                    if x not in g:
                        g[x] = fitting._scale_fit(x, profile, cap)[2]
                    assert g_x is None or g_x.hex() == g[x].hex(), (x, g_x, g[x])
                assert lo[0] <= D <= hi[0]
                assert value <= g[D] + 1e-12 * f, (D, best, lo, hi, value, g[D])
                seen.add((kind, theta_max))
                seen.add("above" if best[0] > hi[0] else "below" if best[0] < lo[0] else "inside")
            for earlier, later in zip(chords, chords[1:]):
                if earlier[0] == later[0] and earlier[2] != later[2]:  # one scan, another best
                    seen.add("replaced")
    kinds = {(kind, theta_max) for kind in ("full", "top-3", "scores") for theta_max in (None, 0.5)}
    assert seen == kinds | {"above", "below", "inside", "replaced"}, seen


def test_theta_memo_cannot_change_a_search(monkeypatch):
    rng = np.random.default_rng(41)
    panels = []
    for _ in range(6):
        ds = random_dataset(rng, J=int(rng.integers(4, 9)), missing_scores=0.1, missing_rankings=0.2)
        panels.append(compute_stats(ds))
    solves = _counting(monkeypatch, fitting, "fit_theta")

    def run(heuristic):
        runs = []
        for stats in panels:
            traffic, result = astar_traffic(monkeypatch, stats, heuristic=heuristic)
            runs.append((traffic.pushed, traffic.popped, result.nodes_expanded, result.candidate_evaluations,
                         result.params.consensus_order, result.f_value))
        return runs

    for heuristic in ("crude", "lp"):
        fitting._scale_fit.cache_clear()
        solves.clear()
        memoized = run(heuristic)
        memo_solves = len(solves)
        with monkeypatch.context() as patch:
            # the bounds read the memo from search, the final fit from fitting
            for module in (search, fitting):
                patch.setattr(module, "_scale_fit", fitting._scale_fit.__wrapped__)
            solves.clear()
            plain = run(heuristic)
        assert memoized == plain
        assert memo_solves < len(solves)  # the memo was hit


def test_theta_memo_is_shared_by_searches_on_one_length_profile(monkeypatch):
    rng = np.random.default_rng(43)
    ds = random_dataset(rng, J=6, I=9, R=6)
    rankings = tuple(r[:2 + i % 5] for i, r in enumerate(ds.rankings))
    first = Dataset(J=6, M=ds.M, scores=ds.scores, rankings=rankings)
    # The same judges in another order: the lengths differ as a sequence and
    # agree as a multiset, and Q holds the same bits.
    shuffle = rng.permutation(ds.I)
    second = Dataset(J=6, M=ds.M, scores=ds.scores[shuffle], rankings=tuple(rankings[i] for i in shuffle))
    assert [len(r) for r in first.rankings] != [len(r) for r in second.rankings]
    solves = _counting(monkeypatch, fitting, "fit_theta")
    order_fits = _counting(monkeypatch, search, "fit_given_order")
    final_fits = _counting(monkeypatch, search, "_conditional_fit")

    fitting._scale_fit.cache_clear()
    astar(compute_stats(first))
    assert len(solves) > len(order_fits) == 0
    solves.clear()
    final_fits.clear()
    result = astar(compute_stats(second))
    # the final conditional fit, built from the terminal, too reads the first search's solve
    assert len(solves) == 0 and len(order_fits) == 0 and len(final_fits) == 1
    assert result.params.consensus_order == astar(compute_stats(first)).params.consensus_order


def test_conditional_fit_reads_the_search_solve(monkeypatch):
    # A conditional fit reads theta from the memo its search filled: its
    # (theta, flag, f) are bitwise those of a fresh fit_theta solve with the
    # memo cold and warm, and an A* search whose final key is memoized
    # solves nothing after its last bound.
    fresh_solve = fitting.fit_theta
    solves = _counting(monkeypatch, fitting, "fit_theta")
    bound_keys, solves_at_bound = [], []
    scale_fit = search._scale_fit

    def recorded(total, profile, cap):
        value = scale_fit(total, profile, cap)
        bound_keys.append(total)
        solves_at_bound.append(len(solves))
        return value

    monkeypatch.setattr(search, "_scale_fit", recorded)

    def bits(theta, flag, f):
        return None if theta is None else theta.hex(), flag, f.hex()

    def fresh(stats, params, theta_max):
        theta, flag = None, "undefined"
        if stats.n_rankers:
            d = _kendall_total(stats, params.consensus_order) / stats.n_rankers
            theta, flag = fresh_solve(d, stats.length_profile, theta_max)
        return bits(theta, flag, objective(stats, Parameters(params.p, theta, params.consensus_order)))

    rng = np.random.default_rng(77)
    panels = []
    for case in range(6):
        J, kind = 5 + case % 2, ("full", "top-3", "scores")[case % 3]
        ds = random_dataset(rng, J=J, I=8, R=3 if kind == "top-3" else J, theta=0.6, missing_scores=0.1)
        if kind == "scores":
            ds = Dataset(J=J, M=ds.M, scores=ds.scores, rankings=(None,) * ds.I)
        panels.append(compute_stats(ds))
    # two opposite rankings: every order lies at the uniform mean distance, theta at its floor
    panels.append(compute_stats(Dataset(J=5, M=4, scores=rng.integers(0, 5, size=(2, 5)).astype(float),
                                        rankings=(tuple(range(5)), tuple(range(4, -1, -1))))))
    flags, memoized_finals = set(), 0
    for stats in panels:
        for theta_max in (None, 0.5):
            methods = {"fit_given_order": lambda: fit_given_order(stats, tuple(range(stats.J))[::-1],
                                                                  theta_max=theta_max),
                       "astar": lambda: astar(stats, theta_max=theta_max),
                       "greedy_local": lambda: greedy_local(stats, theta_max=theta_max)}
            for name, method in methods.items():
                fitting._scale_fit.cache_clear()
                for warm in (False, True):
                    bound_keys.clear()
                    solves_at_bound.clear()
                    solves.clear()
                    fit = method()
                    got = bits(fit.params.theta, fit.theta_flag, fit.f_value)
                    assert got == fresh(stats, fit.params, theta_max), (name, theta_max, warm)
                    flags.add(fit.theta_flag)
                    if name == "astar" and stats.n_rankers:
                        D = _kendall_total(stats, fit.params.consensus_order)
                        after_last_bound = len(solves) - solves_at_bound[-1]
                        if warm or D in bound_keys:
                            assert after_last_bound == 0, (theta_max, warm)
                            memoized_finals += not warm
                        else:
                            assert after_last_bound == 1
    assert flags == {"interior", "cap", "floor", "undefined"}, flags
    assert memoized_finals > 0


def test_conditional_fit_values_equal_the_objective_bitwise():
    # A conditional fit adds the scale part its scale fit memoized, where
    # objective() computes its own: every method's f_value is still the
    # objective at its parameters, bit for bit, with the memo cold and warm.
    rng = np.random.default_rng(78)
    methods = {"astar": lambda stats, ds, cap: astar(stats, theta_max=cap),
               "greedy": lambda stats, ds, cap: greedy(stats, theta_max=cap),
               "greedy_local": lambda stats, ds, cap: greedy_local(stats, theta_max=cap),
               "fv": lambda stats, ds, cap: fv(stats, ds, theta_max=cap),
               "brute_force": lambda stats, ds, cap: brute_force(stats, theta_max=cap)}
    flags = set()
    for case in range(8):
        kind, J = ("full", "top-R", "scores", "rankings")[case % 4], 4 + case % 3
        ds = random_dataset(rng, J=J, I=7, R=3 if kind == "top-R" else J, theta=0.6, missing_scores=0.1)
        if kind == "scores":
            ds = Dataset(J=J, M=ds.M, scores=ds.scores, rankings=(None,) * ds.I)
        elif kind == "rankings":
            ds = Dataset(J=J, M=ds.M, scores=np.full(ds.scores.shape, np.nan), rankings=ds.rankings)
        stats = compute_stats(ds)
        for theta_max in (None, 0.5):
            for name, method in methods.items():
                fitting._scale_fit.cache_clear()
                cold, warm = method(stats, ds, theta_max), method(stats, ds, theta_max)
                for fit in (cold, warm):
                    assert fit.f_value.hex() == objective(stats, fit.params).hex(), (case, kind, theta_max, name)
                assert cold.f_value.hex() == warm.f_value.hex()
                flags.add(cold.theta_flag)
    assert flags == {"interior", "cap", "undefined"}, flags


def test_astar_f_is_its_terminal_key(monkeypatch):
    # A*'s f is the Binomial cost plus the scale part g(D), the sum its
    # terminal's key took, so the fit returns the key it popped, bit for bit:
    # either heuristic, on full, top-R, score-only and ranking-only panels.
    rng = np.random.default_rng(79)
    kinds = set()
    for case in range(24):
        kind, J = ("full", "top-R", "scores", "rankings")[case % 4], 3 + case % 5
        ds = random_dataset(rng, J=J, I=8, R=3 if kind == "top-R" else J, theta=0.4, missing_scores=0.1)
        if kind == "scores":
            ds = Dataset(J=J, M=ds.M, scores=ds.scores, rankings=(None,) * ds.I)
        elif kind == "rankings":
            ds = Dataset(J=J, M=ds.M, scores=np.full(ds.scores.shape, np.nan), rankings=ds.rankings)
        stats = compute_stats(ds)
        for heuristic in ("crude", "lp"):
            traffic, result = astar_traffic(monkeypatch, stats, heuristic=heuristic)
            prefix, key, _ = traffic.popped[-1]
            assert len(prefix) == J - 1 and result.optimal
            assert result.f_value.hex() == key, (case, kind, heuristic)
            kinds.add(kind)
    assert kinds == {"full", "top-R", "scores", "rankings"}


def test_theta_memo_has_a_fixed_size():
    size = fitting._scale_fit.cache_info().maxsize
    assert size is not None
    fitting._scale_fit.cache_clear()
    profile = (1, 2)  # judges' lengths 2, 2 and 1
    for k in range(size + 10):
        theta, flag, g = fitting._scale_fit(0.01 * k, profile, 4.0)
        assert g == theta * (0.01 * k / 3 * 3) + fitting.log_psi_total(theta, profile)
    assert fitting._scale_fit.cache_info().currsize == size
    assert fitting._scale_fit(0.0, (0, 0), 4.0) == (None, "undefined", 0.0)
    fitting._scale_fit.cache_clear()


def test_searches_survive_a_zero_cost_rounded_below_zero():
    # Every judge agrees with one order, and the incremental pair costs of
    # some prefixes round to about -1e-17, below their true value 0.
    rankings = ((3, 5, 2, 6, 4, 1, 0), (3, 5, 2), (3, 5, 2, 6), (3, 5, 2, 6, 4, 1, 0), (3,), None,
                (3, 5), (3, 5), (3, 5), (3, 5), (3,))
    stats = compute_stats(Dataset(J=7, M=2, scores=np.full((11, 7), np.nan), rankings=rankings))
    for result in (astar(stats), astar(stats, heuristic="lp"), greedy(stats), greedy_local(stats)):
        assert result.params.consensus_order[:4] == (3, 5, 2, 6)
        assert result.theta_flag == "cap"


def test_brute_force_cap():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, J=4)
    with pytest.raises(BruteForceCapExceeded):
        brute_force(compute_stats(ds), cap=3)


def test_brute_force_single_object():
    ds = Dataset(J=1, M=4, scores=np.array([[1.0], [3.0]]), rankings=(None, None))
    result = brute_force(compute_stats(ds))
    assert result.params.p[0] == pytest.approx(0.5)


def test_greedy_unanimous_and_dominated_by_exact():
    ds, order = unanimous_dataset()
    stats = compute_stats(ds)
    g = greedy(stats)
    assert g.params.consensus_order == order
    rng = np.random.default_rng(31)
    for _ in range(15):
        ds = random_dataset(rng, missing_rankings=0.2)
        stats = compute_stats(ds)
        g = greedy(stats)
        exact = astar(stats)
        assert g.f_value >= exact.f_value - 1e-10


def test_greedy_local_improves_on_greedy():
    rng = np.random.default_rng(32)
    for _ in range(15):
        ds = random_dataset(rng, theta=0.5)
        stats = compute_stats(ds)
        g = greedy(stats)
        gl = greedy_local(stats)
        assert gl.f_value <= g.f_value + 1e-12


def test_greedy_local_single_round_when_greedy_optimal():
    ds, order = unanimous_dataset()
    result = greedy_local(compute_stats(ds))
    assert result.params.consensus_order == order
    assert result.local_rounds == 1 and not result.rounds_capped


def test_greedy_local_round_cap_flag(monkeypatch):
    monkeypatch.setattr(search, "MAX_LOCAL_ROUNDS", 0)
    rng = np.random.default_rng(33)
    for _ in range(20):
        ds = random_dataset(rng, theta=0.3)
        stats = compute_stats(ds)
        capped = greedy_local(stats)
        assert capped.rounds_capped
        g = greedy(stats)
        assert capped.f_value == pytest.approx(g.f_value, abs=1e-12)


@pytest.mark.parametrize("theta_max", [0.0, -1.0, THETA_FLOOR, np.nan, np.inf])
def test_every_fit_rejects_an_invalid_theta_cap(theta_max):
    # a cap at or below THETA_FLOOR would put an "interior" theta below the floor
    _, data = simulate_cell(6, 5, 5, 5, 1.0, np.random.default_rng(1))
    stats = compute_stats(data)
    fits = (astar, brute_force, greedy, greedy_local, lambda s, **options: fv(s, data, **options),
            lambda s, **options: fit_given_order(s, range(s.J), **options))
    for fit in fits:
        with pytest.raises(ValueError, match="theta_max"):
            fit(stats, theta_max=theta_max)


@pytest.mark.parametrize("cap", [0, -3])
def test_fv_rejects_a_non_positive_candidate_cap(cap):
    # a cap below 1 leaves no candidate order to fit
    ds, _ = unanimous_dataset()
    with pytest.raises(ValueError, match="candidate_cap"):
        fv(compute_stats(ds), ds, candidate_cap=cap)
    with pytest.raises(ValueError, match="candidate_cap"):
        bootstrap(ds, method="fv", B=2, candidate_cap=cap)


def test_fv_unanimous_recovers_mle():
    ds, order = unanimous_dataset()
    result = fv(compute_stats(ds), ds)
    assert result.params.consensus_order == order


def test_fv_candidate_count_without_ties():
    scores = np.array([[1.0, 2.0, 3.0]])
    ds = Dataset(J=3, M=5, scores=scores, rankings=((1, 0, 2),))
    result = fv(compute_stats(ds), ds)
    # two distinct base orders plus at most four neighbors, deduplicated
    assert result.candidate_evaluations == 4
    assert not result.candidate_cap_hit


def test_fv_candidate_cap_warns():
    scores = np.array([[2.0, 2.0, 2.0, 2.0, 2.0]])
    ds = Dataset(J=5, M=4, scores=scores, rankings=(None,))
    with pytest.warns(RuntimeWarning, match="candidate cap"):
        result = fv(compute_stats(ds), ds, candidate_cap=8)
    assert result.candidate_cap_hit


def test_tie_break_orders_follow_product_order():
    averages = np.array([2.0, 1.0, 1.0, 3.0, 2.0, 1.0, np.nan])
    groups = [(1, 2, 5), (0, 4), (3,), (6,)]
    expected = [tuple(itertools.chain.from_iterable(combo))
                for combo in itertools.product(*(itertools.permutations(g) for g in groups))]
    orders, truncated = _tie_break_orders(averages, 100)
    assert orders == expected and not truncated
    orders, truncated = _tie_break_orders(averages, 5)
    assert orders == expected[:5] and truncated


def test_tie_break_enumeration_is_lazy():
    # 8 tied objects have 8! = 40320 orders; with a cap of 4 only a handful
    # may ever exist
    tracemalloc.start()
    try:
        orders, truncated = _tie_break_orders(np.zeros(8), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orders == [(0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 7, 6),
                      (0, 1, 2, 3, 4, 6, 5, 7), (0, 1, 2, 3, 4, 6, 7, 5)]
    assert truncated
    assert peak < 0.5 * 2**20


def test_fv_with_two_never_scored_objects_warns_nothing():
    # Objects 2 and 3 have no score average, so both tie-break keys are inf;
    # subtracting them as numpy floats warns, which the test settings make an
    # error. Each stays a group of its own: the f bits are those of the numpy
    # comparison with its warning silenced, f summed as the Binomial part
    # plus the scale part.
    ds = Dataset(J=4, M=4, scores=np.array([[0.0, 2.0, np.nan, np.nan], [1.0, 3.0, np.nan, np.nan]]),
                 rankings=((0, 1), (1, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fv(compute_stats(ds), ds)
    assert result.params.consensus_order == (0, 1, 2, 3)
    assert result.candidate_evaluations == 8
    assert result.f_value.hex() == "0x1.59349a0b33c5ap+3"


def test_fv_never_beats_exact():
    rng = np.random.default_rng(34)
    for _ in range(10):
        ds = random_dataset(rng)
        stats = compute_stats(ds)
        approx = fv(stats, ds)
        exact = astar(stats)
        assert approx.f_value >= exact.f_value - 1e-10
