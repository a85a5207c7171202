import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    astar_bounds,
    crude_cost,
    enumerate_outcomes,
    random_dataset,
    reference_best_fit,
    reference_node_binomial_costs,
    reference_children,
)
from mallows_binomial import (
    Dataset,
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
from mallows_binomial.fitting import THETA_FLOOR
from mallows_binomial.inference import bootstrap, simulate_cell
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
        ctx = _SearchContext(stats, theta_max=None)
        J = ds.J
        for k in range(1, J):
            for prefix in itertools.permutations(range(J), k):
                free = tuple(o for o in range(J) if o not in prefix)
                fixed = crude_cost(stats, prefix) - sum(
                    min(stats.Q[u, v], stats.Q[v, u])
                    for u, v in itertools.combinations(free, 2))
                free_min = crude_cost(stats, prefix) - fixed
                crude_b = ctx.bounds(prefix, [()], [fixed], [free_min], [free], "crude")[0]
                lp_b = ctx.bounds(prefix, [()], [fixed], [free_min], [free], "lp")[0]
                exact = min(
                    fit_given_order(stats, prefix + tail).f_value
                    for tail in itertools.permutations(free))
                assert crude_b <= lp_b + 1e-9
                assert lp_b <= exact + 1e-9


def test_child_bounds_never_decrease():
    rng = np.random.default_rng(23)
    ds = random_dataset(rng, J=5, missing_scores=0.1)
    stats = compute_stats(ds)
    ctx = _SearchContext(stats, theta_max=None)
    for heuristic in ("crude", "lp"):
        stack = [((), 0.0, ctx.root_free_min, -np.inf)]
        while stack:
            prefix, fixed, free_min, parent_bound = stack.pop()
            if len(prefix) > 2:  # keep the walk small
                continue
            for bound, child_prefix, fixed_c, free_min_c, _ in ctx.children(prefix, fixed, free_min, heuristic):
                assert bound >= parent_bound - 1e-9
                stack.append((child_prefix, fixed_c, free_min_c, bound))


def node_bits(children):
    return [np.array([bound, fixed, free_min]).tobytes() + repr((prefix, free)).encode()
            for bound, prefix, fixed, free_min, free in children]


def test_node_kernel_matches_the_per_child_loop_bitwise(monkeypatch):
    # every bound astar generates, as the one-child-at-a-time loop with
    # scipy's Binomial terms computed it
    rng = np.random.default_rng(61)
    panels = []
    for case in range(24):
        J = int(rng.integers(3, 10))
        R = J if case % 2 else int(rng.integers(2, J))
        _, data = simulate_cell(int(rng.integers(3, 16)), int(rng.choice([2, 5, 10])), J, R,
                                float(rng.uniform(0.2, 2.5)), rng)
        panels.append(compute_stats(data))

    def run():
        runs = []
        for stats in panels:
            for heuristic in ("crude", "lp"):
                bounds, result = astar_bounds(monkeypatch, stats, heuristic=heuristic)
                runs.append((np.array(bounds).tobytes(), result.nodes_expanded, result.params.consensus_order,
                             result.f_value.hex()))
        return runs

    kernel = run()
    monkeypatch.setattr(search._SearchContext, "children", reference_children)
    assert kernel == run()


def test_node_kernel_matches_the_per_child_loop_at_twenty_objects():
    # rows of up to 19 fixed pairs take numpy's pairwise sum; every child on
    # greedy's path must still match the 1-D sums bit for bit
    for R in (5, 20):
        stats = compute_stats(simulate_cell(10, 10, 20, R, 0.4, np.random.default_rng([62, R]))[1])
        ctx, reference = _SearchContext(stats, theta_max=None), _SearchContext(stats, theta_max=None)
        node = ((), 0.0, ctx.root_free_min)
        while len(node[0]) < stats.J - 1:
            children = list(ctx.children(*node, "crude"))
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
                got = fitting._node_binomial_costs(stats, prefix, extensions)
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


def test_order_screen_chord_is_a_lower_bound(monkeypatch):
    # Every chord an order is screened by lies at or below g(d) =
    # _theta_cost(d), up to 1e-12 |f|, and every point it is drawn through is
    # g itself, bit for bit, whether solved at an end of the scan or read
    # from a fit. Covered: full, top-R and score-only panels, a cap below
    # and at its default, an incoming best inside, above and below the
    # scan's range of d, and a best replaced mid-scan.
    chords, scans, seen = [], [], set()
    chord, best_fit = search._theta_chord, search._best_fit

    def recorded_chord(d, best, lo, hi):
        value = chord(d, best, lo, hi)
        chords.append((len(scans), d, best, lo, hi, value))
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
                search._best_fit(stats, kendall.adjacent_neighbors(scanned), theta_max=theta_max,
                                 best=fit_given_order(stats, incoming, theta_max=theta_max))
            f = min(abs(result.f_value) for result in results)
            cap = fitting._theta_cap(J, theta_max)
            g = {}
            for scan, d, best, lo, hi, value in chords:
                for x, g_x in (best, lo, hi, (d, None)):
                    if x not in g:
                        g[x] = fitting._theta_cost(x, profile, cap)
                    assert g_x is None or g_x.hex() == g[x].hex(), (x, g_x, g[x])
                assert lo[0] <= d <= hi[0]
                assert value <= g[d] + 1e-12 * f, (d, best, lo, hi, value, g[d])
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
            bounds, result = astar_bounds(monkeypatch, stats, heuristic=heuristic)
            runs.append((bounds, result.nodes_expanded, result.candidate_evaluations,
                         result.params.consensus_order, result.f_value))
        return runs

    for heuristic in ("crude", "lp"):
        fitting._theta_cost.cache_clear()
        solves.clear()
        memoized = run(heuristic)
        memo_solves = len(solves)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_theta_cost", fitting._theta_cost.__wrapped__)
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

    fitting._theta_cost.cache_clear()
    astar(compute_stats(first))
    assert len(solves) > len(order_fits)
    solves.clear()
    order_fits.clear()
    result = astar(compute_stats(second))
    assert len(solves) == len(order_fits) == 1  # only the final conditional fit
    assert result.params.consensus_order == astar(compute_stats(first)).params.consensus_order


def test_theta_memo_has_a_fixed_size():
    size = fitting._theta_cost.cache_info().maxsize
    assert size is not None
    fitting._theta_cost.cache_clear()
    profile = (1, 2)  # judges' lengths 2, 2 and 1
    for k in range(size + 10):
        fitting._theta_cost(0.01 * k, profile, 4.0)
    assert fitting._theta_cost.cache_info().currsize == size
    fitting._theta_cost.cache_clear()


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


def test_fv_never_beats_exact():
    rng = np.random.default_rng(34)
    for _ in range(10):
        ds = random_dataset(rng)
        stats = compute_stats(ds)
        approx = fv(stats, ds)
        exact = astar(stats)
        assert approx.f_value >= exact.f_value - 1e-10
