import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import mallows_binomial.kemeny_lp as klp
from conftest import (
    crude_cost,
    lp_bound,
    min_pair_cost,
    random_dataset,
    reference_build_pair_lp,
    reference_solve_dense_lp,
)
from mallows_binomial import astar, compute_stats
from mallows_binomial.kemeny_lp import SimplexError, build_pair_lp, solve_dense_lp
from mallows_binomial.model import Dataset


def condorcet_stats():
    ds = Dataset(J=3, M=1, scores=np.full((3, 3), np.nan),
                 rankings=((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    return compute_stats(ds)


def random_Q(rng, J):
    wins = rng.uniform(size=(J, J))
    np.fill_diagonal(wins, 0.0)
    scale = rng.uniform(0.5, 1.0)
    Q = wins / (wins + wins.T + 1e-9) * scale
    np.fill_diagonal(Q, 0.0)
    return Q


def test_single_pair_program():
    Q = np.array([[0.0, 0.7], [0.3, 0.0]])
    program = build_pair_lp(Q, [0, 1])
    optimum, y = solve_dense_lp(program)
    assert optimum == pytest.approx(0.3, abs=1e-12)
    assert y[0] == pytest.approx(1.0, abs=1e-12)


def test_zero_matrix_program():
    program = build_pair_lp(np.zeros((4, 4)), [0, 1, 2, 3])
    optimum, _ = solve_dense_lp(program)
    assert optimum == pytest.approx(0.0, abs=1e-12)


def test_condorcet_cycle_lp_value():
    stats = condorcet_stats()
    program = build_pair_lp(stats.W, [0, 1, 2])
    optimum, _ = solve_dense_lp(program)
    assert optimum == pytest.approx(4.0, abs=1e-9)  # 4/3 per judge, in counts of the 3 judges


def test_condorcet_cycle_bounds():
    stats = condorcet_stats()
    # in counts of the 3 judges: 1 and 4/3 per judge
    assert crude_cost(stats, ()) == pytest.approx(3.0, abs=1e-12)
    assert lp_bound(stats, ()) == pytest.approx(4.0, abs=1e-9)
    # every total order of the cycle costs 4 (4/3 per judge), so the LP relaxation is tight here
    costs = []
    for order in itertools.permutations(range(3)):
        pos = {o: r for r, o in enumerate(order)}
        costs.append(sum(stats.W[v, u] for u, v in itertools.permutations(range(3), 2)
                         if pos[u] < pos[v]))
    assert min(costs) == pytest.approx(4.0, abs=1e-12)


def test_unanimous_judges_root_bound_zero():
    ds = Dataset(J=4, M=1, scores=np.full((3, 4), np.nan), rankings=((0, 1, 2, 3),) * 3)
    stats = compute_stats(ds)
    assert lp_bound(stats, ()) == pytest.approx(0.0, abs=1e-12)


def test_solver_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    Q = random_Q(rng, 5)
    program = build_pair_lp(Q, list(range(5)))
    first, y1 = solve_dense_lp(program)
    second, y2 = solve_dense_lp(program)
    assert first == second
    assert np.array_equal(y1, y2)


def test_solver_matches_scipy_linprog():
    rng = np.random.default_rng(11)
    for _ in range(25):
        J = int(rng.integers(3, 7))
        Q = random_Q(rng, J)
        program = build_pair_lp(Q, list(range(J)))
        ours, _ = solve_dense_lp(program)
        ref = linprog(program.c, A_ub=program.A_ub, b_ub=program.b_ub,
                      bounds=[(0, None)] * program.c.size, method="highs")
        assert ref.status == 0
        assert ours == pytest.approx(program.constant + ref.fun, abs=1e-9)


def test_lp_matches_enumeration_on_small_programs():
    # with <= 4 free objects the LP optimum may only drop below the best
    # integer order (it is a relaxation), never exceed it
    rng = np.random.default_rng(21)
    for _ in range(30):
        J = 4
        Q = random_Q(rng, J)
        program = build_pair_lp(Q, list(range(J)))
        ours, _ = solve_dense_lp(program)
        best_order = np.inf
        for order in itertools.permutations(range(J)):
            pos = {o: r for r, o in enumerate(order)}
            cost = sum(Q[v, u] for u, v in itertools.permutations(range(J), 2) if pos[u] < pos[v])
            best_order = min(best_order, cost)
        assert ours <= best_order + 1e-9
        assert ours >= min_pair_cost(Q, range(J)) - 1e-9


def test_crude_never_exceeds_lp():
    rng = np.random.default_rng(8)
    for _ in range(25):
        ds = random_dataset(rng, missing_rankings=0.2)
        stats = compute_stats(ds)
        k = int(rng.integers(0, ds.J))
        prefix = tuple(int(v) for v in rng.permutation(ds.J)[:k])
        assert crude_cost(stats, prefix) <= lp_bound(stats, prefix) + 1e-9


def test_admissibility_chain_exhaustive():
    rng = np.random.default_rng(17)
    for _ in range(5):
        ds = random_dataset(rng, J=4, missing_rankings=0.2)
        stats = compute_stats(ds)
        J = ds.J
        for k in range(0, J):
            for prefix in itertools.permutations(range(J), k):
                crude = crude_cost(stats, prefix)
                lp = lp_bound(stats, prefix)
                exact = np.inf
                free = [o for o in range(J) if o not in prefix]
                for tail in itertools.permutations(free):
                    order = prefix + tail
                    pos = {o: r for r, o in enumerate(order)}
                    cost = sum(stats.W[v, u] for u, v in itertools.permutations(range(J), 2)
                               if pos[u] < pos[v])
                    exact = min(exact, cost)
                assert crude <= lp + 1e-9
                assert lp <= exact + 1e-9


def test_pivot_budget_raises():
    rng = np.random.default_rng(5)
    program = build_pair_lp(random_Q(rng, 5), list(range(5)))
    with pytest.raises(SimplexError):
        solve_dense_lp(program, max_pivots=1)


def test_lp_free_cost_falls_back_to_crude(monkeypatch):
    import mallows_binomial.kemeny_lp as klp

    def explode(program, max_pivots=None):
        raise SimplexError("forced")

    monkeypatch.setattr(klp, "solve_dense_lp", explode)
    rng = np.random.default_rng(5)
    Q = random_Q(rng, 4)
    with pytest.warns(RuntimeWarning, match="crude"):
        value = klp.lp_free_cost(Q, list(range(4)), min_pair_cost(Q, range(4)))
    assert value == pytest.approx(min_pair_cost(Q, range(4)), abs=1e-12)


# The vectorized builder and simplex must do the loop versions' IEEE
# operations on the same operands: the same program bits (signed zeros of the
# negated triangle rows included), optimum bits, y bits and pivot count.

def assert_same_program(program, reference):
    assert program.pairs == reference.pairs
    for name in ("c", "A_ub", "b_ub"):
        ours, ref = getattr(program, name), getattr(reference, name)
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), name
    assert float(program.constant).hex() == float(reference.constant).hex()


def assert_same_solution(Q, free, max_pivots=None):
    """The vectorized build and solve of a program against the reference's:
    both raise SimplexError, or both return the same bits. Returns whether
    they returned."""
    reference = reference_build_pair_lp(Q, free)
    built = build_pair_lp(Q, free)
    assert_same_program(built, reference)
    try:
        expected = reference_solve_dense_lp(reference, max_pivots)
    except SimplexError:
        with pytest.raises(SimplexError):
            solve_dense_lp(built, max_pivots)
        return False
    optimum, y = solve_dense_lp(built, max_pivots)
    assert optimum.hex() == expected[0].hex()
    assert y.tobytes() == expected[1].tobytes()
    return True


def seeded_programs():
    """(Q, free) with k = 3..8 free objects out of k + 2, four kinds of Q
    each: continuous, exact ties (quarters), a Condorcet cycle over ties, and
    zeros."""
    rng = np.random.default_rng(29)
    for k in range(3, 9):
        J = k + 2
        free = sorted(rng.choice(J, size=k, replace=False).tolist())
        ties = rng.integers(0, 5, size=(J, J)) / 4.0
        np.fill_diagonal(ties, 0.0)
        cycle = np.full((J, J), 0.5)
        for i in range(k):
            a, b = free[i], free[(i + 1) % k]
            cycle[a, b], cycle[b, a] = 1.0, 0.0
        np.fill_diagonal(cycle, 0.0)
        for Q in (random_Q(rng, J), ties, cycle, np.zeros((J, J))):
            yield Q, free


def test_solver_matches_reference_bit_for_bit():
    for Q, free in seeded_programs():
        assert assert_same_solution(Q, free)


def test_pivot_budget_matches_reference():
    # The reference needs P pivots: both solvers raise at max_pivots P - 1
    # and both return the same bits at P.
    for Q, free in seeded_programs():
        lo, hi = 0, 10_000  # the reference raises at lo - 1 and succeeds at hi
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                reference_solve_dense_lp(reference_build_pair_lp(Q, free), mid)
                hi = mid
            except SimplexError:
                lo = mid + 1
        if lo > 0:
            assert not assert_same_solution(Q, free, lo - 1)
        assert assert_same_solution(Q, free, lo)


def test_every_search_lp_matches_reference(monkeypatch):
    solved = []
    real = klp.solve_dense_lp

    def recorded(program, max_pivots=None):
        solved.append(program)
        return real(program, max_pivots)

    monkeypatch.setattr(klp, "solve_dense_lp", recorded)
    rng = np.random.default_rng(41)
    for _ in range(20):
        stats = compute_stats(random_dataset(rng, J=int(rng.integers(5, 8))))
        start = len(solved)
        astar(stats, heuristic="lp")
        for program in solved[start:]:
            free = sorted({o for pair in program.pairs for o in pair})
            assert_same_program(program, reference_build_pair_lp(stats.W, free))
            assert assert_same_solution(stats.W, free)
    assert len(solved) > 100
