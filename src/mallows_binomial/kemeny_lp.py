"""LP-relaxation lower bound on the ranking cost at a search node.

At a prefix node the Kendall cost, counted in judges, splits into a fixed
part (pairs whose relative order the prefix settles) and a free part over
the remaining objects. The search keeps the fixed part and the crude free
part (pairwise minima of the win counts W) incrementally; this module's LP
free part solves the Kemeny linear relaxation over the free objects and is
never looser. A small dense simplex with Bland's anti-cycling rule is
embedded so bounds are exact and bit-deterministic.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np


class SimplexError(RuntimeError):
    """Raised when the simplex exceeds its pivot budget."""


@dataclass(frozen=True)
class PairLP:
    """Kemeny relaxation over free objects, after eliminating x_vu = 1 - x_uv.

    One variable y_e per unordered pair e = (u, v) with u < v, meaning
    "u precedes v". Constraints: 0 <= y_e <= 1 and, per object triple,
    0 <= y_ab + y_bc - y_ac <= 1 (both cyclic orientations of the triangle
    inequality). The objective constant collects the W mass on canonical
    orientations so the LP optimum is the full free-pair cost.
    """

    pairs: tuple[tuple[int, int], ...]
    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    constant: float


@lru_cache(maxsize=64)
def _pair_lp_layout(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the free list of each pair's two objects, and the pair
    indices of ab, bd and ad of each triple a < b < d, both in combinations
    order: O(k^3) ints per free-set size, built once."""
    ends = np.array(list(combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2)
    pair = np.zeros((k, k), dtype=np.intp)
    pair[ends[:, 0], ends[:, 1]] = np.arange(len(ends))
    triples = np.array(list(combinations(range(k), 3)), dtype=np.intp).reshape(-1, 3)
    triangles = pair[triples[:, [0, 1, 0]], triples[:, [1, 2, 2]]]
    for array in (ends, triangles):
        array.setflags(write=False)
    return ends, triangles


def build_pair_lp(W: np.ndarray, free: Sequence[int]) -> PairLP:
    """Assemble the free-pair Kemeny LP for the given free objects, W[u, v]
    the cost of ordering v before u."""
    free = list(free)
    ends, triangles = _pair_lp_layout(len(free))
    u, v = np.array(free, dtype=np.intp)[ends].T
    n, t = len(ends), len(triangles)
    # pair cost: W_uv + (W_vu - W_uv) * y_uv; the constant sums W_uv left to right
    c = W[v, u] - W[u, v]
    constant = np.add.accumulate(np.concatenate(([0.0], W[u, v])))[-1]
    row = np.zeros((t, n))
    row[np.arange(t)[:, None], triangles] = [1.0, 1.0, -1.0]  # y_ab + y_bd - y_ad <= 1
    A = np.concatenate((np.eye(n), np.stack((row, -row), axis=1).reshape(2 * t, n)))  # and >= 0
    b = np.concatenate((np.ones(n), np.tile([1.0, 0.0], t)))
    return PairLP(pairs=tuple(combinations(free, 2)), c=c, A_ub=A, b_ub=b, constant=constant)


def solve_dense_lp(program: PairLP, max_pivots: int | None = None) -> tuple[float, np.ndarray]:
    """Minimize the pair LP by dense primal simplex with Bland's rule.

    The origin is feasible by construction (all right-hand sides are
    non-negative), so no phase-1 is needed. Returns the optimum including the
    program constant and the y vector. Raises SimplexError past the pivot
    budget. Elimination skips the rows whose entering entry is zero, because
    x - 0 * y can turn a -0.0 into 0.0.
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
    T[np.arange(m), np.arange(n, n + m)] = 1.0
    T[:m, -1] = program.b_ub
    T[m, :n] = program.c
    basis = np.arange(n, n + m)
    tol = 1e-11
    for pivot_count in range(max_pivots + 1):
        negative = T[m, :n + m] < -tol
        entering = int(negative.argmax())  # Bland: smallest index with negative reduced cost
        if not negative[entering]:
            y = np.zeros(n)
            structural = basis < n
            y[basis[structural]] = T[:m, -1][structural]
            return float(program.constant - T[m, -1]), y
        col = T[:m, entering]
        candidates = (col > tol).nonzero()[0]
        if candidates.size == 0:
            raise SimplexError("unbounded pair LP (cannot happen for valid programs)")
        ratios = T[candidates, -1] / col[candidates]
        ties = candidates[ratios == ratios.min()]  # min ratio, ties by smallest basis variable index
        leave = int(ties[basis[ties].argmin()])
        T[leave, :] /= T[leave, entering]
        rows = T[:, entering].nonzero()[0]
        rows = rows[rows != leave]
        T[rows] -= T[rows, entering, None] * T[leave]
        basis[leave] = entering
    raise SimplexError(f"pivot budget exceeded after {max_pivots} pivots")


def lp_free_cost(W: np.ndarray, free: Sequence[int], crude_free: float) -> float:
    """LP free-pair cost, clamped from below by the crude free cost (both are
    valid lower bounds). Falls back to the crude cost with a warning if the
    simplex hits its pivot budget."""
    program = build_pair_lp(W, free)
    try:
        lp_free, _ = solve_dense_lp(program)
    except SimplexError as err:
        warnings.warn(f"pair LP did not converge ({err}); using crude bound", RuntimeWarning)
        return float(crude_free)
    return max(lp_free, float(crude_free))
