"""LP-relaxation lower bound on the ranking cost at a search node.

At a prefix node the mean Kendall cost splits into a fixed part (pairs whose
relative order the prefix settles) and a free part over the remaining
objects. The search keeps the fixed part and the crude free part (pairwise
minima of the preference matrix) incrementally; this module's LP free part
solves the Kemeny linear relaxation over the free objects and is never
looser. A small dense simplex with Bland's anti-cycling rule is
embedded so bounds are exact and bit-deterministic.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
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
    inequality). The objective constant collects the Q mass on canonical
    orientations so the LP optimum is the full free-pair cost.
    """

    pairs: tuple[tuple[int, int], ...]
    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    constant: float


def build_pair_lp(Q: np.ndarray, free: Sequence[int]) -> PairLP:
    """Assemble the free-pair Kemeny LP for the given free objects."""
    free = list(free)
    pairs = list(combinations(free, 2))
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
    for a, b, d in combinations(free, 3):
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


def solve_dense_lp(program: PairLP, max_pivots: int | None = None) -> tuple[float, np.ndarray]:
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


def lp_free_cost(Q: np.ndarray, free: Sequence[int], crude_free: float) -> float:
    """LP free-pair cost, clamped from below by the crude free cost (both are
    valid lower bounds). Falls back to the crude cost with a warning if the
    simplex hits its pivot budget."""
    program = build_pair_lp(Q, free)
    try:
        lp_free, _ = solve_dense_lp(program)
    except SimplexError as err:
        warnings.warn(f"pair LP did not converge ({err}); using crude bound", RuntimeWarning)
        return float(crude_free)
    return max(lp_free, float(crude_free))
