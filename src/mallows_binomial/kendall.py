"""Kendall distance for top-R partial rankings and rank-position summaries.

Conventions: a ranking is a sequence of distinct object indices, best first.
A ranking of length R < J is partial; every ranked object is implied to beat
every unranked object, and unranked pairs are incomparable.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import Dataset


def _positions(order: Sequence[int]) -> np.ndarray:
    """Inverse permutation: position of each object in `order`."""
    order = np.asarray(order, dtype=int)
    pos = np.empty(order.size, dtype=int)
    pos[order] = np.arange(order.size)
    return pos


def v_decompose(ranking: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Insertion-count decomposition V_1..V_R of the Kendall distance.

    V_j counts the not-yet-placed objects that `order` prefers to the j-th
    ranked object; each V_j lies in {0, ..., J-j} and sum(V) equals
    distance(ranking, order).
    """
    pos = _positions(order)
    J = pos.size
    ranking = list(ranking)
    if len(set(ranking)) != len(ranking):
        raise ValueError("ranking contains duplicate objects")
    if any(not 0 <= obj < J for obj in ranking):
        raise ValueError("ranking references objects outside [0, J)")
    placed = np.zeros(J, dtype=bool)
    v = np.empty(len(ranking), dtype=int)
    for j, obj in enumerate(ranking):
        p = pos[obj]
        v[j] = p - int(placed[:p].sum())
        placed[p] = True
    return v


def distance(ranking: Sequence[int], order: Sequence[int]) -> int:
    """Number of discordant object pairs between a top-R ranking and a full order."""
    return int(v_decompose(ranking, order).sum())


def adjacent_neighbors(order: Sequence[int]) -> list[tuple[int, ...]]:
    """All J-1 permutations one adjacent transposition away from `order`."""
    order = tuple(order)
    out = []
    for i in range(len(order) - 1):
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        out.append(tuple(swapped))
    return out


def average_ranks(dataset: "Dataset") -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-object average rank positions from rankings and from scores.

    Ranking side: a judge's unranked objects all take the midpoint position
    (R_i + 1 + J) / 2. Score side: each judge's observed scores are converted
    to midranks and averaged per object; objects never scored come back NaN.
    Either component is None when no judge supplies that data type.
    """
    J = dataset.J
    from_rankings = None
    rankers = [r for r in dataset.rankings if r is not None]
    if rankers:
        acc = np.zeros(J)
        for ranking in rankers:
            row = np.full(J, (len(ranking) + 1 + J) / 2.0)
            for pos, obj in enumerate(ranking):
                row[obj] = pos + 1
            acc += row
        from_rankings = acc / len(rankers)

    from_scores = None
    if np.isfinite(dataset.scores).any():
        total = np.zeros(J)
        count = np.zeros(J)
        for row in dataset.scores:
            observed = np.isfinite(row)
            if not observed.any():
                continue
            x = row[observed]
            # midranks: the values below, plus the mean of 1..m over a tie of m
            total[observed] += (x[:, None] > x).sum(1) + ((x[:, None] == x).sum(1) + 1) / 2
            count[observed] += 1
        from_scores = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return from_rankings, from_scores
