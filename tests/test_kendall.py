import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from conftest import pairwise_distance_oracle
from mallows_binomial import Dataset
from mallows_binomial.kendall import (
    adjacent_neighbors,
    average_ranks,
    distance,
    v_decompose,
)


def test_distance_identity():
    assert distance((0, 1, 2), (0, 1, 2)) == 0


def test_distance_full_reversal():
    assert distance((2, 1, 0), (0, 1, 2)) == 3


def test_distance_top1_partial():
    # only the pair (object0, object1) is discordant; (object0, object2) is incomparable
    assert distance((1,), (0, 1, 2)) == 1


def test_distance_rejects_mismatched_objects():
    with pytest.raises(ValueError):
        distance((0, 5), (0, 1, 2))
    with pytest.raises(ValueError):
        distance((0, 0), (0, 1, 2))


def test_v_decompose_single_swap():
    assert v_decompose((1, 0, 2), (0, 1, 2)).tolist() == [1, 0, 0]


def test_v_decompose_identity_is_zero():
    assert v_decompose((0, 1, 2, 3), (0, 1, 2, 3)).tolist() == [0, 0, 0, 0]


def test_v_decompose_matches_pairwise_count_exhaustively():
    for J in (2, 3, 4):
        for order in itertools.permutations(range(J)):
            for R in range(1, J + 1):
                for pi in itertools.permutations(range(J), R):
                    v = v_decompose(pi, order)
                    assert all(0 <= v[j] <= J - j - 1 for j in range(R))
                    assert v.sum() == pairwise_distance_oracle(pi, order)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_v_decompose_matches_pairwise_count_random(data):
    J = data.draw(st.integers(2, 6))
    R = data.draw(st.integers(1, J))
    order = tuple(data.draw(st.permutations(range(J))))
    pi = tuple(data.draw(st.permutations(range(J)))[:R])
    d = distance(pi, order)
    assert d == pairwise_distance_oracle(pi, order)
    assert 0 <= d <= R * J - R * (R + 1) // 2  # the most pairs a top-R ranking can invert


def test_symmetry_for_complete_rankings():
    for J in (2, 3, 4):
        for a in itertools.permutations(range(J)):
            for b in itertools.permutations(range(J)):
                assert distance(a, b) == distance(b, a)


def test_triangle_inequality_complete():
    perms = list(itertools.permutations(range(4)))
    for a in perms[:8]:
        for b in perms:
            for c in perms[::5]:
                assert distance(a, c) <= distance(a, b) + distance(b, c)


def test_adjacent_neighbors_pair():
    assert adjacent_neighbors((0, 1)) == [(1, 0)]


def test_adjacent_neighbors_triple():
    assert set(adjacent_neighbors((0, 1, 2))) == {(1, 0, 2), (0, 2, 1)}


@given(st.permutations(range(5)))
@settings(max_examples=50, deadline=None)
def test_adjacent_neighbors_have_distance_one(order):
    order = tuple(order)
    neighbors = adjacent_neighbors(order)
    assert len(neighbors) == len(order) - 1
    for n in neighbors:
        assert distance(n, order) == 1


def test_average_ranks_complete_single_judge():
    ds = Dataset(J=3, M=1, scores=np.full((1, 3), np.nan), rankings=((0, 1, 2),))
    from_rankings, from_scores = average_ranks(ds)
    assert from_rankings.tolist() == [1, 2, 3]
    assert from_scores is None


def test_average_ranks_top1_midpoint():
    ds = Dataset(J=3, M=1, scores=np.full((1, 3), np.nan), rankings=((1,),))
    from_rankings, _ = average_ranks(ds)
    assert from_rankings.tolist() == [2.5, 1.0, 2.5]


def test_average_ranks_from_scores_identical_judges():
    scores = np.array([[3.0, 1.0, 1.0, 7.0], [3.0, 1.0, 1.0, 7.0]])
    ds = Dataset(J=4, M=10, scores=scores, rankings=(None, None))
    _, from_scores = average_ranks(ds)
    assert from_scores.tolist() == [3.0, 1.5, 1.5, 4.0]


def test_average_ranks_flags_never_scored_objects():
    scores = np.array([[2.0, np.nan, 4.0]])
    ds = Dataset(J=3, M=10, scores=scores, rankings=(None,))
    from_rankings, from_scores = average_ranks(ds)
    assert from_rankings is None
    assert np.isnan(from_scores[1])
    assert from_scores[0] == 1.0 and from_scores[2] == 2.0


def test_average_ranks_from_scores_are_midranks():
    rng = np.random.default_rng(5)
    scores = rng.integers(0, 4, size=(30, 7)).astype(float)
    scores[rng.random(scores.shape) < 0.2] = np.nan
    ds = Dataset(J=7, M=3, scores=scores, rankings=(None,) * 30)
    _, from_scores = average_ranks(ds)
    total, count = np.zeros(7), np.zeros(7)
    for row in scores:
        observed = np.isfinite(row)
        if observed.any():
            total[observed] += rankdata(row[observed], method="average")
            count[observed] += 1
    expected = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    assert np.array_equal(from_scores, expected, equal_nan=True)
