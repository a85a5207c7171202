"""Core Mallows-Binomial model: domain types, density, normalizing constant
and exact sampling.

A panel consists of I judges assessing J objects. Each judge may supply
integer scores in {0, ..., M} (lower is better, missing cells allowed) and/or
a top-R partial ranking. Scores are Binomial(M, p_j) given the object quality
p_j in [0, 1]; the ranking follows a Mallows distribution whose modal order is
the ascending order of p with concentration theta > 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import kendall
from .special import gammaln, xlog1py, xlogy

Ranking = tuple[int, ...]


class DegenerateDataError(ValueError):
    """A panel the requested fit cannot use: no scores or no rankings where
    the method needs them, or more objects than brute force allows. A
    bootstrap counts a replicate that raises it as failed; any other error
    propagates."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def order_of(p: Sequence[float]) -> Ranking:
    """Ascending order of the quality vector; ties resolved by object index."""
    p = np.asarray(p, dtype=float)
    return tuple(int(j) for j in np.argsort(p, kind="stable"))


@dataclass(frozen=True)
class Dataset:
    """Scores and partial rankings for one panel.

    scores is an (I, J) float array with NaN marking missing cells; rankings
    holds one optional tuple of distinct object indices per judge.
    """

    J: int
    M: int
    scores: np.ndarray
    rankings: tuple[Ranking | None, ...]

    def __post_init__(self):
        _check_scale(self.M)
        scores = np.atleast_2d(np.asarray(self.scores, dtype=float))
        if scores.shape[1] != self.J:
            raise ValueError(f"scores have {scores.shape[1]} columns, expected J={self.J}")
        observed = ~np.isnan(scores)  # an infinite score is out of range, not missing
        vals = scores[observed]
        if vals.size and (np.any(vals < 0) or np.any(vals > self.M) or np.any(vals != np.round(vals))):
            raise ValueError(f"scores must be integers in [0, {self.M}]")
        rankings = []
        for i, ranking in enumerate(self.rankings):
            if ranking is None or len(ranking) == 0:
                rankings.append(None)
                continue
            ranking = tuple(map(int, ranking))
            if len(set(ranking)) != len(ranking):
                raise ValueError(f"judge {i}: ranking contains duplicates")
            if min(ranking) < 0 or max(ranking) >= self.J:
                raise ValueError(f"judge {i}: ranking references objects outside [0, J)")
            rankings.append(ranking)
        if len(rankings) != scores.shape[0]:
            raise ValueError("rankings and scores disagree on the number of judges")
        if not observed.any() and all(r is None for r in rankings):
            raise DegenerateDataError("dataset holds neither scores nor rankings")
        object.__setattr__(self, "scores", _frozen_array(scores))
        object.__setattr__(self, "rankings", tuple(rankings))

    @property
    def I(self) -> int:
        return self.scores.shape[0]

    @cached_property
    def _judge_table(self) -> np.ndarray:
        """The per-judge rows compute_stats weights, built once per panel as
        one C-contiguous (I, 3J + J*J) float table. Row i holds judge i's
        observed flags, its scores with missing cells 0, a one-hot of its
        ranking length over 1..J, and 1 at 3J + u*J + v where its ranking
        places u strictly above v; a judge without a ranking has 0 in both."""
        I, J = self.I, self.J
        observed = ~np.isnan(self.scores)
        # Unranked objects share position J: below every ranked one, tied among themselves.
        positions, lengths = [[J] * J for _ in range(I)], [0] * I
        for i, ranking in enumerate(self.rankings):
            if ranking is not None:
                for place, obj in enumerate(ranking):
                    positions[i][obj] = place
                lengths[i] = len(ranking)
        positions = np.array(positions)
        one_hot = np.array(lengths)[:, None] == np.arange(1, J + 1)
        beats = (positions[:, :, None] < positions[:, None, :]).reshape(I, J * J)
        return np.hstack([observed, np.where(observed, self.scores, 0.0), one_hot, beats], dtype=float)


@dataclass(frozen=True)
class Parameters:
    """Quality vector p, consensus scale theta, and the consensus order.

    The stored order resolves ties in p; p indexed by the order must be
    non-decreasing. theta is None for score-only fits; theta_at_cap marks the
    degenerate all-rankings-identical fit truncated at the configured cap.
    """

    p: np.ndarray
    theta: float | None
    consensus_order: Ranking
    theta_at_cap: bool = False

    def __post_init__(self):
        p = np.array(self.p, dtype=float)  # a copy: the caller's array is never aliased
        values = p.tolist()  # Python floats: the float64 tests without numpy's per-call cost
        if not all(0 <= v <= 1 for v in values):  # NaN fails both tests
            raise ValueError("quality values must lie in [0, 1]")
        order = tuple(map(int, self.consensus_order))
        if sorted(order) != list(range(p.size)):
            raise ValueError("consensus_order is not a permutation of the objects")
        sorted_p = [values[o] for o in order]
        if any(b - a < -1e-12 for a, b in zip(sorted_p, sorted_p[1:])):  # np.diff's b - a
            raise ValueError("p is not non-decreasing along consensus_order")
        if self.theta is not None and not 0 < self.theta < np.inf:
            raise ValueError("theta must be positive and finite")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "consensus_order", order)

    @property
    def J(self) -> int:
        return self.p.size

    def rank_places(self) -> np.ndarray:
        """1-based rank place of each object under the consensus order."""
        return kendall._positions(self.consensus_order) + 1


@dataclass(frozen=True)
class SufficientStats:
    """Aggregates that determine the joint likelihood.

    M is the panel's score scale: scores are Binomial(M, p_j), and every fit
    reads M from here. mean_score and score_count summarize observed cells
    per object; W[u, v] counts the ranking-providing judges placing u
    strictly above v, an integer-valued float, so every sum of its entries
    is exact in any order; a W that is not a J x J array of such counts
    with a zero diagonal raises ValueError. length_profile is the multiset
    of ranking lengths, all the scale part reads of the rankings besides W:
    entry R-1 counts the judges ranking exactly R objects, and n_rankers is
    its sum.

    The score view the p fits read is derived once, at construction: per
    object q = mean/M and its isotonic weight count*M (Python floats), the
    observed flags, the observed objects sorted by (q, j), the unobserved
    objects in index order, and the Binomial weights a = count*mean and
    b = count*(M - mean), zero where unobserved. mean_score, score_count, a
    and b are the rows of one read-only array built from the caller's
    values, and W a read-only copy, so no field aliases a caller's array.
    binomial_terms holds, per object, its Binomial term at each p value the
    fits have met; the fitting module fills it.
    """

    J: int
    M: int
    mean_score: np.ndarray
    score_count: np.ndarray
    W: np.ndarray
    length_profile: tuple[int, ...]
    n_rankers: int = field(init=False)
    q: tuple[float, ...] = field(init=False, repr=False, compare=False)
    q_weight: tuple[float, ...] = field(init=False, repr=False, compare=False)
    observed: tuple[bool, ...] = field(init=False, repr=False, compare=False)
    by_q: tuple[int, ...] = field(init=False, repr=False, compare=False)
    unobserved: tuple[int, ...] = field(init=False, repr=False, compare=False)
    a: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)
    binomial_terms: tuple[dict[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        J, M = self.J, int(self.M)
        profile = tuple(map(int, self.length_profile))
        if len(profile) != J or min(profile, default=0) < 0:
            raise ValueError(f"length_profile must hold {J} non-negative counts, got {self.length_profile}")
        # Python floats: the IEEE operations numpy would run, without its per-call cost
        means, counts = [float(m) for m in self.mean_score], [float(c) for c in self.score_count]
        if len(means) != J or len(counts) != J:
            raise ValueError(f"mean_score and score_count must hold {J} values each")
        seen, q, a, b = [], [], [], []
        for m, c in zip(means, counts):
            s = c > 0
            seen.append(s)
            q.append(m / M if s else 0.0)
            a.append(c * (m if s else 0.0))
            b.append(c * (M - m if s else 0.0))
        rows = np.array([means, counts, a, b])
        rows.setflags(write=False)
        W = _frozen_array(self.W)
        # Python floats, cheaper than numpy calls at a bootstrap's J: is_integer fails NaN and inf,
        # and flat[::J + 1] is the diagonal
        flat = W.ravel().tolist()
        if W.shape != (J, J) or not all(map(float.is_integer, flat)) or min(flat) < 0 or any(flat[::J + 1]):
            raise ValueError(f"W must be a {J} x {J} array of non-negative integer counts with a zero diagonal")
        # a stable sort of ascending indices: ties in q keep j order
        by_q = sorted([j for j in range(J) if seen[j]], key=q.__getitem__)
        # frozen: every field is written past __setattr__, in one update
        self.__dict__.update(
            length_profile=profile, n_rankers=sum(profile), mean_score=rows[0], score_count=rows[1],
            W=W, q=tuple(q), q_weight=tuple([c * M for c in counts]), observed=tuple(seen),
            by_q=tuple(by_q), unobserved=tuple([j for j in range(J) if not seen[j]]), a=rows[2], b=rows[3],
            binomial_terms=tuple([{} for _ in range(J)]))


def _check_partial_shape(R: int, J: int):
    if not (isinstance(R, (int, np.integer)) and isinstance(J, (int, np.integer))):
        raise TypeError("R and J must be integers")
    if not 1 <= R <= J:
        raise ValueError(f"need 1 <= R <= J, got R={R}, J={J}")


def _check_scale(M: int):
    if not isinstance(M, (int, np.integer)):
        raise TypeError("M must be an integer")
    if M < 1:
        raise ValueError(f"the score scale M must be at least 1, got M={M}")


def log_psi(theta: float, R: int, J: int) -> float:
    """Log normalizing constant of the top-R Mallows model on J objects.

    Evaluated in log space; theta = 0 returns the uniform-limit value
    log(J * (J-1) * ... * (J-R+1)).
    """
    _check_partial_shape(R, J)
    if not theta >= 0:  # NaN included
        raise ValueError("theta must be non-negative")
    if theta == 0:
        return float(gammaln(J + 1) - gammaln(J - R + 1))
    k = np.arange(J, J - R, -1, dtype=float)
    with np.errstate(over="ignore"):  # theta * k = inf near theta = 1e308, where log 1 = 0 is right
        return float(np.sum(np.log(-np.expm1(-theta * k))) - R * np.log(-np.expm1(-theta)))


def psi(theta: float, R: int, J: int) -> float:
    """Normalizing constant of the top-R Mallows model (product form)."""
    return float(np.exp(log_psi(theta, R, J)))


def log_density(scores_row: Sequence[float], ranking: Ranking | None, params: Parameters, M: int) -> float:
    """Log joint density of one judge's scores and optional ranking.

    Missing score cells are skipped; a missing ranking contributes only the
    Binomial terms. Impossible observations at boundary p values (positive
    score with p_j = 0, or score below M with p_j = 1) return -inf.
    """
    row = np.asarray(scores_row, dtype=float)
    if row.size != params.J:
        raise ValueError("score row length does not match parameter dimension")
    observed = ~np.isnan(row)  # an infinite score is out of range, not missing
    total = 0.0
    if observed.any():
        x = row[observed]
        if np.any(x < 0) or np.any(x > M) or np.any(x != np.round(x)):
            raise ValueError(f"scores must be integers in [0, {M}]")
        log_m = gammaln(M + 1)
        terms = [log_m - gammaln(int(k) + 1) - gammaln(M - int(k) + 1) + xlogy(k, q) + xlog1py(M - k, -q)
                 for k, q in zip(x.tolist(), params.p[observed].tolist())]
        total += float(np.sum(terms))
    if ranking is not None and len(ranking) > 0:
        if params.theta is None:
            raise ValueError("ranking present but parameters carry no theta")
        d = kendall.distance(ranking, params.consensus_order)
        total += -params.theta * d - log_psi(params.theta, len(ranking), params.J)
    return total


def sample(params: Parameters, I: int, M: int, R: int, rng) -> Dataset:
    """Draw a panel of I judges with full score rows and top-R rankings.

    Scores are Binomial(M, p_j); the ranking's insertion counts are drawn by
    inverse CDF on truncated geometric weights relative to the consensus
    order. Deterministic given the seeded generator.
    """
    rng = np.random.default_rng(rng)
    J = params.J
    _check_partial_shape(R, J)
    if params.theta is None:
        raise ValueError("sampling requires theta")
    scores = rng.binomial(M, params.p, size=(I, J)).astype(float)
    v = np.empty((I, R), dtype=int)
    for level in range(R):
        width = J - level  # V takes values 0..width-1
        with np.errstate(over="ignore"):  # at a huge theta, -inf: weight 0 past the first place
            weights = np.exp(-params.theta * np.arange(width))
        cum = np.cumsum(weights)
        cum /= cum[-1]
        v[:, level] = np.searchsorted(cum, rng.random(I), side="left")
    rankings = []
    for i in range(I):
        remaining = list(params.consensus_order)
        rankings.append(tuple(remaining.pop(v[i, level]) for level in range(R)))
    return Dataset(J=J, M=M, scores=scores, rankings=tuple(rankings))


def compute_stats(dataset: Dataset, judges: Sequence[int] | None = None) -> SufficientStats:
    """Sufficient statistics: per-object score means/counts and the pairwise
    win counts W.

    W[u, v] counts the judges whose ranking strictly implies u above v
    (unranked objects sit below all ranked ones; unranked pairs contribute
    nothing).

    judges, when given, a 1-D sequence of integer indices in [0, I), selects
    the panel made of those judge rows, repeats included (a bootstrap
    resample): each judge's row enters weighted by how often it is drawn.
    The per-judge rows are cached on the dataset at the first call
    (Dataset._judge_table), so a call is one bincount, one weighted product
    of that table and Python floats. Every sum in the product adds
    integer-valued floats, so it is exact in any order, and the result is
    bitwise that of the Dataset built from those rows, however many rows
    weigh 0.
    """
    J, I, table = dataset.J, dataset.I, dataset._judge_table
    if judges is None:
        weights = np.ones(I)
    else:
        rows = np.asarray(judges)
        if rows.ndim != 1 or rows.size and rows.dtype.kind not in "iu":
            raise ValueError(f"judges must be a 1-D sequence of integer indices, got {judges!r}")
        rows = rows.astype(np.intp, copy=False)
        # one bound test: a negative index reads as a huge unsigned one
        if rows.size and rows.view(np.uintp).max() >= I:
            raise ValueError(f"judge indices must lie in [0, {I})")
        weights = np.bincount(rows, minlength=I).astype(float)
    totals = np.dot(weights, table)
    count, sums, lengths = totals[:3 * J].reshape(3, J).tolist()
    profile = tuple(map(int, lengths))
    n_rankers = sum(profile)
    if not any(count) and not n_rankers:
        raise DegenerateDataError("dataset holds neither scores nor rankings")
    return SufficientStats(
        J=J,
        M=dataset.M,
        mean_score=[s / c if c > 0 else np.nan for s, c in zip(sums, count)],
        score_count=count,
        W=totals[3 * J:].reshape(J, J),
        length_profile=profile,
    )
