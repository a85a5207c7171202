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
from typing import NamedTuple, Sequence

import numpy as np

from . import kendall
from .special import gammaln, xlog1py, xlogy

Ranking = tuple[int, ...]


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
            ranking = tuple(int(o) for o in ranking)
            if len(set(ranking)) != len(ranking):
                raise ValueError(f"judge {i}: ranking contains duplicates")
            if any(not 0 <= o < self.J for o in ranking):
                raise ValueError(f"judge {i}: ranking references objects outside [0, J)")
            rankings.append(ranking)
        if len(rankings) != scores.shape[0]:
            raise ValueError("rankings and scores disagree on the number of judges")
        if not observed.any() and all(r is None for r in rankings):
            raise ValueError("dataset holds neither scores nor rankings")
        object.__setattr__(self, "scores", _frozen_array(scores))
        object.__setattr__(self, "rankings", tuple(rankings))

    @property
    def I(self) -> int:
        return self.scores.shape[0]

    @cached_property
    def _judge_table(self) -> "_JudgeTable":
        """Per-judge rows compute_stats weights: built once per panel, O(I*J)."""
        observed = ~np.isnan(self.scores)
        rankers, positions = [], []
        for i, ranking in enumerate(self.rankings):
            if ranking is not None:
                # Unranked objects share position J: below every ranked one, tied among themselves.
                row = [self.J] * self.J
                for place, obj in enumerate(ranking):
                    row[obj] = place
                rankers.append(i)
                positions.append(row)
        return _JudgeTable(
            observed=observed.astype(float),
            filled=np.where(observed, self.scores, 0.0),
            rankers=np.array(rankers, dtype=int),
            positions=np.array(positions, dtype=int).reshape(len(rankers), self.J),
            lengths=np.array([0 if r is None else len(r) for r in self.rankings], dtype=int),
        )


class _JudgeTable(NamedTuple):
    observed: np.ndarray   # (I, J) 1.0 where a score is observed
    filled: np.ndarray     # (I, J) scores with missing cells set to 0
    rankers: np.ndarray    # indices of the judges that rank
    positions: np.ndarray  # (n_rankers, J) place of each object, J when unranked
    lengths: np.ndarray    # (I,) ranking length, 0 without a ranking


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
        p = np.asarray(self.p, dtype=float)
        if not np.all((p >= 0) & (p <= 1)):  # NaN fails both tests
            raise ValueError("quality values must lie in [0, 1]")
        order = tuple(int(o) for o in self.consensus_order)
        if sorted(order) != list(range(p.size)):
            raise ValueError("consensus_order is not a permutation of the objects")
        sorted_p = p[list(order)]
        if np.any(np.diff(sorted_p) < -1e-12):
            raise ValueError("p is not non-decreasing along consensus_order")
        if self.theta is not None and not 0 < self.theta < np.inf:
            raise ValueError("theta must be positive and finite")
        object.__setattr__(self, "p", _frozen_array(p))
        object.__setattr__(self, "consensus_order", order)

    @property
    def J(self) -> int:
        return self.p.size

    def rank_places(self) -> np.ndarray:
        """1-based rank place of each object under the consensus order."""
        places = np.empty(self.J, dtype=int)
        for pos, obj in enumerate(self.consensus_order):
            places[obj] = pos + 1
        return places


@dataclass(frozen=True)
class SufficientStats:
    """Aggregates that determine the joint likelihood.

    M is the panel's score scale: scores are Binomial(M, p_j), and every fit
    reads M from here. mean_score and score_count summarize observed cells
    per object; Q[u, v] is the fraction of ranking-providing judges placing u
    strictly above v. length_profile is the multiset of ranking lengths, all
    the scale part reads of the rankings besides Q: entry R-1 counts the
    judges ranking exactly R objects, and n_rankers is its sum.

    The score view the p fits read is derived once, at construction: per
    object q = mean/M and its isotonic weight count*M (Python floats), the
    observed flags, the observed objects sorted by (q, j), the unobserved
    objects in index order, and the Binomial weights a = count*mean and
    b = count*(M - mean), zero where unobserved. binomial_terms holds, per
    object, its Binomial term at each p value the fits have met; the fitting
    module fills it.
    """

    J: int
    M: int
    mean_score: np.ndarray
    score_count: np.ndarray
    Q: np.ndarray
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
        profile = tuple(int(c) for c in self.length_profile)
        if len(profile) != self.J or min(profile, default=0) < 0:
            raise ValueError(f"length_profile must hold {self.J} non-negative counts, got {self.length_profile}")
        object.__setattr__(self, "length_profile", profile)
        object.__setattr__(self, "n_rankers", sum(profile))
        mean, count = _frozen_array(self.mean_score), _frozen_array(self.score_count)
        object.__setattr__(self, "mean_score", mean)
        object.__setattr__(self, "score_count", count)
        object.__setattr__(self, "Q", _frozen_array(self.Q))
        seen = count > 0
        q = tuple(np.where(seen, mean / self.M, 0.0).tolist())
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "q_weight", tuple((count * self.M).tolist()))
        object.__setattr__(self, "observed", tuple(seen.tolist()))
        # a stable sort of ascending indices: ties in q keep j order
        object.__setattr__(self, "by_q", tuple(sorted(np.flatnonzero(seen).tolist(), key=q.__getitem__)))
        object.__setattr__(self, "unobserved", tuple(np.flatnonzero(~seen).tolist()))
        object.__setattr__(self, "a", _frozen_array(count * np.where(seen, mean, 0.0)))
        object.__setattr__(self, "b", _frozen_array(count * np.where(seen, self.M - mean, 0.0)))
        object.__setattr__(self, "binomial_terms", tuple({} for _ in range(self.J)))


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
    preference matrix Q.

    Q's numerator counts judges whose ranking strictly implies u above v
    (unranked objects sit below all ranked ones; unranked pairs contribute
    nothing); the denominator is the number of ranking-providing judges.

    judges, when given, selects the panel made of those judge rows, repeats
    included (a bootstrap resample): each judge's row enters weighted by how
    often it is drawn. Every sum is of integer-valued floats, so the result
    is bitwise that of the Dataset built from those rows. The per-judge rows
    are cached on the dataset at the first call; they hold O(I*J) numbers.
    """
    J, I, table = dataset.J, dataset.I, dataset._judge_table
    rows = np.arange(I) if judges is None else np.asarray(judges, dtype=int).reshape(-1)
    if rows.size and not (0 <= rows.min() and rows.max() < I):
        raise ValueError(f"judge indices must lie in [0, {I})")
    weights = np.bincount(rows, minlength=I).astype(float)
    count = weights @ table.observed
    sums = weights @ table.filled
    with np.errstate(invalid="ignore"):
        mean = np.where(count > 0, sums / np.maximum(count, 1), np.nan)
    ranker_weights = weights[table.rankers]
    drawn = ranker_weights > 0
    positions = table.positions[drawn]
    beats = (positions[:, :, None] < positions[:, None, :]).reshape(len(positions), J * J)
    wins = (ranker_weights[drawn] @ beats).reshape(J, J)
    n_rankers = int(ranker_weights.sum())
    if not count.any() and not n_rankers:
        raise ValueError("dataset holds neither scores nor rankings")
    Q = wins / n_rankers if n_rankers else wins
    return SufficientStats(
        J=J,
        M=dataset.M,
        mean_score=mean,
        score_count=count,
        Q=Q,
        length_profile=tuple(np.bincount(table.lengths[rows], minlength=J + 1)[1:].tolist()),
    )
