"""Seeded panel generator for the benchmark.

Inputs are drawn here, not through the package's own samplers, so a change
to the program cannot change a workload. Every panel is a pair of CSV files
in the package's ingest format plus the scale flags the CLI needs.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Family:
    """One panel family: I judges, J objects, scores on 0..M, top-R
    rankings at Mallows scale theta, each score cell missing with
    probability missing (completely at random)."""

    name: str
    I: int
    J: int
    M: int
    R: int
    theta: float
    missing: float = 0.0


@dataclass(frozen=True)
class Panel:
    family: str
    index: int
    scores: str
    rankings: str
    M: int
    full: bool  # every judge ranks every object
    sha256: str

    def cli_args(self) -> list[str]:
        return ["--scores", self.scores, "--rankings", self.rankings,
                "--scale-min", "0", "--scale-max", str(self.M), "--scale-step", "1"]


def _insertion_counts(rng: np.random.Generator, J: int, R: int, theta: float) -> list[int]:
    """V_1..V_R of a Mallows top-R ranking: V_j takes 0..J-j with weight
    exp(-theta * v), drawn by inverting the truncated-geometric CDF."""
    out = []
    for level in range(R):
        width = J - level
        u = rng.random()
        mass = -math.expm1(-theta * width)
        v = int(math.floor(-math.log1p(-u * mass) / theta))
        out.append(min(v, width - 1))
    return out


def draw(family: Family, rng: np.random.Generator):
    """Scores (NaN = missing) and top-R rankings of one panel."""
    p = rng.uniform(size=family.J)
    consensus = [int(j) for j in np.argsort(p, kind="stable")]
    scores = rng.binomial(family.M, p, size=(family.I, family.J)).astype(float)
    if family.missing:
        scores[rng.random(scores.shape) < family.missing] = np.nan
    rankings = []
    for _ in range(family.I):
        remaining = list(consensus)
        rankings.append([remaining.pop(v) for v in _insertion_counts(rng, family.J, family.R, family.theta)])
    return scores, rankings


def write_panel(family: Family, index: int, rng: np.random.Generator, out_dir: Path) -> Panel:
    scores, rankings = draw(family, rng)
    labels = [f"o{j + 1}" for j in range(family.J)]
    judges = [f"j{i + 1}" for i in range(family.I)]
    stem = out_dir / f"{family.name}-{index:03d}"
    score_path = Path(f"{stem}.scores.csv")
    rank_path = Path(f"{stem}.rankings.csv")
    with open(score_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["judge"] + labels)
        for judge, row in zip(judges, scores):
            writer.writerow([judge] + ["" if math.isnan(v) else str(int(v)) for v in row])
    with open(rank_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["judge"] + [f"rank{r + 1}" for r in range(family.R)])
        for judge, ranking in zip(judges, rankings):
            writer.writerow([judge] + [labels[j] for j in ranking])
    digest = hashlib.sha256(score_path.read_bytes() + b"\0" + rank_path.read_bytes()).hexdigest()
    return Panel(family.name, index, str(score_path), str(rank_path), family.M, family.R == family.J, digest)


def make_panels(families: list[Family], count: int, seed: int, out_dir: Path) -> list[Panel]:
    """count panels, cycling through the families; panel k draws from the
    substream (seed, k), so a longer run only appends panels."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return [write_panel(families[k % len(families)], k, np.random.default_rng([seed, k]), out_dir)
            for k in range(count)]
