"""Command-line front end: ingestion, fitting, bootstrap, simulation,
benchmarking, comparison models, and the exact bias demo.

Exit codes: 0 success, 2 input/format error, 3 budget or enumeration cap
exhausted, 4 internal solver failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import inference, search
from .fitting import THETA_FLOOR
from .model import Dataset, Parameters, order_of, sample
from .search import BruteForceCapExceeded, FitResult

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4


class IngestError(ValueError):
    """Malformed input files."""


@dataclass(frozen=True)
class ScoreScale:
    """Affine map between raw scores and canonical integers 0..M.

    Canonical polarity is lower-is-better; raw scales where higher is better
    are reversed on the way in and back on the way out.
    """

    min: float
    max: float
    step: float
    higher_is_better: bool = False

    def __post_init__(self):
        for flag, value in (("--scale-min", self.min), ("--scale-max", self.max), ("--scale-step", self.step)):
            if not np.isfinite(value):
                raise IngestError(f"score scale {flag} must be finite, got {value}")
        if self.step <= 0 or self.max <= self.min:
            raise IngestError("score scale needs step > 0 and max > min")
        span = (self.max - self.min) / self.step
        if abs(span - round(span)) > 1e-9 or round(span) < 1:
            raise IngestError("(max - min) / step must be a positive integer")

    @property
    def M(self) -> int:
        return int(round((self.max - self.min) / self.step))

    def to_integer(self, raw: float, where: str = "") -> int:
        if not self.min - 1e-9 <= raw <= self.max + 1e-9:  # also rejects nan
            raise IngestError(f"score {raw} outside [{self.min}, {self.max}]{where}")
        k = (raw - self.min) / self.step
        if abs(k - round(k)) > 1e-6:
            raise IngestError(f"score {raw} is not on the step-{self.step} lattice{where}")
        k = int(round(k))
        return self.M - k if self.higher_is_better else k

    def to_raw(self, canonical: float) -> float:
        if self.higher_is_better:
            return self.max - self.step * canonical
        return self.min + self.step * canonical

    def expected_raw(self, p: float) -> float:
        """Expected raw score implied by a quality value."""
        return self.to_raw(self.M * p)


def _read_csv(path: str) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh)]
    except OSError as err:
        raise IngestError(f"cannot read {path}: {err}") from err


def ingest(
    scores_path: str | None,
    rankings_path: str | None,
    scale: ScoreScale,
) -> tuple[Dataset, list[str], list[str]]:
    """Load score and ranking CSVs into a canonical Dataset.

    Scores file: header ``judge,<label1>,...,<labelJ>``, one row per judge,
    empty cells missing. Rankings file: header ``judge,rank1,...,rankN``,
    cells hold object labels, trailing empties shorten the ranking, a fully
    empty row means no ranking. Judges are matched across files by id.
    Returns the dataset plus the object labels and judge ids in index order.
    """
    if scores_path is None and rankings_path is None:
        raise IngestError("need at least one of --scores / --rankings")

    labels: list[str] = []
    judge_ids: list[str] = []
    score_rows: dict[str, list[float]] = {}

    if scores_path is not None:
        rows = _read_csv(scores_path)
        if not rows or len(rows[0]) < 2:
            raise IngestError(f"{scores_path}: expected header judge,<labels...>")
        labels = [cell.strip() for cell in rows[0][1:]]
        if len(set(labels)) != len(labels):
            raise IngestError(f"{scores_path}: duplicate object labels in header")
        for r, row in enumerate(rows[1:], start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            judge = row[0].strip()
            if len(row) - 1 != len(labels):
                raise IngestError(f"{scores_path} row {r}: expected {len(labels)} score cells")
            values = []
            for c, cell in enumerate(row[1:], start=2):
                cell = cell.strip()
                if not cell:
                    values.append(np.nan)
                    continue
                try:
                    raw = float(cell)
                except ValueError as err:
                    raise IngestError(f"{scores_path} row {r} column {c}: not a number: {cell!r}") from err
                values.append(float(scale.to_integer(raw, where=f" ({scores_path} row {r} column {c})")))
            if judge in score_rows:
                raise IngestError(f"{scores_path} row {r}: duplicate judge id {judge!r}")
            score_rows[judge] = values
            judge_ids.append(judge)

    ranking_rows: dict[str, tuple[int, ...] | None] = {}
    if rankings_path is not None:
        rows = _read_csv(rankings_path)
        if not rows or len(rows[0]) < 2:
            raise IngestError(f"{rankings_path}: expected header judge,rank1,...")
        if scores_path is None:
            seen = sorted({cell.strip() for row in rows[1:] for cell in row[1:] if cell.strip()})
            labels = seen
        label_index = {lab: i for i, lab in enumerate(labels)}
        for r, row in enumerate(rows[1:], start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            judge = row[0].strip()
            cells = [cell.strip() for cell in row[1:]]
            ranking: list[int] = []
            ended = False
            for c, cell in enumerate(cells, start=2):
                if not cell:
                    ended = True
                    continue
                if ended:
                    raise IngestError(f"{rankings_path} row {r}: ranking has a gap before column {c}")
                if cell not in label_index:
                    raise IngestError(f"{rankings_path} row {r} column {c}: unknown object label {cell!r}")
                ranking.append(label_index[cell])
            if len(set(ranking)) != len(ranking):
                raise IngestError(f"{rankings_path} row {r}: duplicate object in ranking")
            if judge in ranking_rows:
                raise IngestError(f"{rankings_path} row {r}: duplicate judge id {judge!r}")
            ranking_rows[judge] = tuple(ranking) if ranking else None
            if judge not in score_rows:
                judge_ids.append(judge)

    if not labels:
        raise IngestError("no objects found in the input files")
    J = len(labels)
    scores = np.full((len(judge_ids), J), np.nan)
    rankings: list[tuple[int, ...] | None] = []
    for i, judge in enumerate(judge_ids):
        if judge in score_rows:
            scores[i] = score_rows[judge]
        rankings.append(ranking_rows.get(judge))
    try:
        dataset = Dataset(J=J, M=scale.M, scores=scores, rankings=tuple(rankings))
    except ValueError as err:
        raise IngestError(str(err)) from err
    return dataset, labels, judge_ids


def _dump_json(doc, out: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _params_doc(result: FitResult, labels: list[str], scale: ScoreScale) -> dict:
    """The fitted-parameter fields of every fit and bootstrap document."""
    params = result.params
    return {
        "labels": labels,
        "method": result.algorithm,
        "p": [float(v) for v in params.p],
        "expected_score": [scale.expected_raw(float(v)) for v in params.p],
        "consensus_order": [labels[j] for j in params.consensus_order],
        "theta": None if params.theta is None else float(params.theta),
        "f_value": float(result.f_value),
    }


def _fit_doc(result: FitResult, labels: list[str], scale: ScoreScale, dataset: Dataset) -> dict:
    return {
        **_params_doc(result, labels, scale),
        "J": dataset.J,
        "M": dataset.M,
        "I": dataset.I,
        "theta_flag": result.theta_flag,
        "theta_at_cap": result.params.theta_at_cap,
        "nodes_expanded": result.nodes_expanded,
        "candidate_evaluations": result.candidate_evaluations,
        "elapsed_seconds": result.elapsed,
        "non_identified": [labels[j] for j in result.non_identified],
        "optimal": result.optimal,
        "budget_exhausted": result.budget_exhausted,
    }


# Range checks on the run options, in the order they are reported; each runs
# only for a command that has the option, whose default argparse holds.
_RUN_OPTION_CHECKS = (
    ("jobs", lambda v: v >= 1, "--jobs must be at least 1"),
    ("B", lambda v: v >= 1, "--B must be at least 1"),
    ("level", lambda v: 0 < v < 1, "--level must lie strictly between 0 and 1"),
    ("theta_max", lambda v: v is None or THETA_FLOOR < v < np.inf,
     f"--theta-max must be positive and finite, above the scale floor {THETA_FLOOR}"),
    ("node_budget", lambda v: v >= 1, "--node-budget and --candidate-cap must be positive"),
    ("candidate_cap", lambda v: v >= 1, "--node-budget and --candidate-cap must be positive"),
    ("seed", lambda v: v >= 0, "--seed must be non-negative"),
    ("trials", lambda v: v >= 1, "--trials must be at least 1"),
)


def _check_run_options(args):
    options = vars(args)
    for name, valid, message in _RUN_OPTION_CHECKS:
        if name in options and not valid(options[name]):
            raise IngestError(message)


def _ingest_args(args) -> tuple[ScoreScale, Dataset, list[str]]:
    scale = ScoreScale(args.scale_min, args.scale_max, args.scale_step, args.higher_is_better)
    dataset, labels, _ = ingest(args.scores, args.rankings, scale)
    return scale, dataset, labels


def cmd_fit(args) -> int:
    scale, dataset, labels = _ingest_args(args)
    result = inference.fit_method(
        dataset, args.method,
        theta_max=args.theta_max, node_budget=args.node_budget,
        candidate_cap=args.candidate_cap, rng=np.random.default_rng(args.seed),
    )
    _dump_json(_fit_doc(result, labels, scale, dataset), args.out)
    return EXIT_BUDGET if result.budget_exhausted else EXIT_OK


def _rank_csv_rows(labels, summary) -> list[list]:
    points = summary.point.params.rank_places()
    rows = [["object", "point_rank", "lower", "upper"]]
    for j, label in enumerate(labels):
        rows.append([label, int(points[j]), int(summary.rank_intervals[j, 0]),
                     int(summary.rank_intervals[j, 1])])
    return rows


def _bootstrap(args, dataset: Dataset, method: str):
    return inference.bootstrap(
        dataset, method, B=args.B, level=args.level, seed=args.seed,
        theta_max=args.theta_max, node_budget=args.node_budget,
        candidate_cap=args.candidate_cap, n_jobs=args.jobs,
    )


def _bootstrap_doc(summary, labels, scale) -> dict:
    return {
        **_params_doc(summary.point, labels, scale),
        "B": summary.B,
        "level": summary.level,
        "p_intervals": [[float(a), float(b)] for a, b in summary.p_intervals],
        "point_rank": [int(r) for r in summary.point.params.rank_places()],
        "rank_intervals": [[int(a), int(b)] for a, b in summary.rank_intervals],
        "theta_interval": None if summary.theta_interval is None else list(summary.theta_interval),
        "theta_cap_proportion": summary.theta_cap_proportion,
        "theta_undefined_count": summary.theta_undefined_count,
        "n_failed": summary.n_failed,
    }


def cmd_bootstrap(args) -> int:
    if not args.out:
        raise IngestError("bootstrap requires --out (JSON path; rank CSV lands beside it)")
    scale, dataset, labels = _ingest_args(args)
    summary = _bootstrap(args, dataset, args.method)
    _dump_json(_bootstrap_doc(summary, labels, scale), args.out)
    csv_path = Path(args.out).with_suffix(Path(args.out).suffix + ".ranks.csv")
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(_rank_csv_rows(labels, summary))
    return EXIT_BUDGET if summary.point.budget_exhausted else EXIT_OK


def cmd_simulate(args) -> int:
    if args.R > args.J:
        raise IngestError("--R cannot exceed --J")
    rng = np.random.default_rng(args.seed)
    if args.p == "uniform":
        p = rng.uniform(size=args.J)
    else:
        p = np.array([float(v) for v in args.p.split(",")])
        if p.size != args.J:
            raise IngestError("--p length must equal --J")
        if np.any(p < 0) or np.any(p > 1):
            raise IngestError("--p entries must lie in [0, 1]")
    truth = Parameters(p=p, theta=args.theta, consensus_order=order_of(p))
    dataset = sample(truth, args.I, args.M, args.R, rng)
    labels = [f"o{j + 1}" for j in range(args.J)]
    judges = [f"j{i + 1}" for i in range(args.I)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["judge"] + labels)
        for judge, row in zip(judges, dataset.scores):
            writer.writerow([judge] + [int(v) for v in row])
    with open(out_dir / "rankings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["judge"] + [f"rank{r + 1}" for r in range(args.R)])
        for judge, ranking in zip(judges, dataset.rankings):
            cells = [labels[j] for j in ranking] if ranking else []
            writer.writerow([judge] + cells + [""] * (args.R - len(cells)))
    _dump_json(
        {
            "I": args.I, "J": args.J, "R": args.R, "M": args.M, "seed": args.seed,
            "theta": args.theta,
            "p": [float(v) for v in truth.p],
            "consensus_order": [labels[j] for j in truth.consensus_order],
        },
        str(out_dir / "truth.json"),
    )
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


BENCHMARK_COLUMNS = [
    "I", "M", "J", "R", "theta", "trial", "algorithm", "seconds",
    "nodes_expanded", "candidate_evaluations", "f_value", "exact_match",
    "kendall_to_reference", "budget_exhausted",
]


def cmd_benchmark(args) -> int:
    if not args.out:
        raise IngestError("benchmark requires --out (CSV path)")
    grid = (_int_list(args.grid_I), _int_list(args.grid_M), _int_list(args.grid_J), _int_list(args.grid_R),
            _float_list(args.grid_theta))
    if not inference.grid_cells(*grid):
        raise IngestError("--grid-I, --grid-M, --grid-J, --grid-R and --grid-theta give no cell with R <= J")
    rows = inference.benchmark_grid(
        *grid,
        trials=args.trials,
        algorithms=tuple(args.algorithms.split(",")),
        seed=args.seed,
        theta_max=args.theta_max,
        node_budget=args.node_budget,
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCHMARK_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return EXIT_OK


def cmd_compare(args) -> int:
    scale, dataset, labels = _ingest_args(args)
    models = ["mallows-binomial"] + list(inference.COMPARISON_MODELS)
    doc = {"labels": labels, "B": args.B, "level": args.level, "models": {}}
    for model in models:
        try:
            summary = _bootstrap(args, dataset, args.method if model == "mallows-binomial" else model)
        except ValueError as err:
            doc["models"][model] = {"error": str(err)}
            continue
        fields = _bootstrap_doc(summary, labels, scale)
        keys = ["point_rank", "rank_intervals", "consensus_order", "n_failed"]
        identified = len(summary.point.non_identified) < dataset.J
        if model not in ("converted-rankings", "only-rankings") and identified:
            keys += ["p", "p_intervals", "expected_score"]
        if fields["theta"] is not None:
            keys += ["theta", "theta_interval", "theta_cap_proportion"]
        doc["models"][model] = {key: fields[key] for key in keys}
    _dump_json(doc, args.out)
    return EXIT_OK


def cmd_bias_demo(args) -> int:
    p0 = [float(v) for v in args.p0.split(",")]
    J = len(p0)
    table = inference.bias_enumeration(
        p0, args.theta0, M=args.M, J=J, R=J if args.R is None else args.R,
        theta_max=50.0 if args.theta_max is None else args.theta_max,
    )
    print(f"exact bias over {table.n_outcomes} outcomes "
          f"(M={table.M}, J={table.J}, R={table.R}, theta0={table.theta0})")
    print(f"{'object':>8} {'p0':>8} {'E[p_hat]':>10} {'bias':>10}")
    for j in range(J):
        print(f"{j + 1:>8} {table.p0[j]:>8.4f} {table.expected_p[j]:>10.4f} {table.bias[j]:>10.4f}")
    print(f"P(theta_hat at cap) = {table.theta_cap_probability:.6f}")
    print(f"total outcome probability = {table.total_probability:.12f}")
    if args.out:
        _dump_json(
            {
                "p0": list(table.p0), "theta0": table.theta0, "M": table.M,
                "J": table.J, "R": table.R,
                "expected_p": list(table.expected_p), "bias": list(table.bias),
                "theta_cap_probability": table.theta_cap_probability,
                "total_probability": table.total_probability,
                "n_outcomes": table.n_outcomes,
            },
            args.out,
        )
    return EXIT_OK


def _add_fit_flags(sub, *, resampled=False):
    """Data, score-scale and run flags of fit; resampled adds bootstrap's."""
    sub.add_argument("--scores", default=None)
    sub.add_argument("--rankings", default=None)
    sub.add_argument("--scale-min", type=float, default=0.0)
    sub.add_argument("--scale-max", type=float, required=True)
    sub.add_argument("--scale-step", type=float, default=1.0)
    sub.add_argument("--higher-is-better", action="store_true")
    sub.add_argument("--method", default="exact-crude", choices=list(inference.CORE_METHODS))
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--theta-max", type=float, default=None)
    sub.add_argument("--node-budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    sub.add_argument("--candidate-cap", type=int, default=search.DEFAULT_CANDIDATE_CAP)
    sub.add_argument("--out", default=None)
    if resampled:
        sub.add_argument("--B", type=int, default=200)
        sub.add_argument("--level", type=float, default=0.90)
        sub.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mallows-binomial",
        description="Consensus fitting for panels of integer scores and top-R partial rankings",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="point fit")
    _add_fit_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_boot = subs.add_parser("bootstrap", help="bootstrap intervals for p, theta, and rank places")
    _add_fit_flags(p_boot, resampled=True)
    p_boot.set_defaults(func=cmd_bootstrap)

    p_sim = subs.add_parser("simulate", help="write a synthetic panel in the ingest format")
    p_sim.add_argument("--I", type=int, required=True)
    p_sim.add_argument("--J", type=int, required=True)
    p_sim.add_argument("--R", type=int, required=True)
    p_sim.add_argument("--M", type=int, required=True)
    p_sim.add_argument("--theta", type=float, required=True)
    p_sim.add_argument("--p", default="uniform")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = subs.add_parser("benchmark", help="speed/accuracy grid")
    p_bench.add_argument("--grid-I", default="5,20")
    p_bench.add_argument("--grid-M", default="10")
    p_bench.add_argument("--grid-J", default="4,5,6")
    p_bench.add_argument("--grid-R", default="2,4,6")
    p_bench.add_argument("--grid-theta", default="1,2,3")
    p_bench.add_argument("--trials", type=int, default=5)
    p_bench.add_argument("--algorithms", default="exact-crude,exact-lp,fv,greedy,greedy-local")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--theta-max", type=float, default=None)
    p_bench.add_argument("--node-budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_benchmark)

    p_cmp = subs.add_parser("compare", help="joint model plus the four conversion baselines")
    _add_fit_flags(p_cmp, resampled=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_bias = subs.add_parser("bias-demo", help="exact single-judge bias enumeration")
    p_bias.add_argument("--p0", default="0.1,0.4,0.9")
    p_bias.add_argument("--theta0", type=float, default=1.0)
    p_bias.add_argument("--M", type=int, default=1)
    p_bias.add_argument("--R", type=int, default=None)
    p_bias.add_argument("--theta-max", type=float, default=None)
    p_bias.add_argument("--out", default=None)
    p_bias.set_defaults(func=cmd_bias_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_run_options(args)
        return args.func(args)
    except BruteForceCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # noqa: BLE001 - surfaced as the internal-failure exit code
        traceback.print_exc()
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
