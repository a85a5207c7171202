"""Command-line front end: ingestion, fitting, bootstrap, simulation,
benchmarking, comparison models, and the exact bias demo.

Exit codes: 0 success, 2 input/format error or an output that cannot be
written, 3 budget or enumeration cap exhausted, 4 internal solver failure.
"""
from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass
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
    """Malformed input files, bad options, or an output that cannot be
    written: exit 2 with one line."""


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

    def to_integer(self, raw: np.ndarray, missing=False, where=lambda i: "") -> np.ndarray:
        """The canonical integers, as floats, of an array of raw scores, NaN where missing.
        Raises on the first raw score in C order, not missing, outside [min, max] (NaN too)
        or off the step lattice; where(its flat index) ends the message."""
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite scores fail the checks quietly
            in_range = (self.min - 1e-9 <= raw) & (raw <= self.max + 1e-9)
            k = (raw - self.min) / self.step
            nearest = np.rint(k) + 0.0  # + 0.0 turns a -0.0 into 0.0
            bad = ~(in_range & (np.abs(k - nearest) <= 1e-6) | missing)
        if bad.any():
            i = int(np.argmax(bad))
            value = float(raw.flat[i])
            raise IngestError((f"score {value} outside [{self.min}, {self.max}]" if not in_range.flat[i]
                               else f"score {value} is not on the step-{self.step} lattice") + where(i))
        return np.where(missing, np.nan, self.M - nearest if self.higher_is_better else nearest)

    def to_raw(self, canonical: float) -> float:
        if self.higher_is_better:
            return self.max - self.step * canonical
        return self.min + self.step * canonical

    def expected_raw(self, p: float) -> float:
        """Expected raw score implied by a quality value."""
        return self.to_raw(self.M * p)


def _judge_rows(path: str, header: str) -> tuple[list[str], dict[str, tuple[int, list[str]]]]:
    """A judge CSV's header cells after the first, and for each judge id, in
    file order, its row number and the cells after the id; every cell is
    stripped and blank rows are skipped. Raises on a missing header and on a
    judge id that is blank or appears twice."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise IngestError(f"cannot read {path}: {err}") from err
    if not rows or len(rows[0]) < 2:
        raise IngestError(f"{path}: expected header {header}")
    judges: dict[str, tuple[int, list[str]]] = {}
    for r, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        if not cells[0]:
            raise IngestError(f"{path} row {r}: blank judge id")
        if cells[0] in judges:
            raise IngestError(f"{path} row {r}: duplicate judge id {cells[0]!r}")
        judges[cells[0]] = (r, cells[1:])
    return [cell.strip() for cell in rows[0][1:]], judges


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
    score_judges: list[str] = []
    if scores_path is not None:
        labels, judges = _judge_rows(scores_path, "judge,<labels...>")
        if "" in labels:
            raise IngestError(f"{scores_path} column {labels.index('') + 2}: blank object label in header")
        if len(set(labels)) != len(labels):
            raise IngestError(f"{scores_path}: duplicate object labels in header")
        # Rows are read up to a short row or a non-number, raised only once the
        # cells before it pass the scale checks: the first fault in file order wins.
        J, raw, rows, stop = len(labels), [], [], None
        for r, cells in judges.values():
            if len(cells) != J:
                stop = IngestError(f"{scores_path} row {r}: expected {J} score cells")
                break
            try:
                raw.append([float(cell) if cell else np.nan for cell in cells])
            except ValueError:
                for c, cell in enumerate(cells):
                    try:
                        float(cell or 0)
                    except ValueError:
                        break
                stop = IngestError(f"{scores_path} row {r} column {c + 2}: not a number: {cell!r}")
                cells = cells[:c] + [""] * (J - c)
                raw.append([float(cell) if cell else np.nan for cell in cells])
            rows.append((r, cells))
            if stop:
                break
        values = np.array(raw).reshape(len(raw), J)
        missing = np.isnan(values)
        if np.count_nonzero(missing) != sum(cells.count("") for _, cells in rows):  # a cell reads "nan"
            missing = np.array([[not cell for cell in cells] for _, cells in rows]).reshape(values.shape)
        canonical = scale.to_integer(values, missing,
                                     lambda i: f" ({scores_path} row {rows[i // J][0]} column {i % J + 2})")
        if stop:
            raise stop
        score_judges = list(judges)

    ranking_rows: dict[str, tuple[int, ...] | None] = {}
    if rankings_path is not None:
        _, judges = _judge_rows(rankings_path, "judge,rank1,...")
        if scores_path is None:
            labels = sorted({cell for _, cells in judges.values() for cell in cells if cell})
        label_index = {lab: i for i, lab in enumerate(labels)}
        for judge, (r, cells) in judges.items():
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
            ranking_rows[judge] = tuple(ranking) if ranking else None

    if not labels:
        raise IngestError("no objects found in the input files")
    J = len(labels)
    judge_ids = list(dict.fromkeys([*score_judges, *ranking_rows]))  # the scores file's judges first
    scores = np.full((len(judge_ids), J), np.nan)
    if score_judges:
        scores[:len(score_judges)] = canonical
    try:
        dataset = Dataset(J=J, M=scale.M, scores=scores, rankings=tuple(map(ranking_rows.get, judge_ids)))
    except ValueError as err:
        raise IngestError(str(err)) from err
    return dataset, labels, judge_ids


def _write_file(path, write):
    """Open path for writing and pass the file to write; an OSError on the
    way (a missing directory, a directory in the way, no permission) is an
    input error naming the path."""
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as err:
        raise IngestError(f"cannot write {path}: {err}") from err


def _check_writable(path):
    """Raise, before any work, the error that writing path would raise for a
    missing directory or a directory in the way; creates nothing."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(parent) and not os.path.isdir(path):
        return
    try:
        os.stat(parent)  # raises for a missing or unreadable directory on the way
        code = errno.EISDIR if os.path.isdir(path) else errno.ENOTDIR
    except OSError as err:
        code = err.errno
    raise IngestError(f"cannot write {path}: {OSError(code, os.strerror(code), str(path))}")


def _dump_json(doc, out: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
    if out:
        _write_file(out, lambda fh: fh.write(text + "\n"))
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


def _is_quality_list(text: str) -> bool:
    """Whether every comma-separated piece of text, blank ones included, reads
    as a float in [0, 1] (NaN fails)."""
    try:
        return all(0 <= float(v) <= 1 for v in text.split(","))
    except ValueError:
        return False


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
    ("I", lambda v: v >= 1, "--I must be at least 1"),
    ("J", lambda v: v >= 1, "--J must be at least 1"),
    ("R", lambda v: v is None or v >= 1, "--R must be at least 1 (need 1 <= R <= J)"),
    ("M", lambda v: v >= 1, "--M, the score scale, must be at least 1"),
    ("theta", lambda v: 0 < v < np.inf, "--theta must be positive and finite"),
    ("theta0", lambda v: 0 < v < np.inf, "--theta0 must be positive and finite"),
    ("grid_I", lambda v: min(_int_list(v), default=1) >= 1, "--grid-I entries must be at least 1"),
    ("grid_M", lambda v: min(_int_list(v), default=1) >= 1, "--grid-M entries must be at least 1"),
    ("grid_J", lambda v: min(_int_list(v), default=1) >= 1, "--grid-J entries must be at least 1"),
    ("grid_R", lambda v: min(_int_list(v), default=1) >= 1, "--grid-R entries must be at least 1"),
    ("grid_theta", lambda v: all(0 < t < np.inf for t in _float_list(v)),
     "--grid-theta entries must be positive and finite"),
    ("p", lambda v: v == "uniform" or _is_quality_list(v),
     "--p must be 'uniform' or a comma-separated list of numbers in [0, 1]"),
    ("p0", _is_quality_list, "--p0 must be a comma-separated list of numbers in [0, 1]"),
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
        theta_max=args.theta_max, node_budget=args.node_budget, candidate_cap=args.candidate_cap,
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
        "n_budget_exhausted": summary.n_budget_exhausted,
    }


def cmd_bootstrap(args) -> int:
    if not args.out:
        raise IngestError("bootstrap requires --out (JSON path; rank CSV lands beside it)")
    csv_path = Path(args.out).with_suffix(Path(args.out).suffix + ".ranks.csv")
    _check_writable(csv_path)
    scale, dataset, labels = _ingest_args(args)
    summary = _bootstrap(args, dataset, args.method)
    _dump_json(_bootstrap_doc(summary, labels, scale), args.out)
    _write_file(csv_path, lambda fh: csv.writer(fh).writerows(_rank_csv_rows(labels, summary)))
    return EXIT_BUDGET if summary.point.budget_exhausted or summary.n_budget_exhausted else EXIT_OK


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
    truth = Parameters(p=p, theta=args.theta, consensus_order=order_of(p))
    dataset = sample(truth, args.I, args.M, args.R, rng)
    labels = [f"o{j + 1}" for j in range(args.J)]
    judges = [f"j{i + 1}" for i in range(args.I)]
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise IngestError(f"cannot write {out_dir}: {err}") from err

    def write_scores(fh):
        writer = csv.writer(fh)
        writer.writerow(["judge"] + labels)
        for judge, row in zip(judges, dataset.scores):
            writer.writerow([judge] + [int(v) for v in row])

    def write_rankings(fh):
        writer = csv.writer(fh)
        writer.writerow(["judge"] + [f"rank{r + 1}" for r in range(args.R)])
        for judge, ranking in zip(judges, dataset.rankings):
            cells = [labels[j] for j in ranking] if ranking else []
            writer.writerow([judge] + cells + [""] * (args.R - len(cells)))

    _write_file(out_dir / "scores.csv", write_scores)
    _write_file(out_dir / "rankings.csv", write_rankings)
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

    def write(fh):
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    _write_file(args.out, write)
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
        if len(summary.point.non_identified) < dataset.J:
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
        _dump_json(asdict(table), args.out)
    return EXIT_OK


def _add_fit_flags(sub):
    """Data, score-scale and run flags of fit."""
    sub.add_argument("--scores", default=None)
    sub.add_argument("--rankings", default=None)
    sub.add_argument("--scale-min", type=float, default=0.0)
    sub.add_argument("--scale-max", type=float, required=True)
    sub.add_argument("--scale-step", type=float, default=1.0)
    sub.add_argument("--higher-is-better", action="store_true")
    sub.add_argument("--method", default="exact-crude", choices=list(inference.CORE_METHODS))
    sub.add_argument("--theta-max", type=float, default=None)
    sub.add_argument("--node-budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    sub.add_argument("--candidate-cap", type=int, default=search.DEFAULT_CANDIDATE_CAP)
    sub.add_argument("--out", default=None)


def _add_resampled_flags(sub):
    """fit's flags plus the resampling flags of bootstrap and compare."""
    _add_fit_flags(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--B", type=int, default=200)
    sub.add_argument("--level", type=float, default=0.90)
    sub.add_argument("--jobs", type=int, default=1)


def _add_simulate_flags(sub):
    sub.add_argument("--I", type=int, required=True)
    sub.add_argument("--J", type=int, required=True)
    sub.add_argument("--R", type=int, required=True)
    sub.add_argument("--M", type=int, required=True)
    sub.add_argument("--theta", type=float, required=True)
    sub.add_argument("--p", default="uniform")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-dir", required=True)


def _add_benchmark_flags(sub):
    sub.add_argument("--grid-I", default="5,20")
    sub.add_argument("--grid-M", default="10")
    sub.add_argument("--grid-J", default="4,5,6")
    sub.add_argument("--grid-R", default="2,4,6")
    sub.add_argument("--grid-theta", default="1,2,3")
    sub.add_argument("--trials", type=int, default=5)
    sub.add_argument("--algorithms", default=",".join(inference.BENCHMARK_ALGORITHMS))
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--theta-max", type=float, default=None)
    sub.add_argument("--node-budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    sub.add_argument("--out", default=None)


def _add_bias_demo_flags(sub):
    sub.add_argument("--p0", default="0.1,0.4,0.9")
    sub.add_argument("--theta0", type=float, default=1.0)
    sub.add_argument("--M", type=int, default=1)
    sub.add_argument("--R", type=int, default=None)
    sub.add_argument("--theta-max", type=float, default=None)
    sub.add_argument("--out", default=None)


# (name, help, flag builder, handler) of every subcommand, in help order.
COMMANDS = (
    ("fit", "point fit", _add_fit_flags, cmd_fit),
    ("bootstrap", "bootstrap intervals for p, theta, and rank places", _add_resampled_flags, cmd_bootstrap),
    ("simulate", "write a synthetic panel in the ingest format", _add_simulate_flags, cmd_simulate),
    ("benchmark", "speed/accuracy grid", _add_benchmark_flags, cmd_benchmark),
    ("compare", "joint model plus the four conversion baselines", _add_resampled_flags, cmd_compare),
    ("bias-demo", "exact single-judge bias enumeration", _add_bias_demo_flags, cmd_bias_demo),
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand declared, each with its flags."""
    parser = argparse.ArgumentParser(
        prog="mallows-binomial",
        description="Consensus fitting for panels of integer scores and top-R partial rankings",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_flags, handler in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        add_flags(sub)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A first argument naming a command is parsed by a parser of that
    # command's flags alone, as build_parser's subparser for it would parse
    # it: declaring every subcommand costs more than the parse. Anything it
    # leaves over, and any other start (no command, -h, an option or an
    # unknown name), goes to build_parser, whose help and errors list them all.
    args = extra = None
    for name, _, add_flags, handler in COMMANDS:
        if argv[:1] == [name]:
            parser = argparse.ArgumentParser(prog=f"mallows-binomial {name}")
            add_flags(parser)
            parser.set_defaults(command=name, func=handler)
            args, extra = parser.parse_known_args(argv[1:])
    if args is None or extra:
        args = build_parser().parse_args(argv)
    try:
        _check_run_options(args)
        if getattr(args, "out", None):  # every command's --out, before its work
            _check_writable(args.out)
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
