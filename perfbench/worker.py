"""One workload in its own process: generate panels, run CLI ops in a
closed loop, check every output, and write the numbers as JSON.

Started by run.py, which sets this process's address-space limit. Usage:
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --result PATH
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from hostspeed import REFERENCE_S, kernel_seconds  # noqa: E402
from panels import Family, Panel, make_panels  # noqa: E402
from trace import LAYERS, Tracer  # noqa: E402

BOOTSTRAP_B = 50  # a B=200 command takes 2.5 s: too few commands per run for steady numbers
FV_CAP = 4  # with the default cap of 1024 one fv fit takes seconds
REL_TOL = 1e-9
REFERENCE_SEED = 0
TAIL_PCT = 75  # the highest fixed percentile with ten ops beyond it in every workload's runs
KERNEL_EVERY_S = 0.2  # host phases last seconds; the kernel takes about 6 ms


@dataclass(frozen=True)
class Workload:
    """Panel families, the CLI commands run on every panel, and which two
    commands the gated latencies follow (main, alt). Methods in full_only
    run on full-ranking panels only."""

    name: str
    families: tuple[Family, ...]
    pool: int            # panels generated; a run cycles through them in order
    methods: tuple[str, ...]
    main: str
    alt: str
    trace_panels: int    # panels in the traced run (fixed, so counts repeat)
    full_only: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-hard",
            (Family("full-w1", I=20, J=8, M=2, R=8, theta=0.3),),
            pool=500, methods=("exact-crude", "exact-lp"), main="exact-crude", alt="exact-lp",
            trace_panels=40,
        ),
        Workload(
            "approx-large",
            (
                Family("full-t3", I=10, J=20, M=10, R=20, theta=0.3),
                Family("full-t5", I=10, J=20, M=10, R=20, theta=0.5),
                Family("full-t4", I=10, J=20, M=10, R=20, theta=0.4),
                Family("top5-t4", I=10, J=20, M=10, R=5, theta=0.4),
            ),
            pool=200, methods=("greedy", "greedy-local", "fv"), main="greedy-local", alt="greedy",
            trace_panels=8, full_only=("fv",),
        ),
        Workload(
            "bootstrap",
            (Family("top3-t2", I=40, J=6, M=10, R=3, theta=2.0, missing=0.1),),
            pool=16, methods=("bootstrap",), main="bootstrap", alt="bootstrap-rep",
            trace_panels=2,
        ),
    )
}


@dataclass
class Op:
    panel: Panel
    method: str
    out: str
    jobs: int = 1
    seed: int = 0

    @property
    def units(self) -> int:
        """Attempted units: bootstrap failures count per replicate."""
        return BOOTSTRAP_B if self.method == "bootstrap" else 1

    def argv(self) -> list[str]:
        if self.method == "bootstrap":
            return ["bootstrap", *self.panel.cli_args(), "--method", "exact-crude",
                    "--B", str(BOOTSTRAP_B), "--jobs", str(self.jobs), "--seed", str(self.seed),
                    "--out", self.out]
        extra = ["--candidate-cap", str(FV_CAP)] if self.method == "fv" else []
        return ["fit", *self.panel.cli_args(), "--method", self.method, *extra, "--out", self.out]


@dataclass
class Record:
    op: Op
    wall_s: float
    rc: int
    kernel_s: float = REFERENCE_S  # host-speed kernel around the op
    doc: dict | None = None
    raw: bytes = b""
    misses: list[str] = field(default_factory=list)
    failed_units: int = 0
    wrong: bool = False  # a value check failed, as opposed to the op failing

    @property
    def failed(self) -> bool:
        return self.failed_units > 0

    @property
    def scaled_s(self) -> float:
        """Wall time scaled to the reference host speed (hostspeed.py)."""
        return self.wall_s * REFERENCE_S / self.kernel_s


def load_modules():
    import mallows_binomial
    from mallows_binomial import cli, fitting, inference, kemeny_lp, kendall, model, search

    expected = ROOT / "src" / "mallows_binomial"
    if Path(mallows_binomial.__file__).resolve().parent != expected.resolve():
        raise SystemExit(f"mallows_binomial imported from {mallows_binomial.__file__}, not {expected}")
    return {"cli": cli, "fitting": fitting, "inference": inference, "kemeny_lp": kemeny_lp,
            "kendall": kendall, "model": model, "search": search}


def make_ops(workload: Workload, panels: list[Panel], seed: int, tag: str) -> list[Op]:
    out_dir = OUT / "ops" / f"{workload.name}-{tag}"
    out_dir.mkdir(parents=True, exist_ok=True)
    return [Op(p, m, str(out_dir / f"{p.family}-{p.index:03d}.{m}.json"), seed=seed)
            for p in panels for m in workload.methods if p.full or m not in workload.full_only]


def call_cli(cli, argv: list[str]) -> int:
    try:
        return int(cli.main(argv))
    except SystemExit as err:  # argparse rejects the command line
        return int(err.code or 2)


def read_output(record: Record):
    path = Path(record.op.out)
    if record.rc != 0 or not path.exists():
        return
    record.raw = path.read_bytes()
    record.doc = json.loads(record.raw)
    if record.op.method == "bootstrap":
        record.raw += b"\0" + Path(record.op.out + ".ranks.csv").read_bytes()


def run_ops(cli, ops: list[Op], seconds: float | None, tracer: Tracer | None = None) -> list[Record]:
    """Closed loop, one op at a time. With seconds, cycle through ops until
    the time is up, timing the host-speed kernel at least every KERNEL_EVERY_S
    between ops; an op is scaled by the mean of the samples around it.
    Without seconds, run each op once."""
    records = []
    start = time.perf_counter()
    timed = seconds is not None
    kernel, kernel_at, unscaled = (kernel_seconds(), time.perf_counter(), []) if timed else (None, None, None)
    i = 0
    while i < len(ops) or timed:
        if timed and time.perf_counter() - start >= seconds:
            break
        op = ops[i % len(ops)]
        i += 1
        t0 = time.perf_counter()
        rc = call_cli(cli, op.argv()) if tracer is None else tracer.run_op(call_cli, cli, op.argv())
        record = Record(op, time.perf_counter() - t0, rc)
        read_output(record)
        records.append(record)
        if timed:
            unscaled.append(record)
            if time.perf_counter() - kernel_at >= KERNEL_EVERY_S or time.perf_counter() - start >= seconds:
                before, kernel, kernel_at = kernel, kernel_seconds(), time.perf_counter()
                for rec in unscaled:
                    rec.kernel_s = (before + kernel) / 2
                unscaled.clear()
    return records


# ----------------------------------------------------------------------
# Correctness


class Checker:
    """Recomputes every reported objective and compares outputs across
    methods and repeats; misses mark the op failed."""

    def __init__(self, mods):
        self.mods = mods
        self._data: dict[str, tuple] = {}

    def data(self, panel: Panel):
        if panel.scores not in self._data:
            cli, inference = self.mods["cli"], self.mods["inference"]
            dataset, labels, _ = cli.ingest(panel.scores, panel.rankings, cli.ScoreScale(0, panel.M, 1))
            self._data[panel.scores] = (inference.compute_stats(dataset), labels, dataset.M)
        return self._data[panel.scores]

    def objective_gap(self, panel: Panel, doc: dict) -> float:
        from mallows_binomial.model import Parameters

        stats, labels, M = self.data(panel)
        index = {label: j for j, label in enumerate(labels)}
        params = Parameters(p=doc["p"], theta=doc["theta"],
                            consensus_order=[index[label] for label in doc["consensus_order"]])
        f = self.mods["fitting"].objective(stats, params, M)
        return abs(f - doc["f_value"]) / max(1.0, abs(f))

    def check(self, records: list[Record]):
        by_panel: dict[tuple[str, str], Record] = {}
        first_raw: dict[str, bytes] = {}
        for rec in records:
            op = rec.op
            if rec.rc != 0 or rec.doc is None:
                rec.misses.append(f"exit code {rec.rc}")
            else:
                if op.method.startswith("exact-") and not rec.doc["optimal"]:
                    rec.misses.append("exact fit not optimal")
                if self.objective_gap(op.panel, rec.doc) > REL_TOL:
                    rec.misses.append("f_value differs from the recomputed objective")
                    rec.wrong = True
                if op.method == "bootstrap":
                    key = op.panel.scores
                    if rec.doc["n_failed"]:
                        rec.failed_units = rec.doc["n_failed"]
                    if key in first_raw and first_raw[key] != rec.raw:
                        rec.misses.append("repeat of the same bootstrap command is not byte-identical")
                        rec.wrong = True
                    first_raw.setdefault(key, rec.raw)
                by_panel[(op.panel.scores, op.method)] = rec
        for (scores, method), rec in by_panel.items():
            if rec.misses:
                continue
            if method == "exact-lp":
                crude = by_panel.get((scores, "exact-crude"))
                if crude is not None and not crude.misses:
                    a, b = crude.doc["f_value"], rec.doc["f_value"]
                    if abs(a - b) > REL_TOL * max(1.0, abs(a)):
                        rec.misses.append(f"exact-lp f {b!r} differs from exact-crude f {a!r}")
                        rec.wrong = True
            if method == "greedy-local":
                plain = by_panel.get((scores, "greedy"))
                if plain is not None and not plain.misses and rec.doc["f_value"] > plain.doc["f_value"]:
                    rec.misses.append("greedy-local f above greedy f")
                    rec.wrong = True
        for rec in records:
            if rec.misses:
                rec.failed_units = rec.op.units


def reference_ops(workload: Workload) -> list[Op]:
    panels = make_panels(list(workload.families), 1, REFERENCE_SEED,
                         OUT / "panels" / f"{workload.name}-reference")
    return make_ops(workload, panels, REFERENCE_SEED, "reference")


def reference_entry(doc: dict, method: str) -> dict:
    keys = ["consensus_order", "p", "theta", "f_value"]
    if method == "bootstrap":
        keys += ["p_intervals", "rank_intervals", "theta_interval", "n_failed"]
    return {k: doc[k] for k in keys}


def _close(a, b) -> bool:
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and abs(a - b) <= REL_TOL * max(1.0, abs(a))
    return a == b


def reference_misses(workload: Workload, records: list[Record]) -> list[str]:
    """Default-seed panel 0 against the values stored beside the benchmark:
    orders exactly, numbers to a relative 1e-9."""
    stored = json.loads((HERE / "reference.json").read_text()).get(workload.name, {})
    misses = []
    for rec in records:
        want = stored.get(rec.op.method)
        if want is None:
            misses.append(f"no stored reference for {workload.name}/{rec.op.method}")
        elif rec.doc is None:
            misses.append(f"reference {rec.op.method}: exit code {rec.rc}")
        else:
            got = reference_entry(rec.doc, rec.op.method)
            bad = [key for key, value in want.items()
                   if not (got[key] == value if key == "consensus_order" else _close(value, got[key]))]
            if bad:
                misses.append(f"reference {rec.op.method}: {', '.join(bad)} differ")
    return misses


# ----------------------------------------------------------------------
# Numbers


def latency(records: list[Record], per_replicate: bool = False) -> dict:
    """Median and TAIL_PCT percentile of one method's scaled op times, with
    the raw wall median and the kernel's median beside them."""
    if not records:
        return {"ops": 0}

    def ms(rec, seconds):
        if rec.failed:
            return math.inf  # sorts last
        return 1000 * seconds / (BOOTSTRAP_B - rec.doc["n_failed"] if per_replicate else 1)

    scaled = sorted(ms(rec, rec.scaled_s) for rec in records)
    raw = sorted(ms(rec, rec.wall_s) for rec in records)

    def rank(q):  # nearest-rank percentile
        return max(0, math.ceil(q / 100 * len(scaled)) - 1)

    return {"ops": len(scaled), "p50_ms": scaled[rank(50)], "tail_ms": scaled[rank(TAIL_PCT)],
            "tail_pct": TAIL_PCT, "ops_beyond_tail": len(scaled) - rank(TAIL_PCT) - 1,
            "raw_p50_ms": raw[rank(50)],
            "kernel_p50_ms": 1000 * statistics.median(r.kernel_s for r in records)}


def run_summary(workload: Workload, records: list[Record]) -> dict:
    per_method = {}
    for method in workload.methods:
        recs = [r for r in records if r.op.method == method]
        per_method[method] = latency(recs)
    boots = [r for r in records if r.op.method == "bootstrap"]
    if boots:
        per_method["bootstrap-rep"] = latency(boots, per_replicate=True)
        ok_reps = sum(BOOTSTRAP_B - (r.doc["n_failed"] if r.doc else BOOTSTRAP_B) for r in boots)
        per_method["bootstrap"]["reps_per_s"] = ok_reps / sum(r.scaled_s for r in boots)
    return per_method


def layer_metrics(tracer: Tracer, records: list[Record], op_ids: list[int]) -> dict:
    """Per-layer numbers over the given traced ops."""
    chosen = set(op_ids)
    n_ops = max(1, len(op_ids))
    own = tracer.self_times()
    busy: dict[str, list[int]] = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    wall_ns = 0
    for (name, layer, start, end, parent, op), mine in zip(tracer.spans, own):
        if op not in chosen:
            continue
        busy.setdefault(name, []).append(end - start)
        self_ns[layer] += mine
        if parent < 0:
            wall_ns += end - start

    def calls(name):
        return len(busy.get(name, ()))

    def us_per_call(name):
        d = busy.get(name)
        return sum(d) / len(d) / 1e3 if d else 0.0

    def share(name):
        return sum(busy.get(name, ())) / wall_ns if wall_ns else 0.0

    def count(name):
        return sum(n for op, n in tracer.counts.get(name, {}).items() if op in chosen)

    docs = [records[i].doc for i in op_ids if records[i].doc is not None]
    nodes = sum(d.get("nodes_expanded", 0) for d in docs)
    cands = sum(d.get("candidate_evaluations", 0) for d in docs)
    reps = busy.get("inference.replicate", [])
    out = {
        "op.traced_ms": wall_ns / n_ops / 1e6,
        "search.nodes_expanded": nodes,
        "search.candidates": cands,
        "search.expand_ratio": nodes / cands if cands else 0.0,
        "fitting.theta.calls": calls("fitting.theta"),
        "fitting.theta.us_per_call": us_per_call("fitting.theta"),
        "fitting.theta.share": share("fitting.theta"),
        "fitting.theta.slope_evals_per_solve":
            count("fitting.theta.slope_evals") / calls("fitting.theta") if calls("fitting.theta") else 0.0,
        "fitting.p_bound.calls": calls("fitting.p_bound"),
        "fitting.p_bound.us_per_call": us_per_call("fitting.p_bound"),
        "fitting.p_bound.share": share("fitting.p_bound"),
        "fitting.order_fit.calls": calls("fitting.order_fit"),
        "fitting.order_fit.us_per_call": us_per_call("fitting.order_fit"),
        "fitting.order_fit.share": share("fitting.order_fit"),
        "kemeny_lp.lp.calls": calls("kemeny_lp.lp"),
        "kemeny_lp.lp.us_per_call": us_per_call("kemeny_lp.lp"),
        "kemeny_lp.lp.per_candidate": calls("kemeny_lp.lp") / cands if cands else 0.0,
        "kemeny_lp.lp.share": share("kemeny_lp.lp"),
        "kemeny_lp.simplex.calls": calls("kemeny_lp.simplex"),
        "kemeny_lp.simplex.us_per_call": us_per_call("kemeny_lp.simplex"),
        "model.compute_stats.calls": calls("model.compute_stats"),
        "model.compute_stats.us_per_call": us_per_call("model.compute_stats"),
        "inference.resample.calls": calls("inference.resample"),
        "inference.resample.us_per_call": us_per_call("inference.resample"),
        "inference.replicate.calls": len(reps),
        "inference.replicate.p50_ms": statistics.median(reps) / 1e6 if reps else 0.0,
        "kendall.average_ranks.calls": calls("kendall.average_ranks"),
        "kendall.average_ranks.us_per_call": us_per_call("kendall.average_ranks"),
        "cli.ingest_ms": sum(busy.get("cli.ingest", ())) / n_ops / 1e6,
        "cli.write_ms": sum(busy.get("cli.write", ())) / n_ops / 1e6,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ns[layer] / n_ops / 1e6
    return out


PER_METHOD_LAYER = ("op.traced_ms", "search.nodes_expanded", "search.candidates", "search.self_ms",
                    "fitting.theta.share", "fitting.p_bound.share", "fitting.order_fit.share",
                    "kemeny_lp.lp.share")
TRACED_METHODS = ("exact-crude", "exact-lp", "greedy", "greedy-local", "fv")


def traced_run(mods, workload: Workload, ops: list[Op], checker: Checker, trace_path: Path) -> dict:
    """Run the fixed op list untraced, then traced; per-layer numbers come
    from the traced pass."""
    cli = mods["cli"]
    plain = run_ops(cli, ops, None)
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = run_ops(cli, ops, None, tracer)
    finally:
        tracer.uninstall()
    checker.check(traced)
    labels = [f"{op.panel.family}-{op.panel.index:03d}.{op.method}" for op in ops]
    tracer.write(trace_path, labels)

    summary = tracer.op_summary()
    misses = []
    for op_id, entry in summary.items():
        if sum(entry["self_ns"].values()) != entry["wall_ns"]:
            misses.append(f"op {op_id}: layer self times do not sum to its wall time")
    stats_calls = {}
    for name, _, _, _, _, op in tracer.spans:
        if name == "model.compute_stats":
            stats_calls[op] = stats_calls.get(op, 0) + 1
    for op_id, op in enumerate(ops):
        if op.method == "bootstrap" and not traced[op_id].failed and stats_calls.get(op_id) != BOOTSTRAP_B + 1:
            misses.append(f"op {op_id}: compute_stats ran {stats_calls.get(op_id)} times, not B+1")

    metrics = layer_metrics(tracer, traced, list(range(len(ops))))
    reps = metrics["inference.replicate.calls"]
    metrics["inference.replicate.ok_ratio"] = tracer.replicate_ok / reps if reps else 0.0
    for method in TRACED_METHODS:
        ids = [i for i, op in enumerate(ops) if op.method == method]
        per = layer_metrics(tracer, traced, ids)
        for key in PER_METHOD_LAYER:
            metrics[f"{method}.{key}"] = per[key] if ids else 0
    plain_s = sum(r.wall_s for r in plain)
    traced_s = sum(r.wall_s for r in traced)
    metrics["tracing.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["tracing.ops"] = len(ops)
    return {"records": traced, "metrics": metrics, "misses": misses,
            "trace_file": str(trace_path.relative_to(ROOT))}


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    mods = load_modules()
    cli = mods["cli"]

    import numpy
    import scipy

    panels = make_panels(list(workload.families), workload.pool, args.seed,
                         OUT / "panels" / f"{workload.name}-seed{args.seed}")
    checker = Checker(mods)
    checks, misses = 0, []

    # Untimed: the default-seed reference panel, which also warms lazy
    # imports and caches before any clock starts.
    ref_records = run_ops(cli, reference_ops(workload), None)
    checks += len(ref_records)
    misses += reference_misses(workload, ref_records)

    result = {"workload": workload.name, "seed": args.seed,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.trace:
        ops = make_ops(workload, panels[:workload.trace_panels], args.seed, "traced")
        traced = traced_run(mods, workload, ops, checker, OUT / f"trace-{workload.name}.json.gz")
        records = traced["records"]
        checks += len(ops)
        misses += traced["misses"]
        result["layers"] = traced["metrics"]
        result["trace_file"] = traced["trace_file"]
    else:
        records = run_ops(cli, make_ops(workload, panels, args.seed, "timed"), args.seconds)
        checker.check(records)
        if workload.methods == ("bootstrap",):
            # Untimed: the same command with two workers must give the same bytes.
            first = records[0]
            twin = Op(first.op.panel, "bootstrap", first.op.out.replace(".json", ".jobs2.json"),
                      jobs=2, seed=args.seed)
            checks += 1
            if first.failed or run_ops(cli, [twin], None)[0].raw != first.raw:
                misses.append("bootstrap --jobs 2 output differs from --jobs 1")
        result["latency"] = run_summary(workload, records)

    result.update({
        "attempted": sum(r.op.units for r in records) + checks,
        "failed": sum(r.failed_units for r in records) + len(misses),
        "wrong": sum(r.wrong for r in records) + len(misses),
        "ops": len(records),
        "failures": [f"{r.op.panel.family}-{r.op.panel.index:03d}.{r.op.method}: {'; '.join(r.misses)}"
                     for r in records if r.misses] + misses,
        "op_log": [[f"{r.op.panel.family}-{r.op.panel.index:03d}", r.op.method, round(1000 * r.wall_s, 3),
                    round(1000 * r.kernel_s, 3), r.rc]
                   for r in records],
        "inputs_sha256": {f"{p.family}-{p.index:03d}": p.sha256
                          for p in {id(r.op.panel): r.op.panel for r in records}.values()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    })
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):
        code = main()
    sys.exit(code)
