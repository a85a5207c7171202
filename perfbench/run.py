"""Benchmark of the mallows-binomial CLI.

    python3 perfbench/run.py --workload exact-hard --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a child process
(worker.py) under an address-space limit set on that child only; this
process then times fresh-interpreter imports of the CLI for setup_s,
records the environment, prints every metric by name with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run. Details land in perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The child's address space: about 260 MB after imports, so the fv
# tie-enumeration blow-up ends as a MemoryError a couple of hundred MB later.
CHILD_ADDRESS_SPACE = 448 << 20
CHILD_TIMEOUT_S = 120  # leaves room for the set-up timing within 180 s
SETUP_SAMPLES = 5
IMPORTTIME_TOP = 10
IMPORTTIME_LAYER = {"numpy": "numpy", "scipy.special": "scipy_special",
                    "scipy.stats": "scipy_stats", "mallows_binomial": "mallows_binomial"}


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_child(args, result_path: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path)]
    log = OUT / f"worker-{args.workload}.log"
    with open(log, "w") as fh:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
                              preexec_fn=limit_address_space, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        tail = log.read_text().strip().splitlines()[-5:]
        raise SystemExit(f"worker exited with {proc.returncode}: " + " | ".join(tail))
    return json.loads(result_path.read_text())


def import_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_times() -> list[float]:
    """Wall time of a fresh interpreter importing the CLI module."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mallows_binomial.cli"], cwd=ROOT, env=import_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def importtime() -> list[dict]:
    """Largest cumulative entries of -X importtime for the CLI module."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mallows_binomial.cli"],
                          cwd=ROOT, env=import_env(), check=True, timeout=60, capture_output=True, text=True)
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        rows.append({"module": parts[2].strip(), "self_us": int(parts[0].split(":")[1]),
                     "cumulative_us": int(parts[1])})
    rows.sort(key=lambda r: -r["cumulative_us"])
    return rows


def environment(args, child: dict) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": args.seed,
            "workload": args.workload, **child["versions"]}


def finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def end_to_end(child: dict, setup: list[float], workload) -> dict:
    lat = child["latency"]
    main, alt = lat[workload.main], lat[workload.alt]
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_mb"],
        "ok_frac": 1 - child["failed"] / child["attempted"],
        "p50_ms": finite(main["p50_ms"]),
        "tail_ms": finite(main["tail_ms"]),
        "alt_p50_ms": finite(alt["p50_ms"]),
        "alt_tail_ms": finite(alt["tail_ms"]),
    }


def named_metrics(child: dict) -> list[tuple[str, object, str]]:
    """The per-method names the latencies carry in the detailed output."""
    rows = [("fail_frac", child["failed"] / child["attempted"], "1")]
    for method, lat in child["latency"].items():
        if method == "bootstrap":
            rows += [("bootstrap.p50_s", lat["p50_ms"] / 1000, "s"), ("bootstrap.reps_per_s", lat["reps_per_s"], "1/s")]
        elif method == "bootstrap-rep":
            rows += [("bootstrap.rep_p50_ms", lat["p50_ms"], "ms")]
        else:
            rows += [(f"{method}.p50_ms", lat["p50_ms"], "ms"),
                     (f"{method}.tail_ms", lat["tail_ms"], f"ms(p{lat['tail_pct']},n={lat['ops']})")]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mallows_binomial" / "cli.py").is_file():
        print(f"error: no src/mallows_binomial under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from worker import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"worker-{tag}.json"
    result_path.unlink(missing_ok=True)

    child = run_child(args, result_path)
    setup = setup_times()
    imports = importtime()
    cumulative = {row["module"]: row["cumulative_us"] for row in imports}
    detail = {"environment": environment(args, child), "setup_s": setup,
              "importtime_top": imports[:IMPORTTIME_TOP], **child}

    if args.trace:
        metrics = dict(child["layers"])
        metrics["setup.import_s"] = statistics.median(setup)
        for module, key in IMPORTTIME_LAYER.items():
            metrics[f"setup.importtime.{key}_ms"] = cumulative.get(module, 0) / 1000
    else:
        metrics = end_to_end(child, setup, WORKLOADS[args.workload])
        detail["per_method"] = {name: [value, unit] for name, value, unit in named_metrics(child)}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics and BENCHMARK.json disagree: {sorted(set(units) ^ set(metrics))}")

    env = detail["environment"]
    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} cpu={env['cpu']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    print(f"# ops={child['ops']} attempted={child['attempted']} failed={child['failed']} "
          f"inputs={len(child['inputs_sha256'])} csv pairs (sha256 in {OUT.name}/result-{tag}.json)")
    for failure in child["failures"][:10]:
        print(f"# failure: {failure}")
    if not args.trace:
        for name, value, unit in named_metrics(child):
            print(f"  {name:<28} {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name:<44} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": child["wrong"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
