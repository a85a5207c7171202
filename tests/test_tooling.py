"""The benchmark patches and calls package functions by name; a rename
would break it without any other test noticing. The public API, and every
module-level definition of the package, is held to what the package, its
scripts and its benchmark reach."""
import ast
import importlib
import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np

import pytest

import mallows_binomial
from conftest import random_dataset
from mallows_binomial import Parameters, astar, cli, compute_stats, fitting, inference, kemeny_lp, search
from mallows_binomial.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
TRACE = ROOT / "perfbench" / "trace.py"

# Exported though only tests call them: the paper defines these quantities.
PAPER_QUANTITIES = {"moments", "psi", "log_psi"}


def test_traced_names_resolve():
    # a distinct module name, so the stdlib ``trace`` module is not shadowed
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for mod, attr in [*trace.SPANS, *trace.COUNTS]:
        module = importlib.import_module(f"mallows_binomial.{mod}")
        assert callable(getattr(module, attr, None)), f"{mod}.{attr}"


def test_traced_theta_layer_is_reached(monkeypatch):
    # Patched on the module the way the tracer patches it: a search that
    # stopped resolving these names there would leave the traced layer at 0.
    calls = Counter()
    for attr in ("fit_theta", "_expected_distance_total"):
        def counted(*args, _attr=attr, _original=getattr(fitting, attr), **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(fitting, attr, counted)
    ds = random_dataset(np.random.default_rng(8), J=5, I=8)
    fitting._scale_fit.cache_clear()  # a memo filled by earlier tests would hide the solves
    astar(compute_stats(ds))
    # with the memo cold, the search bounds solve; the final fit reads their memo
    assert calls["fit_theta"] > 1 and calls["_expected_distance_total"] > 0, calls


def test_traced_lp_layers_are_reached(monkeypatch):
    # Patched on their modules the way the tracer patches them: an exact-lp
    # search that stopped resolving these names there would leave
    # kemeny_lp.lp.* and kemeny_lp.simplex.* at 0.
    calls = Counter()
    for module, attr in ((search, "lp_free_cost"), (kemeny_lp, "solve_dense_lp")):
        def counted(*args, _attr=attr, _original=getattr(module, attr), **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    ds = random_dataset(np.random.default_rng(8), J=6, I=8)
    inference.fit_method(ds, "exact-lp")
    assert calls["lp_free_cost"] > 0 and calls["solve_dense_lp"] == calls["lp_free_cost"], calls


def test_benchmark_checker_api_recomputes_a_fit(tmp_path):
    # The benchmark's checker recomputes each fit's f_value through these
    # names; a CLI change that broke them would only show as failed ops.
    sim = tmp_path / "sim"
    assert main(["simulate", "--I", "8", "--J", "5", "--R", "3", "--M", "6", "--theta", "1.5",
                 "--seed", "2", "--out-dir", str(sim)]) == EXIT_OK
    scores, rankings, out = str(sim / "scores.csv"), str(sim / "rankings.csv"), tmp_path / "fit.json"
    assert main(["fit", "--scores", scores, "--rankings", rankings, "--scale-max", "6",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    dataset, labels, _ = cli.ingest(scores, rankings, cli.ScoreScale(0, 6, 1))
    stats = inference.compute_stats(dataset)
    index = {label: j for j, label in enumerate(labels)}
    params = Parameters(p=doc["p"], theta=doc["theta"],
                        consensus_order=[index[label] for label in doc["consensus_order"]])
    f = fitting.objective(stats, params, dataset.M)
    assert abs(f - doc["f_value"]) / max(1.0, abs(f)) <= 1e-9


@pytest.mark.parametrize("method", [*inference.CORE_METHODS, "compare"])
def test_bootstrap_command_computes_stats_b_plus_one_times(tmp_path, monkeypatch, method):
    # The traced benchmark checks B+1 compute_stats calls per bootstrap
    # command, patched on inference as here: one for the point fit and one
    # per replicate, whether fit_method weights the judge rows or fits a
    # resampled Dataset (fv and the comparison models). "compare" runs the
    # exact-crude bootstrap and one for each comparison model.
    sim = tmp_path / "sim"
    assert main(["simulate", "--I", "12", "--J", "4", "--R", "3", "--M", "5", "--theta", "1.5",
                 "--seed", "4", "--out-dir", str(sim)]) == EXIT_OK
    real, calls = inference.compute_stats, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "compute_stats", counted)
    B = 7
    command = ["compare"] if method == "compare" else ["bootstrap", "--method", method]
    code = main([*command, "--scores", str(sim / "scores.csv"), "--rankings", str(sim / "rankings.csv"),
                 "--scale-min", "0", "--scale-max", "5", "--scale-step", "1",
                 "--B", str(B), "--seed", "3", "--out", str(tmp_path / "boot.json")])
    assert code == EXIT_OK
    bootstraps = 1 + len(inference.COMPARISON_MODELS) if method == "compare" else 1
    assert len(calls) == bootstraps * (B + 1)


def _reached_names(path: Path) -> set[str]:
    """Identifiers a Python file's code names, plus string literals that are
    one identifier (perfbench/trace.py names what it wraps by string).
    Comments and docstrings do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_export_is_used_outside_the_tests():
    # A name in __all__ must be reached by a package module other than the
    # one defining it and __init__, by scripts/ or perfbench/, or be
    # documented in README.md; otherwise only tests use it and it belongs
    # in its module, not in the public API.
    package = ROOT / "src" / "mallows_binomial"
    readme = (ROOT / "README.md").read_text()
    reached = {path: _reached_names(path) for path in [*package.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                                                       *(ROOT / "perfbench").glob("*.py")]}
    assert PAPER_QUANTITIES <= set(mallows_binomial.__all__)
    unused = []
    for name in mallows_binomial.__all__:
        home = package / f"{getattr(mallows_binomial, name).__module__.rpartition('.')[2]}.py"
        users = [path for path, names in reached.items()
                 if name in names and path not in (home, package / "__init__.py")]
        if not users and not re.search(rf"\b{name}\b", readme) and name not in PAPER_QUANTITIES:
            unused.append(name)
    assert not unused, f"exported but used only by tests: {unused}"


def test_every_module_level_definition_is_reached_outside_the_tests():
    # A function or class at the top of a package module must be named by
    # package code other than its own definition, by scripts/ or by
    # perfbench/; one that only tests call belongs in tests/conftest.py.
    package = ROOT / "src" / "mallows_binomial"
    paths = [*package.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    reached = set().union(*(_reached_names(path) for path in paths))
    defined = [f"{path.stem}.{node.name}" for path in sorted(package.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 50, defined
    unreached = [name for name in defined if name.rpartition(".")[2] not in reached]
    assert not unreached, f"defined in src/ but used only by tests: {unreached}"


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml declares Python >= 3.10, and CI's 3.10 job is the only
    # other check of it: syntax newer than 3.10 must fail here too.
    paths = [path for folder in ("src", "tests", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20, paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
