"""The traced benchmark run patches package functions by name; a rename
would break it without any other test noticing."""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from conftest import random_dataset
from mallows_binomial import astar, compute_stats, fitting

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


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
    astar(compute_stats(ds))
    # one solve is the final conditional fit, the others are search bounds
    assert calls["fit_theta"] > 1 and calls["_expected_distance_total"] > 0, calls
