"""The traced benchmark run patches package functions by name; a rename
would break it without any other test noticing."""
import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def test_traced_names_resolve():
    # a distinct module name, so the stdlib ``trace`` module is not shadowed
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for mod, attr in [*trace.SPANS, *trace.COUNTS]:
        module = importlib.import_module(f"mallows_binomial.{mod}")
        assert callable(getattr(module, attr, None)), f"{mod}.{attr}"
