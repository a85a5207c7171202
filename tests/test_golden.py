"""Golden artifacts: the CLI outputs of one seeded panel, compared with files
recorded from an earlier commit. Any change to a fitted value, an interval,
a search count or a byte of the rank CSV shows up here.

Regenerate (only when a result is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
from pathlib import Path

from mallows_binomial.cli import EXIT_OK, main
from mallows_binomial.inference import CORE_METHODS

GOLDEN = Path(__file__).parent / "golden"
PANEL = ["--I", "8", "--J", "5", "--R", "3", "--M", "10", "--theta", "0.3", "--seed", "27"]
BOOTSTRAP_METHODS = ("exact-crude", "greedy-local")
PANEL_FILES = ("scores.csv", "rankings.csv", "truth.json")


def produce(out: Path) -> list[str]:
    """Write every golden artifact into out; returns their file names."""
    assert main(["simulate", *PANEL, "--out-dir", str(out)]) == EXIT_OK
    data = ["--scores", str(out / "scores.csv"), "--rankings", str(out / "rankings.csv"),
            "--scale-min", "0", "--scale-max", "10", "--scale-step", "1"]
    names = list(PANEL_FILES)
    for method in CORE_METHODS:
        name = f"fit-{method}.json"
        assert main(["fit", *data, "--method", method, "--out", str(out / name)]) == EXIT_OK
        names.append(name)
    for method in BOOTSTRAP_METHODS:
        name = f"bootstrap-{method}.json"
        assert main(["bootstrap", *data, "--method", method, "--B", "20", "--seed", "3",
                     "--out", str(out / name)]) == EXIT_OK
        names += [name, name + ".ranks.csv"]
    assert main(["compare", *data, "--B", "10", "--seed", "5",
                 "--out", str(out / "compare.json")]) == EXIT_OK
    return names + ["compare.json"]


def _parsed(path: Path):
    doc = json.loads(path.read_text())
    doc.pop("elapsed_seconds", None)
    return doc


def test_cli_outputs_match_golden(tmp_path):
    for name in produce(tmp_path):
        got, want = tmp_path / name, GOLDEN / name
        if name.endswith(".json"):
            assert _parsed(got) == _parsed(want), name
        else:
            assert got.read_bytes() == want.read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    produce(GOLDEN)
