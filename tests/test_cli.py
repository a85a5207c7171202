import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mallows_binomial
from conftest import reference_ingest
from mallows_binomial import Parameters, cli, order_of, sample
from mallows_binomial.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    IngestError,
    ScoreScale,
    ingest,
    main,
)
from mallows_binomial.kendall import distance


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# score scale + ingest
# ---------------------------------------------------------------------------

def test_scale_aibs_shape():
    scale = ScoreScale(min=1.0, max=5.0, step=0.1)
    assert scale.M == 40
    assert scale.to_integer(np.array([1.0, 5.0, 2.3])).tolist() == [0, 40, 13]


def test_scale_higher_is_better_reverses():
    scale = ScoreScale(min=0.0, max=10.0, step=1.0, higher_is_better=True)
    raw = np.array([[10.0, 0.0], [np.nan, 3.0]])
    assert np.array_equal(scale.to_integer(raw, np.isnan(raw)), [[0, 10], [np.nan, 7]], equal_nan=True)
    assert scale.to_raw(0) == 10.0
    assert scale.expected_raw(0.2) == pytest.approx(8.0)


def test_scale_rejects_bad_lattice():
    with pytest.raises(IngestError):
        ScoreScale(min=0.0, max=1.0, step=0.3)


def test_scale_names_the_first_score_off_it_in_c_order():
    scale = ScoreScale(min=1.0, max=3.0, step=0.5)
    raw = np.array([[1.0, np.nan, 2.25], [7.0, 1.5, 2.0]])
    with pytest.raises(IngestError) as info:
        scale.to_integer(raw, np.isnan(raw), where=lambda i: f" at {i}")
    assert str(info.value) == "score 2.25 is not on the step-0.5 lattice at 2"
    with pytest.raises(IngestError) as info:
        scale.to_integer(raw)  # NaN counts as a score unless it is missing
    assert str(info.value) == "score nan outside [1.0, 3.0]"


def test_ingest_basic(tmp_path):
    scores = write(tmp_path / "s.csv", "judge,a,b,c\nj1,1.0,2.0,\nj2,1.5,2.5,3.0\n")
    rankings = write(tmp_path / "r.csv", "judge,rank1,rank2\nj1,b,a\nj2,,\n")
    scale = ScoreScale(min=1.0, max=3.0, step=0.5)
    ds, labels, judges = ingest(scores, rankings, scale)
    assert labels == ["a", "b", "c"] and judges == ["j1", "j2"]
    assert ds.M == 4
    assert ds.scores[0].tolist()[:2] == [0.0, 2.0]
    assert np.isnan(ds.scores[0][2])
    assert ds.rankings == ((1, 0), None)


def test_ingest_ranking_only_judge(tmp_path):
    scores = write(tmp_path / "s.csv", "judge,a,b\nj1,0,1\n")
    rankings = write(tmp_path / "r.csv", "judge,rank1\nj2,b\n")
    ds, _, judges = ingest(scores, rankings, ScoreScale(min=0, max=2, step=1))
    assert judges == ["j1", "j2"]
    assert np.isnan(ds.scores[1]).all()
    assert ds.rankings == (None, (1,))


@pytest.mark.parametrize("cell,message", [
    ("2.25", "score 2.25 is not on the step-0.5 lattice ({path} row 2 column 3)"),
    ("3.5", "score 3.5 outside [1.0, 3.0] ({path} row 2 column 3)"),
    ("nan", "score nan outside [1.0, 3.0] ({path} row 2 column 3)"),
    ("2.x", "{path} row 2 column 3: not a number: '2.x'"),
], ids=["off-lattice", "out-of-range", "nan", "non-numeric"])
def test_ingest_rejects_off_lattice(tmp_path, cell, message):
    scores = write(tmp_path / "s.csv", f"judge,a,b\nj1,1.0,{cell}\n")
    with pytest.raises(IngestError) as info:
        ingest(scores, None, ScoreScale(min=1.0, max=3.0, step=0.5))
    assert str(info.value) == message.format(path=scores)


# (scores CSV, rankings CSV, message): None leaves a file out, and {s} and
# {r} stand for the two paths. One row malformed in two ways may report
# either fault, the duplicate judge id first.
INGEST_ERRORS = {
    "empty scores file": ("", None, "{s}: expected header judge,<labels...>"),
    "scores header": ("judge\nj1\n", None, "{s}: expected header judge,<labels...>"),
    "rankings header": ("judge,a,b\nj1,1,2\n", "judge\nj1\n", "{r}: expected header judge,rank1,..."),
    "duplicate labels": ("judge,a,a\nj1,1,2\n", None, "{s}: duplicate object labels in header"),
    "trailing blank label": ("judge,a,\nj1,1,2\n", None, "{s} column 3: blank object label in header"),
    "middle blank label": ("judge,a, ,b\nj1,1,2,3\n", None, "{s} column 3: blank object label in header"),
    "cell count": ("judge,a,b\nj1,1\n", None, "{s} row 2: expected 2 score cells"),
    "off-lattice after a blank row": ("judge,a,b\n\nj1,1,1.5\n", None,
                                      "score 1.5 is not on the step-1 lattice ({s} row 3 column 3)"),
    # the first fault in file order wins, whichever check finds it
    "short row after an off-lattice cell": ("judge,a,b\nj1,1,1.5\nj2,1\n", None,
                                            "score 1.5 is not on the step-1 lattice ({s} row 2 column 3)"),
    "non-number after an out-of-range cell": ("judge,a,b,c\nj1,1,7,x\n", None, "score 7.0 outside [0, 3] ({s} row 2 column 3)"),
    "out-of-range cell after a non-number": ("judge,a,b,c\nj1,1,x,7\n", None, "{s} row 2 column 3: not a number: 'x'"),
    "nan after a blank cell": ("judge,a,b\nj1,,2\nj2,,nan\n", None, "score nan outside [0, 3] ({s} row 3 column 3)"),
    "short row before an off-lattice cell": ("judge,a,b\nj1,1\nj2,1.5,1\n", None, "{s} row 2: expected 2 score cells"),
    "duplicate scores judge": ("judge,a,b\nj1,1,2\n,,\nj1,0,1\n", None, "{s} row 4: duplicate judge id 'j1'"),
    "gap": ("judge,a,b,c\nj1,1,2,3\n", "judge,rank1,rank2,rank3\nj1,a,,b\n",
            "{r} row 2: ranking has a gap before column 4"),
    "unknown label": ("judge,a,b\nj1,1,2\n", "judge,rank1\nj1,zzz\n", "{r} row 2 column 2: unknown object label 'zzz'"),
    "duplicate object": ("judge,a,b\nj1,1,2\n", "judge,rank1,rank2\nj1,b,b\n", "{r} row 2: duplicate object in ranking"),
    "duplicate rankings judge": (None, "judge,rank1\nj1,a\nj2,b\n j1 ,b\n", "{r} row 4: duplicate judge id 'j1'"),
    # a blank first cell, usually a spreadsheet artifact, would pair with a
    # blank id in the other file
    "blank scores judge id": ("judge,a,b\nj1,1,2\n,1,3\n", "judge,rank1,rank2\nj1,a,b\n,b,a\n",
                              "{s} row 3: blank judge id"),
    "blank rankings judge id": ("judge,a,b\nj1,1,2\n", "judge,rank1\nj1,a\n ,b\n", "{r} row 3: blank judge id"),
    "no objects": (None, "judge,rank1\nj1,\n", "no objects found in the input files"),
    "no data": ("judge,a,b\nj1,,\n", None, "dataset holds neither scores nor rankings"),
    "no paths": (None, None, "need at least one of --scores / --rankings"),
}


@pytest.mark.parametrize("scores_text,rankings_text,message", INGEST_ERRORS.values(), ids=INGEST_ERRORS)
def test_ingest_error_messages(tmp_path, scores_text, rankings_text, message):
    scores = None if scores_text is None else write(tmp_path / "s.csv", scores_text)
    rankings = None if rankings_text is None else write(tmp_path / "r.csv", rankings_text)
    with pytest.raises(IngestError) as info:
        ingest(scores, rankings, ScoreScale(min=0, max=3, step=1))
    assert str(info.value) == message.format(s=scores, r=rankings)


def test_ingest_names_an_unreadable_file(tmp_path):
    path = str(tmp_path / "absent.csv")
    with pytest.raises(IngestError) as info:
        ingest(None, path, ScoreScale(min=0, max=3, step=1))
    assert str(info.value) == f"cannot read {path}: [Errno 2] No such file or directory: {path!r}"


def test_ingest_rejects_duplicate_in_ranking(tmp_path):
    scores = write(tmp_path / "s.csv", "judge,a,b\nj1,1,2\n")
    rankings = write(tmp_path / "r.csv", "judge,rank1,rank2\nj1,a,a\n")
    with pytest.raises(IngestError, match="duplicate object"):
        ingest(scores, rankings, ScoreScale(min=0, max=3, step=1))


def test_ingest_rejects_unknown_label(tmp_path):
    scores = write(tmp_path / "s.csv", "judge,a,b\nj1,1,2\n")
    rankings = write(tmp_path / "r.csv", "judge,rank1\nj1,zzz\n")
    with pytest.raises(IngestError, match="unknown object label"):
        ingest(scores, rankings, ScoreScale(min=0, max=3, step=1))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def simulate_files(tmp_path, seed=5, I=6, J=4, R=3, M=8, theta=3.0):
    out = tmp_path / "sim"
    code = main(["simulate", "--I", str(I), "--J", str(J), "--R", str(R), "--M", str(M),
                 "--theta", str(theta), "--seed", str(seed), "--out-dir", str(out)])
    assert code == EXIT_OK
    return out


def data_flags(out, M):
    return ["--scores", str(out / "scores.csv"), "--rankings", str(out / "rankings.csv"),
            "--scale-min", "0", "--scale-max", str(M), "--scale-step", "1"]


def test_simulate_round_trips_through_ingest(tmp_path):
    out = simulate_files(tmp_path, seed=5, I=6, J=4, R=3, M=8, theta=3.0)
    scale = ScoreScale(min=0, max=8, step=1)
    ds, labels, judges = ingest(str(out / "scores.csv"), str(out / "rankings.csv"), scale)
    rng = np.random.default_rng(5)
    p = rng.uniform(size=4)
    truth = Parameters(p=p, theta=3.0, consensus_order=order_of(p))
    expected = sample(truth, 6, 8, 3, rng)
    assert np.array_equal(ds.scores, expected.scores)
    assert ds.rankings == expected.rankings
    truth_doc = json.loads((out / "truth.json").read_text())
    assert truth_doc["consensus_order"] == [labels[j] for j in truth.consensus_order]


def ingest_outcome(read, scores, rankings, scale):
    """The score bytes, rankings, labels and judge ids an ingest gives, or
    its error message."""
    try:
        dataset, labels, judges = read(scores, rankings, scale)
    except IngestError as err:
        return str(err)
    return dataset.scores.tobytes(), dataset.rankings, labels, judges


# Cells that put a raw score off the scale, given the scale and the raw
# score of the cell they replace.
FAULTY_CELLS = (
    lambda scale, raw: "nan", lambda scale, raw: "inf", lambda scale, raw: "-inf", lambda scale, raw: "1e400",
    lambda scale, raw: "x", lambda scale, raw: repr(raw + scale.step / 2), lambda scale, raw: repr(scale.max + scale.step),
    lambda scale, raw: repr(scale.min - 1e-8), lambda scale, raw: f"{raw:.3f}z",
)


@pytest.mark.parametrize("seed", range(16))
def test_ingest_matches_the_per_cell_reference(tmp_path, seed):
    # Seeded simulate panels on a raw scale, either polarity, with blank
    # cells and cells at the edges of the tolerances: the Dataset is the
    # per-cell reference's bit for bit. Then one to three faulty cells per
    # variant, and sometimes a short row: the message is the reference's,
    # so the first fault in file order is the one reported.
    rng = np.random.default_rng(seed)
    J = int(rng.integers(2, 7))
    M, I = int(rng.integers(1, 6)), int(rng.integers(1, 10))
    out = simulate_files(tmp_path, seed=seed, I=I, J=J, R=int(rng.integers(1, J + 1)), M=M, theta=1.0)
    step = [1.0, 0.5, 0.1, 0.25][seed % 4]
    low = [0.0, 1.0, -2.0][seed % 3]
    scale = ScoreScale(min=low, max=low + step * M, step=step, higher_is_better=bool(seed % 2))
    header, *rows = [line.split(",") for line in (out / "scores.csv").read_text().splitlines()]
    raws = [[scale.to_raw(int(cell)) for cell in row[1:]] for row in rows]

    def edge(raw):  # a raw score the scale still takes: blank, -0, or within a tolerance
        return rng.choice(["", repr(raw), repr(raw + 4e-10), repr(raw - 4e-10), "-0" if raw == 0 else " "])

    clean = [[row[0], *(edge(raw) if rng.random() < 0.4 else repr(raw) for raw in raw_row)]
             for row, raw_row in zip(rows, raws)]
    variants = [clean]
    for _ in range(6):
        cells = [list(row) for row in clean]
        for _ in range(int(rng.integers(1, 4))):
            i, j = int(rng.integers(len(cells))), int(rng.integers(1, J + 1))
            cells[i][j] = FAULTY_CELLS[int(rng.integers(len(FAULTY_CELLS)))](scale, raws[i][j - 1])
        if rng.random() < 0.3:
            del cells[int(rng.integers(len(cells)))][-1]  # a short row
        variants.append(cells)
    outcomes = set()
    for k, cells in enumerate(variants):
        path = write(tmp_path / f"s{k}.csv", "\n".join(",".join(row) for row in [header, *cells]) + "\n")
        for rankings in (None, str(out / "rankings.csv")):
            expected = ingest_outcome(reference_ingest, path, rankings, scale)
            assert ingest_outcome(ingest, path, rankings, scale) == expected
            outcomes.add(type(expected))
    assert outcomes == {tuple, str}


def test_simulate_strong_consensus(tmp_path):
    out = simulate_files(tmp_path, seed=2, I=10, J=4, R=4, M=5, theta=50.0)
    scale = ScoreScale(min=0, max=5, step=1)
    ds, _, _ = ingest(str(out / "scores.csv"), str(out / "rankings.csv"), scale)
    truth = json.loads((out / "truth.json").read_text())
    labels = [f"o{j+1}" for j in range(4)]
    consensus = tuple(labels.index(v) for v in truth["consensus_order"])
    matches = sum(r == consensus for r in ds.rankings)
    assert matches >= 9


def test_fit_json_and_heuristic_equivalence(tmp_path, capsys):
    out = simulate_files(tmp_path, seed=7, I=8, J=4, R=3, M=8, theta=2.0)
    docs = {}
    for method in ("exact-crude", "exact-lp"):
        path = tmp_path / f"{method}.json"
        code = main(["fit", *data_flags(out, 8), "--method", method, "--out", str(path)])
        assert code == EXIT_OK
        docs[method] = json.loads(path.read_text())
    a, b = docs["exact-crude"], docs["exact-lp"]
    for key in ("p", "theta", "consensus_order", "expected_score", "f_value"):
        assert json.dumps(a[key]) == json.dumps(b[key])
    assert a["nodes_expanded"] >= 1
    assert set(a) >= {"labels", "method", "theta_flag", "non_identified", "optimal",
                      "budget_exhausted", "candidate_evaluations", "elapsed_seconds"}


def test_fit_brute_cap_exit_code(tmp_path):
    out = simulate_files(tmp_path, seed=9, I=4, J=8, R=3, M=5, theta=2.0)
    code = main(["fit", *data_flags(out, 5), "--method", "brute"])
    assert code == EXIT_BUDGET


def test_fit_missing_file_is_input_error(tmp_path):
    code = main(["fit", "--scores", str(tmp_path / "nope.csv"),
                 "--scale-min", "0", "--scale-max", "5", "--scale-step", "1"])
    assert code == EXIT_INPUT


def test_fit_rejects_a_blank_object_label(tmp_path, capsys):
    # a trailing comma in a spreadsheet export must not add an object labelled ""
    scores = write(tmp_path / "s.csv", "judge,a,\nj1,1,2\n")
    code = main(["fit", "--scores", scores, "--scale-min", "0", "--scale-max", "3", "--scale-step", "1"])
    assert code == EXIT_INPUT
    assert f"{scores} column 3: blank object label in header" in capsys.readouterr().err


def test_fit_requires_scale_max(tmp_path):
    with pytest.raises(SystemExit):
        main(["fit", "--scores", "x.csv"])


COMMAND_NAMES = [name for name, *_ in cli.COMMANDS]
EVERY_FLAG = {
    "fit": ["--scores", "s.csv", "--rankings", "r.csv", "--scale-min", "1", "--scale-max", "5",
            "--scale-step", "0.5", "--higher-is-better", "--method", "greedy",
            "--theta-max", "2", "--node-budget", "9", "--candidate-cap", "4", "--out", "o.json"],
    "simulate": ["--I", "4", "--J", "3", "--R", "2", "--M", "5", "--theta", "1.5", "--p", "0.1,0.2,0.3",
                 "--seed", "2", "--out-dir", "sim"],
    "benchmark": ["--grid-I", "4", "--grid-M", "5", "--grid-J", "3", "--grid-R", "2", "--grid-theta", "1",
                  "--trials", "2", "--algorithms", "greedy", "--seed", "1", "--theta-max", "3",
                  "--node-budget", "7", "--out", "b.csv"],
    "bias-demo": ["--p0", "0.2,0.8", "--theta0", "2", "--M", "2", "--R", "1", "--theta-max", "4",
                  "--out", "bias.json"],
}
EVERY_FLAG["bootstrap"] = EVERY_FLAG["compare"] = [*EVERY_FLAG["fit"], "--seed", "3", "--B", "7", "--level", "0.8",
                                                   "--jobs", "2"]


def subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def exit_outcome(capsys, run, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def record_commands(monkeypatch) -> list[dict]:
    """Swap every command's handler for one that records its parsed flags
    and returns EXIT_OK; returns the list they land in."""
    seen = []
    monkeypatch.setattr(cli, "COMMANDS", tuple(
        (name, text, add_flags, lambda args: seen.append(vars(args)) or EXIT_OK)
        for name, text, add_flags, _ in cli.COMMANDS))
    return seen


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["fot"], ["fit", "--scores", "x.csv"], *([name, "--help"] for name in COMMAND_NAMES),
    ["-h"], ["--he"], ["-x", "fit"], ["fit", "--scale-max", "3", "extra"], ["fit", "--scale-max"],
    ["fit", "--scale-max", "3", "--method", "nope"], ["bootstrap", "--scale-max", "3", "--B", "x"],
    *([name, "-h"] for name in COMMAND_NAMES),
    ["fit", "--scale-max", "3", "--", "x"], ["fit", "--scale-max", "3", "--"], ["fit", "--", "--scale-max", "3"],
    ["fit", "--sco", "x.csv", "--scale-max", "3"], ["fit", "--scale-max=3"],
    ["fit", "--scale-max", "3", "--method", "greedy", "--scale-max", "4"],
    ["bootstrap", "--scale-max", "3", "--B", "2", "extra"], ["fit", "--scale-max", "3", "-x"],
])
def test_help_and_usage_errors_match_the_parser_with_every_flag(monkeypatch, capsys, argv):
    # main parses with a parser of only the subcommand its first argument
    # names; help, usage, errors and parsed flags read as from the parser of
    # all six, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    seen = record_commands(monkeypatch)
    try:
        full = (cli.build_parser().parse_args(argv), "", "")
    except SystemExit as info:
        captured = capsys.readouterr()
        full = (info.code, captured.out, captured.err)
        assert full[0] == (0 if {"-h", "--he", "--help"} & set(argv) else 2) and full[1] + full[2]
        assert exit_outcome(capsys, main, argv) == full
    else:
        assert main(argv) == EXIT_OK and capsys.readouterr() == ("", "")
        assert seen == [vars(full[0])]


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_every_flag_parses_as_with_the_parser_with_every_flag(monkeypatch, command):
    seen = record_commands(monkeypatch)
    argv = [command, *EVERY_FLAG[command]]
    full = cli.build_parser()
    flags = {flag for action in subparsers(full)[command]._actions for flag in action.option_strings}
    assert flags - {"-h", "--help"} <= set(argv)
    assert main(argv) == EXIT_OK
    assert seen == [vars(full.parse_args(argv))]


def test_a_fit_builds_no_flag_of_another_command(tmp_path, monkeypatch):
    # no parser of every subcommand, and no flag of another command
    out = simulate_files(tmp_path, seed=7, I=8, J=4, R=3, M=8, theta=2.0)
    full = subparsers(cli.build_parser())["fit"]
    built = []

    class Recorded(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Recorded))
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("built the parser of every subcommand"))
    assert main(["fit", *data_flags(out, 8), "--out", str(tmp_path / "fit.json")]) == EXIT_OK
    (parser,) = built
    assert parser.format_help() == full.format_help() and parser.format_usage() == full.format_usage()
    assert [action.option_strings for action in parser._actions] == [action.option_strings for action in full._actions]


def test_fit_has_no_seed_flag(capsys):
    # no method fit runs draws a random number; bootstrap and compare do
    code, _, err = exit_outcome(capsys, main, ["fit", "--scores", "x.csv", "--scale-max", "5", "--seed", "1"])
    assert code == 2 and "unrecognized arguments: --seed 1" in err


def test_fit_rejects_nan_and_inf_theta_max(tmp_path, capsys):
    out = simulate_files(tmp_path, seed=1, I=6, J=4, R=4, M=5, theta=1.0)
    for value in ("nan", "inf"):
        assert main(["fit", *data_flags(out, 5), "--theta-max", value]) == EXIT_INPUT
        assert "--theta-max must be positive" in capsys.readouterr().err


def test_fit_accepts_a_theta_max_just_above_the_floor(tmp_path):
    # The CLI rejects caps up to THETA_FLOOR (RUN_OPTION_ERRORS) and no more
    # than the fitters do.
    out = simulate_files(tmp_path, seed=1, I=6, J=4, R=4, M=5, theta=1.0)
    doc_path = tmp_path / "fit.json"
    assert main(["fit", *data_flags(out, 5), "--theta-max", "2e-8", "--out", str(doc_path)]) == EXIT_OK
    assert json.loads(doc_path.read_text())["theta"] == 2e-8


def test_run_commands_reject_jobs_below_one(tmp_path, capsys):
    # rejected before any data is read, so no worker process starts
    out = simulate_files(tmp_path, seed=3, I=6, J=4, R=3, M=8, theta=2.0)
    for command in ("bootstrap", "compare"):
        for jobs in ("0", "-3"):
            code = main([command, *data_flags(out, 8), "--jobs", jobs, "--out", str(tmp_path / "x.json")])
            assert code == EXIT_INPUT
            assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


RUN_OPTION_ERRORS = {
    "--B": (["0"], "--B must be at least 1"),
    "--level": (["0", "1", "nan"], "--level must lie strictly between 0 and 1"),
    "--theta-max": (["0", "1e-9", "1e-8"], "--theta-max must be positive and finite, above the scale floor 1e-08"),
    "--node-budget": (["0"], "--node-budget and --candidate-cap must be positive"),
    "--candidate-cap": (["0"], "--node-budget and --candidate-cap must be positive"),
    "--seed": (["-1"], "--seed must be non-negative"),
    "--trials": (["0", "-2"], "--trials must be at least 1"),
    "--I": (["0", "-2"], "--I must be at least 1"),
    "--grid-I": (["0", "-1", "5,0"], "--grid-I entries must be at least 1"),
    "--J": (["0", "-1"], "--J must be at least 1"),
    "--R": (["0", "-2"], "--R must be at least 1"),
    "--M": (["0", "-1"], "--M, the score scale, must be at least 1"),
    "--grid-M": (["0", "5,-1"], "--grid-M entries must be at least 1"),
    "--grid-J": (["0", "-1"], "--grid-J entries must be at least 1"),
    "--grid-R": (["-2", "3,0"], "--grid-R entries must be at least 1"),
    "--theta": (["0", "-1", "inf", "nan"], "--theta must be positive and finite"),
    "--grid-theta": (["-1", "2,0", "inf", "nan"], "--grid-theta entries must be positive and finite"),
    "--p": (["0.1,nan,0.3", "0.1,1.5,0.3", "0.1,-0.1,0.3", "x"],
            "--p must be 'uniform' or a comma-separated list of numbers in [0, 1]"),
    "--p0": (["0.1,nan", "nan", "0.5,1.5", "0.5,-0.2", ","], "--p0 must be a comma-separated list of numbers in [0, 1]"),
}
COMMAND_RUN_OPTIONS = {
    "fit": ("--theta-max", "--node-budget", "--candidate-cap"),
    "bootstrap": ("--B", "--level", "--theta-max", "--node-budget", "--candidate-cap", "--seed"),
    "compare": ("--B", "--level", "--theta-max", "--node-budget", "--candidate-cap", "--seed"),
    "simulate": ("--seed", "--I", "--J", "--R", "--M", "--theta", "--p"),
    "bias-demo": ("--p0",),
    "benchmark": ("--theta-max", "--node-budget", "--seed", "--trials",
                  "--grid-I", "--grid-M", "--grid-J", "--grid-R", "--grid-theta"),
}


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value)
    for command, flags in COMMAND_RUN_OPTIONS.items()
    for flag in flags
    for value in RUN_OPTION_ERRORS[flag][0]
])
def test_run_commands_reject_out_of_range_options(tmp_path, capsys, command, flag, value):
    # every range check on a run option fires before any file is read or written
    out = tmp_path / "x.json"
    base = {
        "simulate": ["--I", "4", "--J", "3", "--R", "3", "--M", "2", "--theta", "1",
                     "--out-dir", str(tmp_path / "sim")],
        "benchmark": ["--out", str(out)],
        "bias-demo": ["--out", str(out)],
    }.get(command, ["--scores", str(tmp_path / "absent.csv"), "--scale-max", "5", "--out", str(out)])
    assert main([command, *base, flag, value]) == EXIT_INPUT
    assert RUN_OPTION_ERRORS[flag][1] in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "sim").exists()


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--I", "4", "--J", "-1", "--R", "-2", "--M", "2", "--theta", "1"], "--J"),
    (["simulate", "--I", "4", "--J", "3", "--R", "2", "--M", "-1", "--theta", "1"], "--M"),
    (["benchmark", "--grid-J", "-1", "--grid-R", "-2"], "--grid-J"),
    (["bias-demo", "--p0", ","], "--p0"),
    (["bias-demo", "--theta0", "-1"], "--theta0"),
])
def test_numeric_flags_numpy_rejected_are_named(tmp_path, capsys, argv, flag):
    # Each of these reached numpy, float() or the model's own checks and
    # exited 2 with their message ("negative dimensions are not allowed",
    # "n < 0", "could not convert string to float: ''", "theta must be
    # positive and finite"), which named no flag.
    out = ["--out-dir", str(tmp_path / "sim")] if argv[0] == "simulate" else ["--out", str(tmp_path / "x")]
    assert main([*argv, *out]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert re.match(rf"error: {flag}\b", err) and err.count("\n") == 1 and "Traceback" not in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags,named", [
    (["--scale-max", "inf"], "--scale-max"),
    (["--scale-min=-inf", "--scale-max", "inf"], "--scale-min"),
    (["--scale-max", "nan"], "--scale-max"),
    (["--scale-max", "5", "--scale-step", "nan"], "--scale-step"),
])
def test_non_finite_score_scale_exits_2(tmp_path, capsys, flags, named):
    scores = write(tmp_path / "s.csv", "judge,a,b\nj1,1,2\n")
    assert main(["fit", "--scores", scores, *flags]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_non_finite_score_cell_names_row_and_column(tmp_path, capsys):
    scores = write(tmp_path / "s.csv", "judge,a,b\nj1,1,2\nj2,nan,3\n")
    assert main(["fit", "--scores", scores, "--scale-max", "5"]) == EXIT_INPUT
    assert "row 3 column 2" in capsys.readouterr().err


def _write_failure_cases(tmp_path):
    """(argv, path named in the message) of every command that writes, each
    with an output it cannot write: under a missing directory, or where a
    directory or a file is in the way."""
    out = simulate_files(tmp_path, seed=3, I=6, J=4, R=3, M=8, theta=2.0)
    missing = tmp_path / "missing" / "dir"
    boot, blocked = tmp_path / "boot.json", tmp_path / "blocked"
    (tmp_path / "boot.json.ranks.csv").mkdir()  # the JSON lands, the rank CSV cannot
    (blocked / "rankings.csv").mkdir(parents=True)  # scores.csv lands, rankings.csv cannot
    a_file = write(tmp_path / "a_file", "")
    run = ["--B", "3", "--seed", "1"]
    grid = ["--grid-I", "4", "--grid-M", "5", "--grid-J", "3", "--grid-R", "2", "--grid-theta", "2", "--trials", "1"]
    simulate = ["simulate", "--I", "4", "--J", "3", "--R", "2", "--M", "5", "--theta", "1", "--out-dir"]
    return {
        "fit": (["fit", *data_flags(out, 8), "--out", str(missing / "fit.json")], missing / "fit.json"),
        "bootstrap json": (["bootstrap", *data_flags(out, 8), *run, "--out", str(missing / "b.json")],
                           missing / "b.json"),
        "bootstrap ranks csv": (["bootstrap", *data_flags(out, 8), *run, "--out", str(boot)],
                                tmp_path / "boot.json.ranks.csv"),
        "compare": (["compare", *data_flags(out, 8), *run, "--out", str(missing / "c.json")], missing / "c.json"),
        "benchmark": (["benchmark", *grid, "--out", str(missing / "b.csv")], missing / "b.csv"),
        "bias-demo": (["bias-demo", "--out", str(missing / "bias.json")], missing / "bias.json"),
        "fit under a file": (["fit", *data_flags(out, 8), "--out", str(Path(a_file) / "fit.json")],
                             Path(a_file) / "fit.json"),
        "simulate onto a file": ([*simulate, a_file], a_file),
        "simulate under a file": ([*simulate, str(Path(a_file) / "sim")], Path(a_file) / "sim"),
        "simulate rankings csv": ([*simulate, str(blocked)], blocked / "rankings.csv"),
    }


WRITE_FAILURES = ["fit", "bootstrap json", "bootstrap ranks csv", "compare", "benchmark", "bias-demo",
                  "fit under a file", "simulate onto a file", "simulate under a file", "simulate rankings csv"]


@pytest.mark.parametrize("case", WRITE_FAILURES)
def test_an_output_that_cannot_be_written_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    argv, path = _write_failure_cases(tmp_path)[case]
    before = sorted(tmp_path.rglob("*"))
    if not case.startswith("simulate"):
        # an --out is checked before the data is read: no fit runs, no file is made
        for module, name in ((cli, "ingest"), *((cli.inference, name) for name in (
                "fit_method", "bootstrap", "benchmark_grid", "bias_enumeration"))):
            monkeypatch.setattr(module, name, lambda *args, _name=name, **kwargs: pytest.fail(f"{_name} ran"))
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1, err
    assert err.startswith(f"error: cannot write {path}: [Errno "), err
    if not case.startswith("simulate"):
        assert sorted(tmp_path.rglob("*")) == before
        with pytest.raises(OSError) as info:  # the error writing would have raised
            open(path, "w")
        assert err == f"error: cannot write {path}: {info.value}\n"


def test_solver_failure_exits_4(tmp_path, monkeypatch):
    from mallows_binomial import inference
    from mallows_binomial.kemeny_lp import SimplexError

    def fail(*args, **kwargs):
        raise SimplexError("pivot budget exceeded")

    out = simulate_files(tmp_path, seed=3, I=6, J=4, R=3, M=8, theta=2.0)
    monkeypatch.setattr(inference, "fit_method", fail)
    assert main(["fit", *data_flags(out, 8)]) == EXIT_SOLVER


def test_bootstrap_reproducible_bytes(tmp_path):
    out = simulate_files(tmp_path, seed=3, I=6, J=4, R=3, M=8, theta=2.0)
    blobs = []
    for name in ("b1", "b2"):
        path = tmp_path / f"{name}.json"
        code = main(["bootstrap", *data_flags(out, 8), "--method", "greedy-local",
                     "--B", "30", "--level", "0.9", "--seed", "11", "--out", str(path)])
        assert code == EXIT_OK
        csv_path = path.with_suffix(".json.ranks.csv")
        blobs.append((path.read_bytes(), csv_path.read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    header = blobs[0][1].decode().splitlines()[0]
    assert header == "object,point_rank,lower,upper"


def test_bootstrap_counts_budget_exhausted_replicates(tmp_path):
    # A replicate whose A* runs out of node budget still enters the
    # intervals, at the best order found; the JSON counts them, and the
    # command exits 3 though its point fit finished inside the budget. The
    # count is recomputed from each replicate's resample, drawn as the
    # bootstrap draws it.
    out = simulate_files(tmp_path, seed=3, I=10, J=6, R=6, M=5, theta=0.3)
    path = tmp_path / "boot.json"
    B, seed, budget = 12, 3, 8
    code = main(["bootstrap", *data_flags(out, 5), "--method", "exact-crude", "--B", str(B),
                 "--seed", str(seed), "--node-budget", str(budget), "--out", str(path)])
    assert code == EXIT_BUDGET
    dataset, _, _ = ingest(str(out / "scores.csv"), str(out / "rankings.csv"), ScoreScale(0, 5, 1))
    exhausted = [mallows_binomial.astar(mallows_binomial.compute_stats(dataset, idx), node_budget=budget).budget_exhausted
                 for idx in (np.random.default_rng([seed, rep]).integers(0, dataset.I, size=dataset.I)
                             for rep in range(B))]
    doc = json.loads(path.read_text())
    assert doc["n_failed"] == 0
    assert doc["n_budget_exhausted"] == sum(exhausted) == 4
    assert not mallows_binomial.astar(mallows_binomial.compute_stats(dataset), node_budget=budget).budget_exhausted
    # with a budget every replicate finishes in, the exit code is 0 again
    code = main(["bootstrap", *data_flags(out, 5), "--method", "exact-crude", "--B", str(B),
                 "--seed", str(seed), "--out", str(path)])
    assert code == EXIT_OK and json.loads(path.read_text())["n_budget_exhausted"] == 0


def test_benchmark_csv(tmp_path):
    path = tmp_path / "bench.csv"
    code = main(["benchmark", "--grid-I", "4", "--grid-M", "5", "--grid-J", "4",
                 "--grid-R", "3", "--grid-theta", "2", "--trials", "2",
                 "--seed", "1", "--out", str(path)])
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0].startswith("I,M,J,R,theta,trial,algorithm,seconds,nodes_expanded")
    assert len(lines) == 1 + 2 * 5
    for line in lines[1:]:
        if ",exact-" in line:
            cells = line.split(",")
            assert cells[11] == "1" and cells[12] == "0"  # exact_match, kendall distance


@pytest.mark.parametrize("grid", [["--grid-J", "3", "--grid-R", "5"], ["--grid-I", ""]])
def test_benchmark_rejects_an_empty_grid(tmp_path, capsys, grid):
    path = tmp_path / "bench.csv"
    assert main(["benchmark", *grid, "--out", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--grid-J" in err and "--grid-R" in err and "Traceback" not in err
    assert not path.exists()


def compare_fixture(tmp_path):
    scores_text = "judge,a,b,c,d,e\n" + "".join(
        f"j{i},1,3,5,7,9\n" for i in range(1, 7))
    rank_rows = ["j1,a,b", "j2,a,b", "j3,b,a", "j4,a,c", "j5,b,c", "j6,a,b"]
    rankings_text = "judge,rank1,rank2\n" + "\n".join(rank_rows) + "\n"
    scores = write(tmp_path / "cs.csv", scores_text)
    rankings = write(tmp_path / "cr.csv", rankings_text)
    return scores, rankings


def test_compare_command(tmp_path):
    scores, rankings = compare_fixture(tmp_path)
    path = tmp_path / "compare.json"
    code = main(["compare", "--scores", scores, "--rankings", rankings,
                 "--scale-min", "0", "--scale-max", "10", "--scale-step", "1",
                 "--B", "40", "--seed", "4", "--out", str(path)])
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    models = doc["models"]
    assert set(models) == {"mallows-binomial", "converted-scores", "only-scores",
                           "converted-rankings", "only-rankings"}
    assert "theta" not in models["only-scores"]
    assert "theta" not in models["converted-scores"]
    assert "p" not in models["converted-rankings"]
    assert "p" not in models["only-rankings"]
    assert "theta" in models["mallows-binomial"]
    assert "p" in models["mallows-binomial"]
    # never-ranked objects d and e: the rankings-only model cannot pin them
    # any tighter than the joint model does
    labels = doc["labels"]
    mb = models["mallows-binomial"]["rank_intervals"]
    onlyr = models["only-rankings"]["rank_intervals"]
    for obj in ("d", "e"):
        j = labels.index(obj)
        width_mb = mb[j][1] - mb[j][0]
        width_or = onlyr[j][1] - onlyr[j][0]
        assert width_or >= width_mb


def one_ranker_panel(tmp_path, scored):
    """Six judges and three objects; only j1 ranks, and the judges in scored
    give scores."""
    rows = {1: "1,3,5", 2: "2,4,6", 3: "1,2,3", 4: "3,2,1", 5: "5,5,4", 6: "2,3,1"}
    scores = write(tmp_path / "s.csv", "judge,a,b,c\n" + "".join(
        f"j{i},{rows[i] if i in scored else ',,'}\n" for i in range(1, 7)))
    rankings = write(tmp_path / "r.csv", "judge,rank1,rank2,rank3\nj1,a,b,c\n" + "".join(
        f"j{i},,,\n" for i in range(2, 7)))
    return ["--scores", scores, "--rankings", rankings, "--scale-min", "0", "--scale-max", "10",
            "--scale-step", "1"]


def test_bootstrap_with_no_fittable_replicate_is_a_data_error(tmp_path, capsys):
    # At seed 4 the one replicate leaves j1 out. In compare only the
    # rankings-only model loses its ranking judge, and it gets an error
    # entry; in bootstrap, with j1 the only judge left with any data, the
    # command exits 2 without a traceback.
    path = tmp_path / "out.json"
    flags = one_ranker_panel(tmp_path, scored=range(1, 7))
    assert main(["compare", *flags, "--B", "1", "--seed", "4", "--out", str(path)]) == EXIT_OK
    models = json.loads(path.read_text())["models"]
    assert models["only-rankings"] == {"error": "every bootstrap replicate failed; cannot form intervals "
                                                "(replicate 0: only-rankings requires at least one ranking)"}
    assert all("error" not in fields for model, fields in models.items() if model != "only-rankings")
    flags = one_ranker_panel(tmp_path, scored=(1,))
    assert main(["bootstrap", *flags, "--B", "1", "--seed", "4", "--out", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "every bootstrap replicate failed" in err and "Traceback" not in err


def test_bias_demo_values_and_permutation(tmp_path, capsys):
    path = tmp_path / "bias.json"
    code = main(["bias-demo", "--out", str(path)])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "P(theta_hat at cap)" in captured
    doc = json.loads(path.read_text())
    assert np.allclose(doc["bias"], [0.0419, 0.0192, -0.0610], atol=1e-3)
    assert doc["theta_cap_probability"] > 0
    flipped = tmp_path / "bias2.json"
    code = main(["bias-demo", "--p0", "0.9,0.4,0.1", "--out", str(flipped)])
    assert code == EXIT_OK
    doc2 = json.loads(flipped.read_text())
    assert np.allclose(doc2["bias"], doc["bias"][::-1], atol=1e-10)


def test_bias_demo_rejects_ranking_length_outside_1_to_J(capsys):
    for R in ("5", "0", "-1"):
        assert main(["bias-demo", "--R", R, "--p0", "0.1,0.4,0.9"]) == EXIT_INPUT
        assert "R <= J" in capsys.readouterr().err


def test_bias_demo_rejects_non_positive_theta_max(capsys):
    for value in ("0", "-1", "nan", "inf"):
        assert main(["bias-demo", "--theta-max", value]) == EXIT_INPUT
        assert "--theta-max must be positive" in capsys.readouterr().err


def test_bad_score_scale_exits_2(tmp_path, capsys):
    for M in ("0", "-1"):
        assert main(["bias-demo", "--M", M]) == EXIT_INPUT
        assert "score scale" in capsys.readouterr().err
    out = tmp_path / "sim"
    code = main(["simulate", "--I", "4", "--J", "3", "--R", "3", "--M", "0", "--theta", "1",
                 "--out-dir", str(out)])
    assert code == EXIT_INPUT
    assert "score scale" in capsys.readouterr().err
    assert not out.exists()


def test_bias_demo_rejects_nan_quality(capsys):
    assert main(["bias-demo", "--M", "1", "--R", "1", "--p0", "nan,0.4"]) == EXIT_INPUT
    assert "[0, 1]" in capsys.readouterr().err


def test_simulate_rejects_infinite_theta(tmp_path, capsys):
    for theta in ("inf", "nan"):
        out = tmp_path / f"sim-{theta}"
        code = main(["simulate", "--I", "4", "--J", "3", "--R", "3", "--M", "2", "--theta", theta,
                     "--out-dir", str(out)])
        assert code == EXIT_INPUT
        assert "theta must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


def test_bias_demo_deterministic(tmp_path, capsys):
    assert main(["bias-demo"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["bias-demo"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("module", ["mallows_binomial", "mallows_binomial.cli"])
def test_import_loads_no_scipy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(mallows_binomial.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env).stdout
    assert out.strip() == "[]"
    # -X importtime lists every module the import loads, one per line, with its name last
    listed = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"], capture_output=True,
                            text=True, check=True, env=env).stderr
    names = [line.rsplit("|", 1)[-1].strip() for line in listed.splitlines() if "|" in line]
    assert module in names
    assert [name for name in names if name.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_process_pool():
    # concurrent.futures pulls in multiprocessing, which only bootstrap --jobs > 1 uses
    code = ("import sys, mallows_binomial.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(Path(mallows_binomial.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# the CLI boundary, fuzzed
# ---------------------------------------------------------------------------

# Small, negative, NaN, infinite and blank values of each kind of flag. Every
# size stays small, so no drawn command runs long.
_INTS = ["0", "1", "2", "-1", "nan", "inf", "", "1.5"]
_FLOATS = ["0", "0.5", "1", "2", "-1", "nan", "inf", "-inf", "", "1e-9"]
_LISTS = ["", ",", "2", "3", "2,3", "1,", "-1", "0", "nan", "inf", "x"]
_CELLS = ["", "x", "nan", "-1", "1.5", "inf", "5", " 2"]
_LABELS = ["a", "b", "", "d", " b", "judge"]
_FLAGS = {
    "fit": {"--scale-min": _FLOATS, "--scale-max": ["4", "2", "0", "nan", "inf", "", "-1"],
            "--scale-step": _FLOATS, "--method": list(cli.inference.CORE_METHODS) + ["bogus"],
            "--theta-max": _FLOATS, "--node-budget": _INTS, "--candidate-cap": _INTS},
    "bootstrap": {"--B": ["1", "2", "0", "-1", "nan", ""], "--level": _FLOATS, "--seed": _INTS,
                  "--jobs": ["1", "0", "-1", "nan", ""], "--method": ["greedy", "exact-crude", "bogus"]},
    "simulate": {"--I": _INTS, "--J": _INTS, "--R": _INTS, "--M": _INTS, "--theta": _FLOATS,
                 "--p": ["uniform", "0.2,0.8", "", "nan", "2,0", "0.5", "x"], "--seed": _INTS},
    "benchmark": {"--grid-I": _LISTS, "--grid-M": _LISTS, "--grid-J": _LISTS, "--grid-R": _LISTS,
                  "--grid-theta": _LISTS, "--trials": ["1", "0", "-1", "nan", ""],
                  "--algorithms": ["greedy", "exact-crude", "", "bogus", "greedy,bogus"], "--theta-max": _FLOATS},
    "bias-demo": {"--p0": ["0.5", "0.2,0.7", "", ",", "nan", "inf,0.5", "-1,0.5", "0.2,x", "1,0"],
                  "--theta0": _FLOATS, "--M": ["1", "2", "0", "-1", "nan", ""], "--R": ["1", "2", "0", "-1", ""],
                  "--theta-max": _FLOATS},
}
# Flags every drawn argv carries, drawn or at these values: without them a
# command would run its default grid or B = 200 replicates.
_BASE = {
    "fit": ["--scale-max", "4"],
    "bootstrap": ["--scale-max", "4", "--B", "2", "--jobs", "1"],
    "simulate": ["--I", "2", "--J", "2", "--R", "2", "--M", "2", "--theta", "1"],
    "benchmark": ["--grid-I", "2", "--grid-M", "2", "--grid-J", "2", "--grid-R", "2", "--grid-theta", "1",
                  "--trials", "1", "--algorithms", "greedy"],
    "bias-demo": ["--p0", "0.2,0.7", "--M", "1"],
}


@st.composite
def _drawn_flags(draw, flags):
    """Up to three of a command's flags, each with one of its drawn values."""
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True))
    return [part for flag in chosen for part in (flag, draw(st.sampled_from(flags[flag])))]


@st.composite
def _csv_pair(draw):
    """Scores and rankings CSV text over labels a, b, c: a well-formed pair
    with up to two cells or rows made malformed."""
    judges = [f"j{i + 1}" for i in range(draw(st.integers(1, 4)))]
    scores = [["judge", "a", "b", "c"]] + [[judge] + draw(st.lists(st.sampled_from(["0", "1", "2", "4", ""]),
                                                                   min_size=3, max_size=3)) for judge in judges]
    rankings = [["judge", "rank1", "rank2"]] + [[judge] + draw(st.permutations(["a", "b", "c"]))[:2]
                                                for judge in judges]
    for _ in range(draw(st.integers(0, 2))):
        rows = draw(st.sampled_from([scores, rankings]))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        column = draw(st.integers(0, len(row) - 1))
        fault = draw(st.sampled_from(["cell", "drop", "extra"]))
        if fault == "cell":
            row[column] = draw(st.sampled_from(_CELLS if rows is scores else _LABELS))
        elif fault == "drop":
            del row[column]
        else:
            row.append(draw(st.sampled_from(_CELLS)))
    return tuple("".join(",".join(row) + "\n" for row in rows) for rows in (scores, rankings))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse's own errors
            code = stop.code
    return code, err.getvalue()


@pytest.mark.parametrize("command, examples", [("fit", 60), ("bootstrap", 20), ("compare", 12), ("simulate", 25),
                                               ("benchmark", 15), ("bias-demo", 25)])
def test_fuzzed_argv_exits_cleanly(command, examples, tmp_path_factory):
    # Whatever the flags and files hold, a command exits 0, 2 (bad input) or
    # 3 (budget), with at most one error line and never a traceback (exit 4).
    # Some drawn commands must run to the end, so the fuzz reaches the work.
    flags = _FLAGS["bootstrap" if command == "compare" else command]
    base = _BASE["bootstrap" if command == "compare" else command]
    codes, base_dir = set(), tmp_path_factory.mktemp(command)

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(_drawn_flags(flags), _csv_pair(), st.sampled_from(["files", "no-rankings", "no-scores", "missing",
                                                                "bad-out"]))
    def run(drawn, pair, files):
        folder = Path(tempfile.mkdtemp(dir=base_dir))
        argv = [command, *base, *drawn]
        scores, rankings = write(folder / "s.csv", pair[0]), write(folder / "r.csv", pair[1])
        out = str(folder / ("missing/out.json" if files == "bad-out" else "out.json"))
        if command in ("fit", "bootstrap", "compare"):
            argv += {"files": ["--scores", scores, "--rankings", rankings], "no-rankings": ["--scores", scores],
                     "no-scores": ["--rankings", rankings], "missing": ["--scores", str(folder / "none.csv")],
                     "bad-out": ["--scores", scores, "--rankings", rankings]}[files]
        argv += ["--out-dir", out] if command == "simulate" else ["--out", out]
        code, err = _run_cli(argv)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
        codes.add(code)

    run()
    assert {EXIT_OK, EXIT_INPUT} <= codes, codes
