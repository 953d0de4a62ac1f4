import argparse
import json
import os
import random
import stat
import subprocess
import threading
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import np2.cli
import np2.sweep
import np2.zeta
from np2.cli import main
from helpers import fresh_process, run_cli, run_python
from np2.field import TABLE_DEGREE_CAP
from np2.modsolve import EDGE_CAP, ModSolution


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_vss_subcommand(capsys):
    code, obj = run_json(capsys, ["vss", "--q", "2^1", "--coeffs", "13:1,11:1"])
    assert code == 0
    assert obj == {
        "sigma": [1, 2, 3, 4, 6, 8],
        "dim": 6,
        "vertex": [6, 2],
        "density": "1/3",
        "slope_above": None,
    }


def test_classify_subcommand(capsys):
    code, obj = run_json(capsys, ["classify", "--q", "2^1", "--coeffs", "25:1,13:1,23:1"])
    assert code == 0
    assert obj == {
        "case": "T2-iii",
        "n": 4,
        "hasse": "1",
        "vertex": [7, 2],
        "large_n_caveat": True,
    }
    code, obj = run_json(capsys, ["classify", "--q", "2^1", "--coeffs", "23:1"])
    assert code == 0
    assert obj["vertex"] is None
    assert obj["slope_at_least"] == "1/3"


def test_np_subcommand(capsys):
    code, obj = run_json(capsys, ["np", "--q", "2^1", "--coeffs", "7:1,3:1"])
    assert code == 0
    assert obj["first_vertex"] == [3, 1]
    assert obj["vertices"] == [[0, "0/1"], [3, "1/1"], [6, "3/1"]]


def test_zeta_subcommand(capsys):
    code, obj = run_json(capsys, ["zeta", "--q", "2^1", "--coeffs", "3:1", "--full"])
    assert code == 0
    assert obj == {"q": 2, "g": 1, "l": [1, 0, 2]}


def test_density_subcommand(capsys):
    code, obj = run_json(capsys, ["density", "--max", "13"])
    assert code == 0
    assert obj["value"] == "1/3"
    assert obj["certified"] is True
    assert obj["witness"] == {"digits": "7:1", "length": 3}
    code, obj = run_json(capsys, ["density", "--set", "1,3,5,7,9,11,13"])
    assert obj["value"] == "1/3"


@pytest.mark.parametrize(
    "argv, value, length, witness",
    [
        # the length loop ran the search up to length 26 here and then refused
        (["--set", "3,47"], "3/8", 16, "3:1,47:19521"),
        (["--set", "49"], "1/3", 3, "49:1"),
        (["--set", "9,61"], "5/14", 14, "9:1,61:537"),
        (["--set", "125"], "1/2", 4, "125:3"),
    ],
)
def test_density_of_sets_off_the_windows(capsys, argv, value, length, witness):
    t0 = time.perf_counter()
    code, obj = run_json(capsys, ["density"] + argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert (obj["value"], obj["length"]) == (value, length)
    assert obj["witness"] == {"digits": witness, "length": length}


def test_density_first_attained_at_length_60(capsys):
    # 61 divides 2^l - 1 only for 60 | l, so every solution of density 1/2
    # has a length divisible by 60, far past the length-by-length seed
    t0 = time.perf_counter()
    code, obj = run_json(capsys, ["density", "--set", "61"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert (obj["value"], obj["length"]) == ("1/2", 60)
    digits = tuple(np2.sweep.parse_coeffs(obj["witness"]["digits"]).items())
    assert ModSolution(obj["witness"]["length"], digits).density == Fraction(1, 2)


@pytest.mark.parametrize(
    "argv, seconds",
    [
        (["density", "--max", "20001"], 1.0),
        (["density", "--max", "200001"], 2.0),
        (["vss", "--q", "2", "--coeffs", "100001:1"], 2.0),
    ],
)
def test_large_set_refused_by_the_edge_cap_at_once(capsys, argv, seconds):
    # the seed stops inside the edge budget, so the edge cap's lower bound refuses the graph
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < seconds
    err = capsys.readouterr().err
    assert err.startswith("error: the support graph of ") and err.endswith(f"more than {EDGE_CAP}\n")


def test_minimal_subcommand(capsys):
    code, obj = run_json(
        capsys, ["minimal", "--max", "29", "--exclude", "15", "--target", "2/7"]
    )
    assert code == 0
    assert len(obj["classes"]) == 4
    assert all(c["density"] == "2/7" for c in obj["classes"])


@pytest.mark.parametrize("command", ["density", "minimal"])
@pytest.mark.parametrize("extra", [["--max", "5"], ["--exclude", "3"], ["--max=5", "--exclude=3"]])
def test_set_refuses_max_and_exclude(capsys, command, extra):
    # --set used to win silently over --max, and --exclude next to it was dropped
    assert main([command, "--set", "1,3", *extra]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: --set takes no --max or --exclude\n" and captured.out == ""


def test_spec_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--q", "3", "--g", "2"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["vss", "--q", "2^1", "--coeffs", "7:1,7:1"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["minimal", "--set", "1,3", "--target", "1/0"])
    assert exc.value.code == 3
    assert "is not num/den" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["density", "--set", "3,5", "--l-max", "0"])
    assert exc.value.code == 3
    for argv, message in [
        (["zeta", "--q", "1", "--coeffs", "3:1"], "argument --q: '1' is not a power of two"),
        (["zeta", "--q", "2^0", "--coeffs", "3:1"], "argument --q: '2^0' is not a power of two"),
        (["density", "--set", "1,x"], "argument --set: '1,x' is not a comma list of integers"),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
    # library-level errors return 3 without raising
    assert main(["classify", "--q", "2^1", "--coeffs", "5:1"]) == 3
    assert main(["minimal", "--set", "2,4"]) == 3
    capsys.readouterr()
    for argv, message in [
        (["density"], "give either --set or --max"),
        (["sweep", "--q", "2", "--g", "0"], "genus must be positive"),
        (["sweep", "--q", "4", "--g", "3", "--fix", "3:5"], "fixed value 5 outside F_4"),
        # an exhaustive family has no draws for them to set
        (["sweep", "--q", "2", "--g", "3", "--count", "5"], "an exhaustive sweep takes no seed or count"),
        (["sweep", "--q", "2", "--g", "3", "--exhaustive", "--seed", "1"],
         "an exhaustive sweep takes no seed or count"),
    ]:
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        # a target far above the density 1/5 of this window, where columns
        # with more than the fewest exponents could fit
        ["minimal", "--max", "61", "--exclude", "31", "--target", "1/2"],
        # past the extension-degree cap: extension degrees 23, 24 and 24
        ["np", "--q", "2", "--coeffs", "47:1"],
        ["zeta", "--q", "2", "--coeffs", "25:1", "--full"],
        ["sweep", "--q", "4", "--g", "12", "--random", "--count", "1"],
        ["minimal", "--set", "1,3", "--target", "0/1"],
        ["minimal", "--set", "1,3", "--target=-1/2"],
        # genus 0: y^2 + y = x has L-polynomial 1 and no first vertex
        ["vss", "--q", "2", "--coeffs", "1:1"],
    ],
)
def test_unsatisfiable_request_exits_3(capsys, monkeypatch, argv):
    def no_sums(*args):
        raise AssertionError("an exponential sum was computed before refusing")

    monkeypatch.setattr(np2.zeta, "exponential_sum", no_sums)
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if argv[0] in ("np", "zeta", "sweep"):
        assert "extension degree 2" in err and f"outside 1..{TABLE_DEGREE_CAP}" in err


@pytest.mark.parametrize("flag", ["--out", "--frontier"])
def test_unwritable_report_exits_3_before_any_curve(tmp_path, capsys, monkeypatch, flag):
    def no_curves(*args):
        raise AssertionError("a curve was evaluated before the reports were opened")

    for name, route in np2.sweep.ROUTES.items():
        monkeypatch.setitem(np2.sweep.ROUTES, name, replace(route, run=no_curves, family=no_curves))
    paths = {"--out": tmp_path / "g3.jsonl", "--frontier": tmp_path / "frontier.json"}
    paths[flag] = tmp_path / "missing" / "report"
    # the other report already exists and must keep its bytes
    (good,) = (p for name, p in paths.items() if name != flag)
    good.write_text("old\n")
    argv = ["sweep", "--q", "2", "--g", "3", "--exhaustive"]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "No such file or directory" in captured.err and captured.out == ""
    assert not paths[flag].exists() and good.read_text() == "old\n"


def test_refused_sweep_keeps_an_existing_report(tmp_path, capsys):
    # the oracle's extension-degree cap is checked before the report is opened
    out = tmp_path / "old.jsonl"
    out.write_text("old\n")
    argv = ["sweep", "--q", "4", "--g", "12", "--random", "--count", "1", "--out", str(out)]
    assert main(argv) == 3
    assert "extension degree 24 outside" in capsys.readouterr().err
    assert out.read_text() == "old\n"
    # without the oracle the same family is a valid sweep
    np2.sweep.SweepSpec(2, 12, "random", count=1, predictors=("vss", "hasse")).validate()


def test_random_sweep_past_the_curve_cap_exits_3(tmp_path, capsys):
    # refused before the draws are made and before the report is opened
    out = tmp_path / "big.jsonl"
    argv = ["sweep", "--q", "4", "--g", "9", "--random", "--count", "1048577"]
    t0 = time.perf_counter()
    assert main(argv + ["--predictors", "hasse", "--out", str(out)]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err == "error: random sweep of 1048577 curves, larger than 2^20\n"
    assert not out.exists()


def test_failed_sweep_leaves_no_new_report(tmp_path, capsys, monkeypatch):
    # the reports are opened, as temporary files beside them, before the
    # sweep runs; a sweep refused after that removes them and no other file
    out, frontier = tmp_path / "new.jsonl", tmp_path / "frontier.json"
    frontier.write_text("old frontier\n")
    argv = ["sweep", "--q", "2", "--g", "3", "--out", str(out), "--frontier", str(frontier)]

    def refused(spec):
        assert not out.exists() and len(list(tmp_path.glob(".new.jsonl.*.tmp"))) == 1
        raise ValueError("refused")

    monkeypatch.setattr(np2.cli, "run_sweep", refused)
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: refused\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frontier.json"]
    assert frontier.read_text() == "old frontier\n"
    monkeypatch.undo()
    # a new report takes its mode from the umask
    umask = os.umask(0o027)
    try:
        assert main(argv) == 0
    finally:
        os.umask(umask)
    capsys.readouterr()
    assert out.stat().st_mode & 0o777 == 0o640 and len(out.read_text().splitlines()) == 8


def test_sweep_writes_report(tmp_path, capsys):
    out = tmp_path / "g3.jsonl"
    frontier = tmp_path / "frontier.json"
    code = main(
        [
            "sweep", "--q", "2^1", "--g", "3", "--exhaustive",
            "--out", str(out), "--frontier", str(frontier),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    assert all(json.loads(line)["oracle"] == [3, "1/1"] for line in lines)
    front = json.loads(frontier.read_text())
    assert front["T1-i"]["oracle_agree"] == 8
    summary = json.loads(captured.err)
    assert summary["total"] == 8
    assert summary["disagreements"] == 0


def test_failed_report_write_keeps_existing_reports(tmp_path, capsys, monkeypatch):
    out = tmp_path / "g3.jsonl"
    frontier = tmp_path / "frontier.json"
    out.write_text("old report\n")
    frontier.write_text("old frontier\n")
    out.chmod(0o640)
    argv = ["sweep", "--q", "2", "--g", "3", "--exhaustive", "--out", str(out), "--frontier", str(frontier)]

    def full_disk(*sweeps):
        raise OSError(28, "No space left on device")

    # the report is written in full before the frontier table fails
    monkeypatch.setattr(np2.cli, "frontier_summary", full_disk)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 28] No space left on device\n" and captured.out == ""
    assert out.read_text() == "old report\n" and frontier.read_text() == "old frontier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frontier.json", "g3.jsonl"]
    monkeypatch.undo()
    # a finished sweep renames its reports over the old ones, keeping their mode
    assert main(argv) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 8 and "T1-i" in json.loads(frontier.read_text())
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frontier.json", "g3.jsonl"]
    # a symlinked report is written through, as opening it would
    link = tmp_path / "link.jsonl"
    link.symlink_to(out)
    out.write_text("old report\n")
    assert main(argv[:-4] + ["--out", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink() and len(out.read_text().splitlines()) == 8
    # two reports in one file are refused before any curve runs
    for same in (str(out), str(tmp_path / "." / "g3.jsonl"), str(link)):
        assert main(argv[:-2] + ["--frontier", same]) == 3
        assert capsys.readouterr().err == "error: --out and --frontier name the same file\n"
        assert len(out.read_text().splitlines()) == 8
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frontier.json", "g3.jsonl", "link.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_sweep_writes_a_fifo_in_place(tmp_path):
    # a FIFO report is written into, not replaced by a regular file
    fifo = tmp_path / "report"
    os.mkfifo(fifo)
    lines = []

    def read():
        with fifo.open() as fh:
            lines.extend(fh)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        done = run_cli(["sweep", "--q", "2", "--g", "3", "--out", str(fifo)], capture_output=True)
    finally:
        reader.join(10)
        if reader.is_alive():
            # the sweep never opened the FIFO: a writer that closes at once ends the read
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(10)
    assert done.returncode == 0, done.stderr
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert len(lines) == 8 and all(json.loads(line)["oracle"] == [3, "1/1"] for line in lines)


def test_sweep_writes_a_piped_stdout_in_place():
    # /dev/stdout into a pipe names no file a temporary could replace
    done = run_cli(["sweep", "--q", "2", "--g", "3", "--out", "/dev/stdout"], capture_output=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 8 and all(json.loads(line)["oracle"] == [3, "1/1"] for line in lines)
    assert json.loads(done.stderr)["total"] == 8


def test_report_to_an_appended_stdout_keeps_the_earlier_lines(tmp_path):
    # a shell's `>> log`: the report is written after what log holds
    log = tmp_path / "log"
    log.write_text("earlier\n")
    with log.open("a") as fh:
        done = run_cli(["sweep", "--q", "2", "--g", "3", "--out", "/dev/stdout"], stdout=fh, stderr=subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    lines = log.read_text().splitlines()
    assert lines[0] == "earlier" and len(lines) == 9
    assert all(json.loads(line)["oracle"] == [3, "1/1"] for line in lines[1:])
    assert json.loads(done.stderr)["total"] == 8


def test_report_to_a_redirected_stderr_keeps_the_summary(tmp_path):
    # a shell's `2> err.log`: the summary line follows the report
    err = tmp_path / "err.log"
    with err.open("w") as fh:
        done = run_cli(["sweep", "--q", "2", "--g", "3", "--out", "/dev/stderr"], stdout=subprocess.PIPE, stderr=fh)
    assert done.returncode == 0 and done.stdout == ""
    lines = err.read_text().splitlines()
    assert len(lines) == 9 and all(json.loads(line)["oracle"] == [3, "1/1"] for line in lines[:-1])
    assert json.loads(lines[-1])["total"] == 8


def test_frontier_on_the_stdout_report_is_refused(tmp_path):
    # without --out the report goes to stdout, so a frontier there would land in it
    argv = ["sweep", "--q", "2", "--g", "3", "--frontier", "/dev/stdout"]
    out = tmp_path / "out"
    with out.open("w") as fh:
        done = run_cli(argv, stdout=fh, stderr=subprocess.PIPE)
    assert done.returncode == 3 and out.read_text() == ""
    assert done.stderr == "error: stdout and --frontier name the same file\n"
    done = run_cli(argv, capture_output=True)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == "error: stdout and --frontier name the same file\n"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_genus16_sweep_memory(tmp_path):
    # exhaustive F_2 genus 16 (65536 curves) with both reports, in a fresh
    # process: the records are views of columns, not objects per curve
    out, frontier = tmp_path / "g16.jsonl", tmp_path / "g16.frontier.json"
    argv = ["sweep", "--q", "2", "--g", "16", "--exhaustive", "--out", str(out), "--frontier", str(frontier)]
    code, tables, peak_kb = fresh_process(f"import np2.cli\nprint(np2.cli.main({argv!r}))\n")
    assert code == "0" and tables == 0
    with out.open() as fh:
        assert sum(1 for _ in fh) == 1 << 16
    assert peak_kb < 110 * 1024


def test_sweep_random_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        [
            "sweep", "--q", "2^1", "--g", "3", "--random", "--seed", "42",
            "--count", "5", "--out", str(out), "--format", "csv",
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("q,g,coeffs,")


def test_sweep_disagreement_exit(tmp_path, capsys):
    argv = [
        "sweep", "--q", "2^1", "--g", "10", "--exhaustive",
        "--fix", "21:1,19:1,17:0,15:0,13:1,11:0,9:0,7:0,5:0,3:0,1:0",
        "--predictors", "oracle,hasse", "--out", str(tmp_path / "id.jsonl"),
    ]
    assert main(argv) == 2
    capsys.readouterr()
    assert main(argv + ["--expect-frontier"]) == 0
    capsys.readouterr()


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: all checks passed" in out
    assert out.count("ok - ") == 6


def test_selftest_reports_a_failed_check(capsys, monkeypatch):
    def broken():
        assert False

    checks = np2.cli._selftest_checks()
    monkeypatch.setattr(np2.cli, "_selftest_checks", lambda: [*checks, ("broken check", broken)])
    assert main(["selftest"]) == 2
    out = capsys.readouterr().out
    assert out.count("ok - ") == 6 and "FAIL - broken check\n" in out
    assert out.endswith("selftest: 1 check(s) failed\n")


def test_selftest_fails_under_python_O():
    # python -O strips assert statements; the checks must fail all the same
    code = (
        "import sys, types\n"
        "from fractions import Fraction\n"
        "import np2.cli\n"
        "np2.cli.density = lambda D: types.SimpleNamespace(value=Fraction(1, 2))\n"
        "sys.exit(np2.cli.main(['selftest']))\n"
    )
    done = run_python(["-O", "-c", code], capture_output=True)
    assert done.returncode == 2, done.stderr
    assert "FAIL - density and minimal solutions\n" in done.stdout


def test_refusal_abbreviates_a_long_exponent_set(capsys):
    # 501 exponents: the message names the count, the ends and the range
    assert main(["density", "--max", "1001"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "(1, 3, 5, ..., 997, 999, 1001; 501 exponents in 1..1001)" in err


# calls the parser of their command alone accepts
ACCEPTED = [
    ["zeta", "--q", "2", "--coeffs", "7:1,5:1"],
    ["zeta", "--q=2^1", "--coeffs", "3:1", "--fu"],
    ["np", "--q", "4", "--coeffs=7:1,3:2"],
    ["density", "--max", "13"],
    ["density", "--ma", "29", "--ex", "15"],
    ["density", "--max", "13", "--exclude", "-3"],
    ["density", "--max=13", "--exclude=-3,5"],
    ["density", "--max", "13", "--exclude=-3"],
    ["density", "--set", "3,47"],
    ["density"],
    ["minimal", "--max", "29", "--exclude", "15", "--target", "2/7"],
    ["minimal", "--set", "1,3", "--target=-1/2"],
    ["minimal", "--max", "13", "--max", "15"],
    ["vss", "--coeffs", "13:1,11:1", "--q", "2^1"],
    ["classify", "--q", "2", "--c", "29:1,23:1"],
    ["sweep", "--q", "2", "--g", "3"],
    ["sweep", "--q", "2", "--g", "3", "--exh", "--pred=oracle,vss"],
    [
        "sweep", "--q", "2", "--g", "-1", "--random", "--seed", "-5", "--count", "3", "--fix", "5:1",
        "--predictors", "vss", "--out", "r.csv", "--format", "csv", "--frontier", "f.json",
        "--timing", "--expect-frontier",
    ],
    ["sweep", "--q", "2", "--g", "3", "--out", ""],
    ["selftest"],
]

# calls it refuses, so that the full parser prints help or an error and exits
REFUSED = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-x"],
    ["frob"],
    ["density", "-h"],
    ["density", "--he"],
    ["sweep", "--help"],
    ["selftest", "-h"],
    ["sweep", "-h", "--q", "2"],
    ["density", "--max", "13", "-h"],
    ["sweep", "--q", "2", "--g", "3", "--out", "-h"],
    ["sweep", "--q", "2", "--g", "3", "--exhaustive", "--random"],
    ["sweep", "--q", "2", "--g", "3", "--e"],
    ["sweep", "--q", "2", "--g", "3", "--format", "xml"],
    ["vss", "--q", "3", "--coeffs", "7:1"],
    ["vss", "--q", "2"],
    ["np", "--q", "2", "--coeffs", "7"],
    ["density", "--max", "13", "extra"],
    ["density", "--max", "x"],
    ["density", "--bogus"],
    ["density", "--max"],
    ["density", "--max", "13", "--", "15"],
    ["selftest", "x"],
    ["minimal", "--set", "1,3", "--target", "1/0"],
    ["sweep", "--q", "2", "--g", "3", "--f", "x"],
    ["sweep", "--q", "2", "--g", "3", "--timing=1"],
    ["minimal", "--set", "1,3", "--target", "-1/2"],
    ["density", "--max", "13", "--"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_command_parser_matches_the_full_parser(argv):
    args = np2.cli._parse_command(argv[0], argv[1:])
    assert args is not None
    assert vars(args) == vars(np2.cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_call_is_reported_by_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, *capsys.readouterr()

    code, out, err = outcome(main)
    assert (code, out, err) == outcome(np2.cli.build_parser().parse_args)
    assert (code, bool(out), bool(err)) in ((0, True, False), (3, False, True))


def test_well_formed_call_builds_no_full_parser(capsys, monkeypatch):
    builds, parsers = [], []
    build_parser = np2.cli.build_parser
    init = argparse.ArgumentParser.__init__

    def counted():
        builds.append(1)
        return build_parser()

    def counted_init(self, *args, **kwargs):
        parsers.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(np2.cli, "build_parser", counted)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for argv in ACCEPTED:
        assert np2.cli._parse_command(argv[0], argv[1:]) is not None
    assert main(["density", "--max", "13"]) == 0
    assert (builds, parsers) == ([], [])
    with pytest.raises(SystemExit):
        main(["density", "--max", "x"])
    assert builds == [1] and parsers
    capsys.readouterr()


# the words a random call is drawn from: flags, prefixes, values and their forms
CALL_WORDS = [
    "--q", "--q=2", "--c", "--coeffs", "--co=7:1", "--full", "--fu=1", "--set", "--se=3,5", "--max",
    "--m=13", "--ma", "--exclude", "--ex=-3", "--target", "--t=-1/2", "--g", "--g=-1", "--exh",
    "--random", "--r", "--seed", "--count", "--fix", "--f", "--fo", "--format", "--predictors",
    "--out", "--out=", "--fr=--", "--fr", "--timing", "--expect-frontier", "--e", "--he", "-h", "--", "-",
    "2", "2^1", "3", "4", "-3", "-1.5", "13", "7:1,5:1", "3,5", "2/7", "-1/2", "1/0", "x", "",
    "csv", "xml", "vss", "a b", "-x y", "--=2", "=",
]


def test_scanned_calls_match_the_full_parser(capsys):
    # each call is an accepted one with random words put in or in place of its own
    rng = random.Random(24)
    scanned = 0
    for _ in range(6000):
        argv = list(rng.choice(ACCEPTED))
        for _ in range(rng.randint(1, 2)):
            i = rng.randint(1, len(argv))
            argv[i : i + rng.randint(0, 1)] = [rng.choice(CALL_WORDS)]
        name = argv[0]
        args = np2.cli._parse_command(name, argv[1:])
        if args is not None:
            scanned += 1
            assert vars(args) == vars(np2.cli.build_parser().parse_args(argv)), argv
    capsys.readouterr()
    assert scanned > 100


@pytest.mark.parametrize("argv", [["density", "--max", "13"], ["density", "-h"], ["frob"]])
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    def outcome(*call):
        try:
            code = main(*call)
        except SystemExit as exc:
            code = ("exit", exc.code)
        return code, *capsys.readouterr()

    monkeypatch.setattr("sys.argv", ["np2", *argv])
    assert outcome() == outcome(argv)
