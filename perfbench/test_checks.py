"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_checks.py -q

Every workload runs end to end at its smoke size, and the output checks
reject a corrupted verdict that np2's own agreement flags would not
catch.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from np2.sweep import SweepSpec, report_lines, run_sweep  # noqa: E402


def _reports(records):
    return report_lines(records, "jsonl"), report_lines(records, "csv")


def _check_all(records):
    jsonl, csv = _reports(records)
    density_of = workloads.SweepWorkload((), 0)._density_of
    return checks.check_sweep(jsonl, csv, len(jsonl), 1, density_of)[0]


@pytest.fixture(scope="module")
def genus8():
    records, _ = run_sweep(SweepSpec(1, 8))
    return records


def test_clean_sweep_passes(genus8):
    assert _check_all(genus8) == set()


def test_corrupted_verdict_is_rejected(genus8):
    # a consistent lie: oracle and rank criterion both moved, flags agreeing,
    # so only the independent point counts and closed forms can see it
    i, rec = next((i, r) for i, r in enumerate(genus8) if r.vss is not None)
    k, y = rec.oracle
    wrong = (k + 1, y)
    bad = dataclasses.replace(rec, oracle=wrong, vss=wrong, agree_oracle_hasse=rec.hasse_vertex == wrong)
    corrupted = genus8[:i] + [bad] + genus8[i + 1 :]
    assert _check_all(corrupted) == {i}


def test_corrupted_query_outputs_are_rejected():
    table = {q["argv"][0]: q for q in workloads.cold_queries(1, smoke=True)}
    density = table["density"]
    d, punct = density["max"], density["exclude"]
    good = {
        "certified": True,
        "length": 3,
        "set": ",".join(str(e) for e in range(1, d + 1, 2) if e not in punct),
        "value": "1/3",
        "witness": {"digits": "7:1", "length": 3},
    }
    assert checks.check_query(density, 0, json.dumps(good), {})[0]
    assert not checks.check_query(density, 0, json.dumps(dict(good, value="2/7")), {})[0]
    assert not checks.check_query(density, 3, json.dumps(good), {})[0]
    minimal = table["minimal"]
    classes = [{"digits": "11:1,29:4", "density": "2/7", "length": 7}]
    assert not checks.check_query(minimal, 0, json.dumps({"classes": classes}), {})[0]


def test_first_vertex_by_counting_matches_closed_forms():
    assert checks.first_vertex_by_counting(1, {29: 1, 23: 1}) == (8, Fraction(2))
    assert checks.first_vertex_by_counting(1, {29: 1, 15: 1}) == (4, Fraction(1))
    assert checks.first_vertex_by_counting(2, {9: 3, 7: 2}) == (3, Fraction(1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
