"""The two workloads: what each round runs and how its outputs are checked.

A round runs in a fresh interpreter (see worker.py), so table builds and
solver work that every `np2` invocation pays count inside it.  The sweeps
run all of a round in that process; queries-cold runs each query in a
child forked from it before any np2 call.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from fractions import Fraction
from random import Random

import checks

# workload -> (families, smoke-size families); a family is (field degree a,
# genus, curve count), count 0 meaning the exhaustive family
SWEEPS = {
    "sweeps": (
        # the F_2 families have the most curves, so the median operation is
        # an F_2 curve; the genus-14 sample keeps the paper's genus-14 rule
        # checked; the wide-field curves are the costliest, so the top five
        # percent of operations (op_p95_ms) are wide-field curves
        (
            *((1, g, 0) for g in range(8, 13)),
            (1, 14, 256),
            (2, 8, 300),
            (2, 9, 300),
            (2, 10, 300),
            (5, 4, 900),
        ),
        ((1, 8, 0), (1, 9, 0), (2, 8, 20), (2, 10, 20), (5, 4, 20)),
    ),
}
# curves per sweep whose oracle verdict is re-derived from point counts
COUNTED_SAMPLE = 12


def _curve_args(a: int, coeffs: dict[int, int]) -> list[str]:
    return ["--q", str(1 << a), "--coeffs", ",".join(f"{e}:{c}" for e, c in sorted(coeffs.items(), reverse=True))]


def _random_coeffs(rng: Random, a: int, g: int) -> dict[int, int]:
    q = 1 << a
    coeffs = {2 * g + 1: rng.randrange(1, q)}
    for e in range(1, 2 * g + 1, 2):
        c = rng.randrange(q)
        if c:
            coeffs[e] = c
    return coeffs


def _curve_query(kind: str, a: int, coeffs: dict[int, int]) -> dict:
    return {"argv": [kind] + _curve_args(a, coeffs), "a": a, "coeffs": coeffs}


def cold_queries(seed: int, smoke: bool) -> list[dict]:
    """The one-shot commands of queries-cold; the classify curves come from the seed."""
    rng = Random(seed)
    if smoke:
        qs = [_curve_query("np", 1, {21: 1, 15: 1, 3: 1}), _curve_query("vss", 1, {29: 1, 23: 1})]
        table = checks.PAPER_DENSITIES[:2]
        windows = ((29, (15,), "2/7", 7),)
    else:
        qs = [
            _curve_query("np", 1, {41: 1, 31: 1, 5: 1}),
            _curve_query("np", 1, {45: 1, 31: 1, 13: 1}),
            _curve_query("vss", 1, {125: 1, 95: 1}),
        ]
        table = checks.PAPER_DENSITIES
        windows = ((29, (15,), "2/7", 7), (61, (31,), "2/9", 9))
    for _, d, punct, value in table:
        exclude = ",".join(map(str, punct))
        qs.append({"argv": ["density", "--max", str(d), "--exclude", exclude], "max": d, "exclude": punct, "value": value})
    for d, punct, target, length in windows:
        argv = ["minimal", "--max", str(d), "--exclude", ",".join(map(str, punct)), "--target", target]
        qs.append({"argv": argv, "max": d, "exclude": punct, "target": target, "length": length})
    for a, g in ((1, 14), (1, 14), (1, 14), (2, 8)):
        qs.append(_curve_query("classify", a, _random_coeffs(rng, a, g)))
    qs.append(_curve_query("classify", 1, {29: 1, 23: 1}))
    qs.append(_curve_query("classify", 1, {25: 1, 21: 1, 9: 1}))
    g = 3 if smoke else 5
    qs.append({"argv": ["sweep", "--q", "2", "--g", str(g), "--exhaustive"], "curves": 1 << g})
    return qs


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


class SweepWorkload:
    """`np2 sweep` over curve families, with JSONL, CSV and frontier reports.

    Every round after the first (a traced run has at least two) must
    reproduce the first round's reports byte for byte.
    """

    # fresh interpreters per run that only import np2, for setup_s
    setup_probes = 9

    def __init__(self, families, seed: int):
        self.families = families
        self.seed = seed
        self.first: list[tuple[list[str], list[str], set[int], Counter]] | None = None
        self._density: dict = {}

    def run_round(self, workdir: str, traced: bool, spawn) -> dict:
        calls = []
        for i, (a, g, count) in enumerate(self.families):
            stem = os.path.join(workdir, f"q{1 << a}-g{g}")
            argv = ["sweep", "--q", str(1 << a), "--g", str(g)]
            if count:
                argv += ["--random", "--seed", str(self.seed * 16 + i), "--count", str(count)]
            else:
                argv += ["--exhaustive"]
            argv += ["--out", stem + ".jsonl", "--frontier", stem + ".frontier.json", "--expect-frontier"]
            calls.append({"argv": argv, "csv": stem + ".csv", "stem": stem})
        res = spawn({"kind": "sweep", "trace": traced, "calls": calls}, workdir)
        return {
            "wall_s": res["wall_s"],
            "op_s": res["op_s"],
            "rss_mb": res["rss_mb"],
            "setups": [res["setup_s"]],
            "results": [res],
            "calls": calls,
        }

    def _density_of(self, a: int, coeffs: dict[int, int]) -> Fraction:
        # the bound np2's rank criterion reports when it gives no vertex
        key = (a, tuple(sorted(coeffs.items())))
        if key not in self._density:
            from np2.vss import vss_report
            from np2.zeta import CurvePoly

            self._density[key] = vss_report(CurvePoly.make(a, coeffs)).slope_above
        return self._density[key]

    def check_round(self, rnd: dict) -> tuple[int, bool, Counter]:
        """(failed operations, run-level checks passed, known findings)."""
        res = rnd["results"][0]
        summaries = [json.loads(line) for line in res["stderr"].splitlines() if line.startswith("{")]
        correct = len(summaries) == len(rnd["calls"])
        failed = 0
        known: Counter = Counter()
        first = self.first is None
        if first:
            self.first = []
        for i, call in enumerate(rnd["calls"]):
            jsonl = _read(call["stem"] + ".jsonl").splitlines()
            csv = _read(call["csv"]).splitlines()
            with open(call["stem"] + ".frontier.json") as fh:
                frontier = json.load(fh)
            correct = correct and checks.check_frontier(frontier, jsonl)
            correct = correct and summaries[i]["total"] == len(jsonl)
            if first:
                bad, found = checks.check_sweep(jsonl, csv, COUNTED_SAMPLE, self.seed, self._density_of)
                self.first.append((jsonl, csv, bad, found))
            else:
                # a byte-identical report inherits the first round's verdicts
                jsonl0, csv0, bad, found = self.first[i]
                if len(jsonl) != len(jsonl0) or len(csv) != len(csv0) or csv[0] != csv0[0]:
                    bad = set(range(max(len(jsonl), len(jsonl0))))
                else:
                    bad = bad | {
                        j for j in range(len(jsonl)) if jsonl[j] != jsonl0[j] or csv[j + 1] != csv0[j + 1]
                    }
            failed += len(bad)
            known += found
        if any(res["codes"]):
            failed = len(rnd["op_s"])
        return failed, correct, known


class QueryWorkload:
    """One-shot `np2` commands, each in a child forked from a fresh
    interpreter that has imported np2 and made no np2 call."""

    # fresh interpreters per run that only import np2, for setup_s
    setup_probes = 9

    def __init__(self, queries):
        self.queries = queries

    def run_round(self, workdir: str, traced: bool, spawn) -> dict:
        calls = []
        for i, q in enumerate(self.queries):
            argv = list(q["argv"])
            if argv[0] == "sweep":
                argv += ["--out", os.path.join(workdir, f"q{i}.jsonl")]
            calls.append({"argv": argv})
        res = spawn({"kind": "queries", "trace": traced, "calls": calls}, workdir)
        results = res["queries"]
        for r, call in zip(results, calls):
            r["argv"] = call["argv"]
        return {
            "wall_s": sum(r["wall_s"] for r in results),
            "op_s": [r["wall_s"] for r in results],
            "rss_mb": max(r["rss_mb"] for r in results),
            "setups": [res["setup_s"]],
            "results": results,
        }

    def check_round(self, rnd: dict) -> tuple[int, bool, Counter]:
        failed = 0
        known: Counter = Counter()
        for q, res in zip(self.queries, rnd["results"]):
            files = {}
            if "--out" in res["argv"]:
                files["out"] = _read(res["argv"][res["argv"].index("--out") + 1])
            ok, found = checks.check_query(q, res["codes"][0], res["stdout"], files)
            failed += not ok
            known += found
        return failed, True, known


WORKLOADS = (*SWEEPS, "queries-cold")


def make(name: str, seed: int, smoke: bool):
    if name == "queries-cold":
        return QueryWorkload(cold_queries(seed, smoke))
    full, small = SWEEPS[name]
    return SweepWorkload(small if smoke else full, seed)
