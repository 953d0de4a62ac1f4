import hashlib
import json
import time
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import np2.zeta
from helpers import fresh_process, reference_frontier, reference_report_lines, reference_summary
from np2 import sweep
from np2.sweep import (
    VERDICT_FIELDS,
    Sweep,
    SweepSpec,
    VerdictRecord,
    dense_rows,
    evaluate_curve,
    frontier_summary,
    iter_curves,
    parse_coeffs,
    parse_frac,
    report_lines,
    run_sweep,
    summarize,
)
from np2.zeta import CurvePoly


def spec_g3():
    return SweepSpec(1, 3)


ID_FIX = ((11, 0), (13, 1), (15, 0), (17, 0), (19, 1), (21, 1))
# genus 22 over F_2 with all but four coefficients fixed: 16 curves, a * g = 22
G22_FREE = (3, 11, 29, 41)
G22_FIX = tuple((e, 1 if e == 45 else 0) for e in range(1, 46, 2) if e not in G22_FREE)


def expand(columns):
    """A route's family columns (values, index) as one value per row."""
    values, index = columns
    assert len(set(values)) == len(values), "a value repeats"
    return [values[i] for i in index.tolist()]


def dense_keys(curves, g):
    # the report order key: (c_1, c_3, ..., c_{2g+1})
    return [tuple(f.coeff(e) for e in range(1, 2 * g + 2, 2)) for f in curves]


def test_iter_curves_exhaustive():
    curves = list(iter_curves(spec_g3()))
    assert len(curves) == 8
    assert all(f.deg == 7 and f.coeff(7) == 1 for f in curves)
    assert len(set(curves)) == 8
    # leading coefficient runs over the nonzero field elements
    curves = list(iter_curves(SweepSpec(2, 1)))
    assert len(curves) == 12
    assert {f.coeff(3) for f in curves} == {1, 2, 3}
    # enumeration order is already strictly ascending report order
    families = [
        (SweepSpec(1, 10), 1024),
        (SweepSpec(2, 4), 768),
        (SweepSpec(3, 3), 3584),
        (SweepSpec(4, 2), 3840),
        (SweepSpec(1, 10, fixed=((3, 1), (9, 0), (17, 1))), 128),
        (SweepSpec(2, 5, fixed=((3, 2),)), 768),
    ]
    for spec, size in families:
        keys = dense_keys(iter_curves(spec), spec.genus)
        assert len(keys) == size
        assert all(u < v for u, v in zip(keys, keys[1:])), spec


def test_iter_curves_random_in_report_order():
    # 40 draws from 8 curves: sorted by encoding, every duplicate kept
    spec = SweepSpec(1, 3, mode="random", seed=7, count=40)
    keys = dense_keys(iter_curves(spec), 3)
    assert len(keys) == 40
    assert len(set(keys)) < 40
    assert keys == sorted(keys)
    keys = dense_keys(iter_curves(SweepSpec(2, 5, mode="random", seed=1, count=300)), 5)
    assert len(keys) == 300
    assert keys == sorted(keys)


def test_iter_curves_fixed():
    curves = list(iter_curves(SweepSpec(1, 3, fixed=((5, 0),))))
    assert len(curves) == 4
    assert all(f.coeff(5) == 0 for f in curves)
    curves = list(iter_curves(SweepSpec(2, 1, fixed=((3, 2),))))
    assert len(curves) == 4
    assert all(f.coeff(3) == 2 for f in curves)


def test_spec_validation():
    with pytest.raises(ValueError, match="2\\^20"):
        list(iter_curves(SweepSpec(2, 11)))
    with pytest.raises(ValueError, match="count"):
        list(iter_curves(SweepSpec(1, 3, mode="random")))
    # a random family is capped at 2^20 curves like an exhaustive one
    with pytest.raises(ValueError, match="1048577 curves, larger than 2\\^20"):
        SweepSpec(2, 9, mode="random", count=(1 << 20) + 1).validate()
    assert SweepSpec(2, 9, mode="random", count=1 << 20).validate() is None
    with pytest.raises(ValueError, match="mode"):
        list(iter_curves(SweepSpec(1, 3, mode="grid")))
    with pytest.raises(ValueError, match="predictor"):
        list(iter_curves(SweepSpec(1, 3, predictors=("zeta",))))
    with pytest.raises(ValueError, match="repeated predictor"):
        list(iter_curves(SweepSpec(1, 3, predictors=("oracle", "oracle"))))
    with pytest.raises(ValueError, match="leading"):
        list(iter_curves(SweepSpec(1, 3, fixed=((7, 0),))))
    with pytest.raises(ValueError, match="odd"):
        list(iter_curves(SweepSpec(1, 3, fixed=((4, 1),))))


def test_exhaustive_cap_counts_the_leading_coefficient():
    # q^g = 2^20 exactly, but the nonzero leading coefficient makes the
    # family 3 * 4^10 curves; refused before any curve is built
    with pytest.raises(ValueError, match="2\\^20"):
        next(iter_curves(SweepSpec(2, 10)))
    with pytest.raises(ValueError, match="2\\^20"):
        next(iter_curves(SweepSpec(1, 21)))
    # fixing one coefficient brings it back under the cap
    assert SweepSpec(1, 21, fixed=((1, 0),)).validate() is None


def test_exhaustive_cap_counts_only_free_coefficients():
    curves = list(iter_curves(SweepSpec(1, 22, fixed=G22_FIX)))
    assert len(curves) == 16
    keys = dense_keys(curves, 22)
    assert all(u < v for u, v in zip(keys, keys[1:]))
    assert {e for f in curves for e, _ in f.coeffs} == set(G22_FREE) | {45}


# 40 draws from the 8 curves of F_2 genus 3, so most curves repeat
DUPLICATES = SweepSpec(1, 3, mode="random", seed=7, count=40)
RANDOM_F4 = SweepSpec(2, 5, mode="random", seed=7, count=50)


def spec_id(s):
    return (
        f"q{1 << s.field_degree}-g{s.genus}"
        + (f"-random{s.count}" if s.mode == "random" else "")
        + ("-fix" if s.fixed else "")
    )


FAMILIES = [
    *(SweepSpec(1, g) for g in range(1, 13)),
    *(SweepSpec(2, g) for g in range(1, 6)),
    *(SweepSpec(3, g) for g in range(1, 4)),
    SweepSpec(1, 22, fixed=G22_FIX),
    SweepSpec(1, 14, mode="random", seed=1, count=128),
    *(SweepSpec(2, g, mode="random", seed=g, count=100) for g in range(8, 11)),
    SweepSpec(5, 4, mode="random", seed=4, count=200),
    SweepSpec(3, 3, mode="random", seed=3, count=60, fixed=((7, 5), (5, 0), (1, 6))),
    DUPLICATES,
]


@pytest.mark.parametrize("spec", FAMILIES, ids=spec_id)
def test_family_oracle_matches_per_curve(spec):
    # the same-route reference: one curve at a time, in iter_curves order
    oracle = sweep.ROUTES["oracle"]
    curves = list(iter_curves(spec))
    assert expand(oracle.family(spec, list(dense_rows(spec)))) == [oracle.run(f) for f in curves]


@pytest.mark.parametrize("spec", [*FAMILIES, SweepSpec(1, 10, fixed=ID_FIX)], ids=spec_id)
def test_family_routes_match_per_curve(spec):
    # the rank route and the case ladder run once per distinct key of the
    # family; each must give what it gives one curve at a time
    rows = list(dense_rows(spec))
    curves = list(iter_curves(spec))
    for name in ("vss", "hasse"):
        route = sweep.ROUTES[name]
        assert expand(route.family(spec, rows)) == [route.run(f) for f in curves], name


@pytest.mark.parametrize("spec", FAMILIES, ids=spec_id)
def test_sweep_verdicts_are_distinct(spec):
    # one verdict per combination of route values some row has
    s, _ = run_sweep(spec)
    assert len(set(s.verdicts)) == len(s.verdicts) == len(set(s.index.tolist()))


def test_random_family_has_duplicates():
    curves = list(iter_curves(DUPLICATES))
    assert len(set(curves)) < len(curves)


# random families whose curve counts give XOR tables of w = 1..4 bits; none
# uses a multiple of w coefficient bits, so the last table is partial
CHUNK_FAMILIES = [
    (SweepSpec(2, 5, mode="random", seed=11, count=3), 1),
    (SweepSpec(1, 10, mode="random", seed=11, count=5), 2),
    (SweepSpec(2, 4, mode="random", seed=11, count=12), 3),
    (SweepSpec(5, 2, mode="random", seed=11, count=40), 4),
]


@pytest.mark.parametrize("chunk_bytes", [1, 200, 2000])
def test_random_family_chunks_match_per_curve(monkeypatch, chunk_bytes):
    # one curve per chunk, then a few curves per chunk, through tables of
    # w = _group_width(count) bits built once per m
    monkeypatch.setattr(np2.zeta, "_CHUNK_BYTES", chunk_bytes)
    oracle = sweep.ROUTES["oracle"]
    for spec, w in CHUNK_FAMILIES:
        draws = list(dense_rows(spec))
        used = sum(any(c >> i & 1 for c in col) for col in zip(*draws) for i in range(spec.field_degree))
        assert np2.zeta._group_width(spec.count) == w
        assert w == 1 or used % w, (spec, used)
        assert expand(oracle.family(spec, draws)) == [oracle.run(f) for f in iter_curves(spec)], spec


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_family_oracle_builds_no_field_table():
    # an exhaustive and two random families, and the genus-22 --fix family
    # on its own, each in a fresh process
    counts, tables, _ = fresh_process(
        "from np2.sweep import ROUTES, SweepSpec, dense_rows\n"
        "for spec in (SweepSpec(1, 8), SweepSpec(2, 10, mode='random', seed=10, count=100),\n"
        "             SweepSpec(5, 4, mode='random', seed=4, count=200)):\n"
        "    print(len(ROUTES['oracle'].family(spec, list(dense_rows(spec)))[1]))\n"
    )
    assert counts.split() == ["256", "100", "200"]
    assert tables == 0
    count, tables, peak_kb = fresh_process(
        "from np2.sweep import ROUTES, SweepSpec\n"
        f"print(len(ROUTES['oracle'].family(SweepSpec(1, 22, fixed={G22_FIX!r}), None)[1]))\n"
    )
    assert count == "16"
    assert tables == 0
    assert peak_kb < 100 * 1024


@pytest.mark.parametrize("chunk_bytes", [1, 2000])
def test_one_bit_tables_match_per_curve(monkeypatch, chunk_bytes):
    # with no room for tables every family drops to w = 1
    monkeypatch.setattr(np2.zeta, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(np2.zeta, "_TABLE_BYTES", 0)
    oracle = sweep.ROUTES["oracle"]
    for spec, _ in CHUNK_FAMILIES:
        assert expand(oracle.family(spec, list(dense_rows(spec)))) == [oracle.run(f) for f in iter_curves(spec)], spec


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_wide_field_tables_are_bounded():
    # 20 curves over F_{2^22}: one leader row is 0.5 MB, so tables of w = 4
    # bits would hold 92 MB; under the byte cap they fall back to w = 1
    spec = SweepSpec(22, 1, mode="random", seed=1, count=20)
    out, tables, peak_kb = fresh_process(
        "from np2.sweep import SweepSpec, dense_rows\n"
        "from np2.zeta import curves_first_vertices\n"
        f"vertices, index = curves_first_vertices(22, list(dense_rows({spec!r})))\n"
        "print([list(vertices[i]) for i in index])\n"
    )
    assert tables == 0
    assert peak_kb < 160 * 1024
    want = [list(np2.zeta.first_vertex(np2.zeta.newton_polygon_of_curve(f))) for f in iter_curves(spec)]
    assert out == str(want)


def test_random_family_needs_a_leading_coefficient():
    with pytest.raises(ValueError, match="leading"):
        np2.zeta.curves_first_vertices(1, [(1, 0, 1), (1, 1, 0)])


def test_family_time_charged_to_its_records(monkeypatch):
    oracle = sweep.ROUTES["oracle"]

    def timed(spec, draws):
        t0 = time.perf_counter()
        values = oracle.family(spec, draws)
        spent.append(time.perf_counter() - t0)
        return values

    monkeypatch.setitem(sweep.ROUTES, "oracle", replace(oracle, family=timed))
    for spec in (SweepSpec(1, 8), RANDOM_F4):
        spent = []
        records, _ = run_sweep(spec)
        assert len(spent) == 1
        assert sum(r.elapsed for r in records) >= spent[0]


def test_random_sweep_reproducible():
    spec = SweepSpec(1, 3, mode="random", seed=42, count=5)
    a, _ = run_sweep(spec)
    b, _ = run_sweep(spec)
    assert len(a) == 5
    assert [replace(r, elapsed=None) for r in a] == [replace(r, elapsed=None) for r in b]
    c, _ = run_sweep(replace(spec, seed=43))
    assert [r.coeffs for r in a] != [r.coeffs for r in c]


def test_g3_sweep_all_agree():
    records, summary = run_sweep(spec_g3())
    assert summary.total == 8
    assert summary.agreements == 8
    assert summary.disagreements == 0
    assert summary.absences == 0
    for r in records:
        assert r.oracle == r.vss == (3, Fraction(1))
        assert r.hasse_case == "T1-i"


def test_record_rerun_reproduces_verdicts():
    records, _ = run_sweep(SweepSpec(1, 4, predictors=("oracle", "vss", "hasse")))
    for rec in records[:6]:
        f = CurvePoly.make(rec.field_degree, dict(rec.coeffs))
        again = evaluate_curve(f, rec.predictors)
        assert replace(again, elapsed=None) == replace(rec, elapsed=None)


def record_from_json(line: str) -> VerdictRecord:
    """Inverse of record_row on a JSONL line."""
    row = json.loads(line)
    q = row["q"]
    a = q.bit_length() - 1
    assert 1 << a == q, f"q = {q} is not a power of two"
    verdicts = {}
    for name in VERDICT_FIELDS:
        v = row[name]
        if isinstance(v, list):
            v = (v[0], parse_frac(v[1]) if isinstance(v[1], str) else v[1])
        verdicts[name] = v
    return VerdictRecord(
        a,
        row["g"],
        tuple(sorted(parse_coeffs(row["coeffs"]).items(), reverse=True)),
        tuple(row["predictors"].split(",")),
        elapsed=row.get("elapsed"),
        **verdicts,
    )


def test_jsonl_roundtrip():
    # the id family has absent verdicts and integer case-ladder vertices
    records, _ = run_sweep(SweepSpec(1, 10, fixed=ID_FIX))
    for rec, line in zip(records, report_lines(records, "jsonl")):
        assert record_from_json(line) == replace(rec, elapsed=None)
    for rec, line in zip(records, report_lines(records, "jsonl", timing=True)):
        assert record_from_json(line) == rec


def test_csv_header_only_when_empty():
    empty = Sweep(1, 3, sweep.PREDICTORS, 0.0, [], [], np.zeros(0, dtype=np.int32))
    lines = report_lines(empty, "csv")
    assert lines == [
        "q,g,coeffs,predictors,oracle,vss,hasse_case,hasse_vertex,large_n_caveat,"
        "agree_oracle_vss,agree_oracle_hasse,agree_vss_hasse"
    ]
    assert report_lines(empty, "jsonl") == []
    with pytest.raises(ValueError, match="format"):
        report_lines(empty, "tsv")


def test_report_digest_stable():
    a, _ = run_sweep(spec_g3())
    b, _ = run_sweep(spec_g3())
    for fmt in ("jsonl", "csv"):
        assert report_lines(a, fmt) == report_lines(b, fmt)
    timed = report_lines(a, "jsonl", timing=True)
    assert all('"elapsed"' in line for line in timed)
    assert all('"elapsed"' not in line for line in report_lines(a, "jsonl"))


def test_id_family_disagreement_counted():
    spec = SweepSpec(1, 10, fixed=ID_FIX, predictors=("oracle", "vss", "hasse"))
    records, summary = run_sweep(spec)
    assert summary.total == 32
    assert summary.oracle_disagreements == 32
    assert summary.absences == 16
    front = frontier_summary(records)
    assert set(front) == {"T2-id"}
    row = front["T2-id"]
    assert row["records"] == row["fired"] == 32
    assert row["oracle_disagree"] == 32
    assert row["oracle_agree"] == 0
    # the stable image abstains on half the family and never
    # contradicts the oracle where it does fire
    assert row["vss_disagree"] == 16
    assert sum(1 for r in records if r.vss is None) == 16
    assert all(r.agree_oracle_vss is not False for r in records)


def test_parse_coeffs_rejects_duplicates():
    assert parse_coeffs("7:1,3:1") == {7: 1, 3: 1}
    with pytest.raises(ValueError, match="repeated"):
        parse_coeffs("7:1,7:1")


def test_case_ladder_below_its_genus_is_absent():
    # the case ladder starts at genus 3; the other routes still run
    records, summary = run_sweep(SweepSpec(1, 2))
    assert summary.total == summary.absences == 4
    assert summary.disagreements == 0
    for r in records:
        assert r.hasse_case is r.hasse_vertex is r.large_n_caveat is None
        assert r.agree_oracle_hasse is r.agree_vss_hasse is None
        assert r.vss is None or r.oracle == r.vss
    assert frontier_summary(records) == {}


def test_sweep_runs_each_route_once_per_family(monkeypatch):
    # every route evaluates the family once, in the calling process, and
    # no route runs curve by curve
    specs = (spec_g3(), RANDOM_F4, SweepSpec(1, 10, fixed=ID_FIX))
    want = [report_lines(run_sweep(spec)[0], "jsonl") for spec in specs]
    calls = []

    def counted(name, family):
        def run_family(spec, rows):
            calls.append((name, spec))
            return family(spec, rows)

        return run_family

    def no_curve(f):
        raise AssertionError("a route ran per curve in a sweep")

    for name, route in sweep.ROUTES.items():
        patched = replace(route, run=no_curve, family=counted(name, route.family))
        monkeypatch.setitem(sweep.ROUTES, name, patched)
    for spec, lines in zip(specs, want):
        calls.clear()
        records, _ = run_sweep(spec)
        assert calls == [(name, spec) for name in sweep.ROUTES]
        assert report_lines(records, "jsonl") == lines


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec(1, 10, fixed=ID_FIX),
        SweepSpec(2, 9, mode="random", seed=9, count=100),
        SweepSpec(1, 8, predictors=("vss",)),
    ],
    ids=spec_id,
)
def test_sweep_views_match_per_curve(spec):
    # the columnar sweep against the per-curve reference: each view is
    # evaluate_curve's record, the reports are the per-record rendering,
    # and the summaries are a per-record recount
    s, summary = run_sweep(spec)
    records = list(s)
    assert len(records) == len(s) == len(list(dense_rows(spec)))
    for rec, f in zip(records, iter_curves(spec)):
        assert rec.elapsed == s.share
        assert replace(rec, elapsed=None) == replace(evaluate_curve(f, spec.predictors), elapsed=None)
    assert s[5] == records[5] and s[-1] == records[-1] and list(s[2:7]) == records[2:7]
    for fmt in ("jsonl", "csv"):
        for timing in (False, True):
            assert report_lines(s, fmt, timing) == reference_report_lines(records, fmt, timing), (fmt, timing)
    want = reference_summary(records)
    assert asdict(summary) == asdict(summarize(s)) == want
    assert frontier_summary(s) == reference_frontier(records)
    # pooled sweeps count as their records together
    assert frontier_summary(s, s) == reference_frontier(records + records)
    # a slice keeps only the verdicts of its rows, and records added to a
    # sweep keep their own verdicts, as the benchmark's corrupted report does
    i = len(records) // 2
    bad = replace(records[i], oracle=(99, Fraction(1)), agree_oracle_hasse=False)
    spliced = s[:i] + [bad] + s[i + 1 :]
    assert list(spliced) == [*records[:i], bad, *records[i + 1 :]]
    for part in (s[:i], s[i:], s[i : i + 1], s[:0], spliced):
        rows = list(part)
        if part is not spliced:
            assert len(part.verdicts) == len(set(part.index.tolist()))
        for fmt in ("jsonl", "csv"):
            assert report_lines(part, fmt) == reference_report_lines(rows, fmt, False)
        assert asdict(summarize(part)) == reference_summary(rows)
        assert frontier_summary(part) == reference_frontier(rows)
    with pytest.raises(ValueError, match="another family"):
        s + [replace(bad, genus=bad.genus + 1)]


def _digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "spec, jsonl, csv, frontier",
    [
        (
            SweepSpec(1, 10),
            "1c86475179a81eef110d74ae9d6f370567607776c32167c970357e97ea9e883c",
            "4fed60c7c76db34cbe291b6727f8bd675bfc9d93f118db9962b48c6d599041ab",
            "0d83f20bec64f2879bc7bd3bbfb28f3a28e2dfd4899766b859e0b3420e83d46a",
        ),
        (
            RANDOM_F4,
            "4f5dc776be721c5a1bfd90b04f6ccc167da879947e66a3443b5f3f3bd57d001b",
            "7ff3ee26f34fded65c518e651ee27566daaaf2f57d348684a1ef49dd6bbf1cff",
            None,
        ),
        (
            SweepSpec(2, 4),
            "5ee8e6de5d63844c265d483fb1e33f33885d25f0448e89b8a8d1361b201357cc",
            "24a760c783fde227c065c7a6d39f37a685e72d92fcc9789e9f7f4205a5210702",
            "435954c799f0faba4d438b0f1b7431d2c08db275bed7303fc8a3fe16c1190653",
        ),
        (
            SweepSpec(1, 10, fixed=ID_FIX),
            "325f1cbf4c08cd4c8464dd00f7410a3faea9ab90b5a79948d05345084f0f1763",
            "cb1e8eab92e051fe9ca2e654d719314fc908d4fd8078798214f0e960e80c3018",
            "3e18668104b4103fbc0b14b93c12549122703daa4a2cb7319a6fe891cbcf5420",
        ),
    ],
)
def test_report_bytes_pinned(monkeypatch, spec, jsonl, csv, frontier):
    # sha256 of the files `np2 sweep` writes for these families; the
    # reports are a stable format, so a change here is a format change
    records, _ = run_sweep(spec)
    assert _digest(report_lines(records, "jsonl")) == jsonl
    assert _digest(report_lines(records, "csv")) == csv
    # each distinct verdict is rendered once: the lines must be the
    # per-record rendering's, with and without the timing column
    for fmt in ("jsonl", "csv"):
        for timing in (False, True):
            want = reference_report_lines(records, fmt, timing)
            assert report_lines(records, fmt, timing) == want, (fmt, timing)
    if frontier:
        text = json.dumps(frontier_summary(records), indent=2, sort_keys=True)
        assert _digest([text]) == frontier
