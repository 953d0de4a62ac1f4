"""Sweep harness: run the predictor routes over curve families and
serialize one verdict per curve.

Sweeps are deterministic: the dense coefficient rows (dense_rows) alone
decide report order.  Exhaustive families come out in encoding order as
they are enumerated; random families pre-draw all curves from a seed and
come out sorted by encoding.  Every route evaluates a whole family at
once, in the calling process, and each record's elapsed time is an equal
share of that work.  A sweep is held as columns (Sweep): the rows, the
distinct verdicts and one index per row; summaries and reports are built
once per distinct verdict.  Timing is kept out of the serialized forms by
default so report digests are stable.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, repeat
from math import prod
from operator import attrgetter
from random import Random
from typing import Callable

import numpy as np

from .field import MAX_DEGREE
from .hasse import MIN_GENUS, classify, read_exponents
from .vss import predict_first_vertex, rank_keys
from .zeta import (
    CurvePoly,
    check_extension_degree,
    curves_first_vertices,
    family_first_vertices,
    first_vertex,
    newton_polygon_of_curve,
)

# the most curves one sweep may hold, exhaustive or random
CURVE_CAP = 1 << 20


@dataclass(frozen=True)
class Route:
    """One route to the first vertex and the record fields it fills.

    run(f) returns the values of fields in order; vertex names the field
    that holds the first vertex, None where the route gives no verdict.
    family(spec, rows), rows = dense_rows(spec), returns run's
    values over a family as columns (values, index): values holds each
    distinct value once, and index gives each row's value, in report
    order.  run stays the reference that family is tested against, and
    the single-curve path.
    """

    fields: tuple[str, ...]
    vertex: str
    run: Callable[[CurvePoly], tuple]
    family: Callable[[SweepSpec, np.ndarray], tuple[list[tuple], np.ndarray]]


# The routes look the predictors up in this module when they run, so a
# caller that swaps a predictor on the module (a tracer) is seen here.
def _by_counting(f: CurvePoly) -> tuple:
    return (first_vertex(newton_polygon_of_curve(f)),)


def _family_by_counting(spec: SweepSpec, rows) -> tuple[list[tuple], np.ndarray]:
    if spec.mode == "exhaustive":
        vertices, index = family_first_vertices(spec.field_degree, spec.genus, spec.fixed)
    else:
        vertices, index = curves_first_vertices(spec.field_degree, rows)
    return [(v,) for v in vertices], index


def _by_rank(f: CurvePoly) -> tuple:
    return (predict_first_vertex(f),)


def _family_by_rank(spec: SweepSpec, rows) -> tuple[list[tuple], np.ndarray]:
    return _per_key(_by_rank, spec.field_degree, rows, rank_keys(2 * spec.genus + 1, rows))


def _by_case_ladder(f: CurvePoly) -> tuple:
    if f.genus < MIN_GENUS:
        return (None, None, None)
    case = classify(f)
    return (case.case_id, case.vertex, case.large_n_caveat)


def _family_by_case_ladder(spec: SweepSpec, rows) -> tuple[list[tuple], np.ndarray]:
    exps = read_exponents(spec.genus) if spec.genus >= MIN_GENUS else ()
    return _per_key(_by_case_ladder, spec.field_degree, rows, rows[:, [(e - 1) // 2 for e in exps]])


def _per_key(run, a: int, rows, keys) -> tuple[list[tuple], np.ndarray]:
    """run's distinct values over the rows and each row's index into them;
    run runs once per distinct row of the key columns, on its first row."""
    first, index = _classes(keys)
    number = {}  # value -> its index
    of_key = [number.setdefault(run(CurvePoly(a, _sparse(r))), len(number)) for r in rows[first].tolist()]
    return list(number), np.array(of_key, dtype=np.int32)[index]


def _classes(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, index): the first row of each distinct row of the columns, small
    non-negative ints, in ascending order, and each row's number.  The columns pack
    into an int64, the key so far renumbered before a column would pass 63 bits."""
    width = int(columns.max(initial=0)).bit_length()
    key = np.zeros(len(columns), dtype=np.int64)
    for column in columns.T:
        if int(key.max(initial=0)).bit_length() + width > 63:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
        key = key << width | column.astype(np.int64)
    _, first, index = np.unique(key, return_index=True, return_inverse=True)
    return first, index.astype(np.int32)


# Every list of routes, record fields and report columns derives from
# this table.  The first route is the reference that oracle
# disagreements are counted against; the last is the case ladder that
# frontier_summary tabulates.
ROUTES = {
    "oracle": Route(("oracle",), "oracle", _by_counting, _family_by_counting),
    "vss": Route(("vss",), "vss", _by_rank, _family_by_rank),
    "hasse": Route(
        ("hasse_case", "hasse_vertex", "large_n_caveat"),
        "hasse_vertex",
        _by_case_ladder,
        _family_by_case_ladder,
    ),
}
PREDICTORS = tuple(ROUTES)
AGREEMENTS = {f"agree_{a}_{b}": (a, b) for a, b in combinations(ROUTES, 2)}
VERDICT_FIELDS = tuple(f for route in ROUTES.values() for f in route.fields) + tuple(AGREEMENTS)
COLUMNS = ("q", "g", "coeffs", "predictors") + VERDICT_FIELDS
_verdicts_of = attrgetter(*VERDICT_FIELDS)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    num, den = (int(x) for x in s.split("/"))
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(num, den)


def coeffs_str(coeffs) -> str:
    return ",".join([f"{e}:{c}" for e, c in coeffs])


def parse_coeffs(s: str) -> dict[int, int]:
    out = {}
    for part in s.split(","):
        e, c = part.split(":")
        e = int(e)
        if e in out:
            raise ValueError(f"repeated exponent {e}")
        out[e] = int(c)
    return out


@dataclass(frozen=True)
class SweepSpec:
    """One curve family plus the predictors to run on it."""

    field_degree: int
    genus: int
    mode: str = "exhaustive"
    seed: int = 0
    count: int = 0
    fixed: tuple[tuple[int, int], ...] = ()
    predictors: tuple[str, ...] = PREDICTORS

    def validate(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.genus < 1:
            raise ValueError("genus must be positive")
        if not 1 <= self.field_degree <= MAX_DEGREE:
            raise ValueError(f"field degree {self.field_degree} out of range 1..{MAX_DEGREE}")
        if not self.predictors:
            raise ValueError("no predictors selected")
        for p in self.predictors:
            if p not in ROUTES:
                raise ValueError(f"unknown predictor {p!r}")
        if len(set(self.predictors)) < len(self.predictors):
            raise ValueError(f"repeated predictor in {','.join(self.predictors)!r}")
        if "oracle" in self.predictors:
            # refused here, before a report is opened, not at the first sum
            check_extension_degree(self.field_degree * self.genus)
        q = 1 << self.field_degree
        deg = 2 * self.genus + 1
        for e, c in self.fixed:
            if e < 1 or e > deg or e % 2 == 0:
                raise ValueError(f"fixed exponent {e} not an odd exponent of the family")
            if not 0 <= c < q:
                raise ValueError(f"fixed value {c} outside F_{q}")
            if e == deg and c == 0:
                raise ValueError("leading coefficient cannot be fixed to zero")
        if self.mode == "exhaustive":
            # only free coefficients count; a free leading one is nonzero
            fixed = dict(self.fixed)
            if prod(1 if e in fixed else q - (e == deg) for e in range(1, deg + 1, 2)) > CURVE_CAP:
                raise ValueError("exhaustive sweep larger than 2^20 curves")
            if self.seed or self.count:
                raise ValueError("an exhaustive sweep takes no seed or count")
        elif self.count < 1:
            raise ValueError("random sweep needs a positive count")
        elif self.count > CURVE_CAP:
            raise ValueError(f"random sweep of {self.count} curves, larger than 2^20")


def dense_rows(spec: SweepSpec) -> np.ndarray:
    """The family's dense coefficient rows (c_1, c_3, ..., c_{2g+1}) in
    report order, which is ascending, as one array of the smallest unsigned
    type that holds F_q: every row of an exhaustive family, the sorted seeded
    draws of a random one, where duplicate draws are all kept."""
    spec.validate()
    q = 1 << spec.field_degree
    deg = 2 * spec.genus + 1
    fixed = dict(spec.fixed)
    dtype = np.min_scalar_type(q - 1)
    odd = range(1, deg + 1, 2)
    if spec.mode == "exhaustive":
        # the digits of the row number, lowest exponent slowest, so rows
        # ascend; a free leading coefficient is its digit plus 1
        digits = np.indices([1 if e in fixed else q - (e == deg) for e in odd], dtype).reshape(len(odd), -1)
        return (digits + np.array([fixed.get(e, int(e == deg)) for e in odd], dtype)[:, None]).T
    rng = Random(spec.seed)
    draws = []
    for _ in range(spec.count):
        # the leading coefficient is drawn first, even when it is fixed
        lead = fixed.get(deg, rng.randrange(1, q))
        draws.append([fixed[e] if e in fixed else rng.randrange(q) for e in odd[:-1]] + [lead])
    return np.array(sorted(draws), dtype)


def _sparse(row: list[int]) -> tuple[tuple[int, int], ...]:
    """CurvePoly coefficients of a dense row: nonzero (exponent, bits), top down."""
    return tuple([(e, c) for e, c in zip(range(2 * len(row) - 1, 0, -2), row[::-1]) if c])


def iter_curves(spec: SweepSpec):
    """Curves of the family in report order, one per dense_rows(spec) row."""
    return (CurvePoly(spec.field_degree, _sparse(row.tolist())) for row in dense_rows(spec))


@dataclass(frozen=True)
class VerdictRecord:
    """All verdicts for one curve; re-runnable from its encoding."""

    field_degree: int
    genus: int
    coeffs: tuple[tuple[int, int], ...]
    predictors: tuple[str, ...]
    oracle: tuple[int, Fraction] | None
    vss: tuple[int, Fraction] | None
    hasse_case: str | None
    hasse_vertex: tuple[int, int] | None
    large_n_caveat: bool | None
    agree_oracle_vss: bool | None
    agree_oracle_hasse: bool | None
    agree_vss_hasse: bool | None
    elapsed: float | None = None


def _agree(u, v):
    if u is None or v is None:
        return None
    return u == v


def _verdict(values) -> tuple:
    """The verdict fields: every route's values in ROUTES order, then the agreement flags."""
    v = sum(values, ())
    at = dict(zip(VERDICT_FIELDS, v))
    return v + tuple(_agree(*(at[ROUTES[r].vertex] for r in pair)) for pair in AGREEMENTS.values())


def evaluate_curve(f: CurvePoly, predictors=PREDICTORS) -> VerdictRecord:
    """The record of f under the routes in predictors, one curve at a time."""
    t0 = time.perf_counter()
    values = [r.run(f) if n in predictors else (None,) * len(r.fields) for n, r in ROUTES.items()]
    verdict = (*_verdict(values), time.perf_counter() - t0)  # elapsed last
    return VerdictRecord(f.field_degree, f.genus, f.coeffs, tuple(predictors), *verdict)


@dataclass(frozen=True)
class SweepSummary:
    total: int
    agreements: int
    disagreements: int
    oracle_disagreements: int
    absences: int


@dataclass(frozen=True, eq=False, repr=False)
class Sweep:
    """A family's verdicts as columns: its dense rows in report order, one
    array as dense_rows gives them, the table of its distinct verdicts
    (_verdict's fields) and one index into that table per row.

    Indexing and iteration give a VerdictRecord view per row, built on
    demand; every record's elapsed is share.  A slice is a Sweep of those
    rows, and sweep + records is a Sweep of this family's rows followed by
    the records' own, whatever their verdicts.
    """

    field_degree: int
    genus: int
    predictors: tuple[str, ...]
    share: float
    rows: np.ndarray
    verdicts: list[tuple]
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            # only the verdicts the rows use are kept, so tallies count no empty one
            part = self.index[i]
            first, index = _classes(part[:, None])
            verdicts = list(map(self.verdicts.__getitem__, part[first].tolist()))
            return replace(self, rows=self.rows[i], verdicts=verdicts, index=index)
        return self._record(self.rows[i].tolist(), self.verdicts[self.index[i]])

    def __add__(self, records) -> Sweep:
        """This sweep's rows followed by the records', each record with its
        own verdict; records is a Sweep or VerdictRecords of this family."""
        family = (self.field_degree, self.genus, self.predictors)
        records = list(records)
        rows = np.zeros((len(records), self.genus + 1), self.rows.dtype)
        for row, r in zip(rows, records):
            if (r.field_degree, r.genus, r.predictors) != family:
                raise ValueError("records of another family")
            for e, c in r.coeffs:
                row[e // 2] = c
        verdicts = self.verdicts + list(map(_verdicts_of, records))
        index = np.concatenate([self.index, np.arange(len(self.verdicts), len(verdicts), dtype=np.int32)])
        return replace(self, rows=np.concatenate([self.rows, rows]), verdicts=verdicts, index=index)

    def __iter__(self):
        return map(self._record, self.rows.tolist(), map(self.verdicts.__getitem__, self.index.tolist()))

    def _record(self, row, verdict) -> VerdictRecord:
        a, g = self.field_degree, self.genus
        return VerdictRecord(a, g, _sparse(row), self.predictors, *verdict, self.share)

    def tally(self):
        """(record, rows) per distinct verdict, the record without coefficients."""
        counts = np.bincount(self.index, minlength=len(self.verdicts)).tolist()
        return zip(map(self._record, repeat(()), self.verdicts), counts)

    @cached_property
    def coeffs(self) -> list[str]:
        """Each row's coefficients as coeffs_str writes them, joined from a
        fragment per (exponent, value) that occurs: the leading coefficient,
        which is nonzero, then ",e:c" for each nonzero lower one."""
        deg = 2 * self.genus + 1
        prefixes = [f"{deg}:", *(f",{e}:" for e in range(deg - 2, 0, -2))]
        columns = [map(_Fragments(p).__getitem__, memoryview(col)) for p, col in zip(prefixes, self.rows.T[::-1])]
        return list(map("".join, zip(*columns)))


class _Fragments(dict):
    """prefix + str(c) per nonzero value c, "" for 0, each made when first looked up."""

    def __init__(self, prefix: str):
        self.prefix = prefix

    def __missing__(self, c: int) -> str:
        self[c] = s = f"{self.prefix}{c}" if c else ""
        return s


def summarize(sweep: Sweep) -> SweepSummary:
    """The summary of a sweep."""
    reference = PREDICTORS[0]
    against_reference = [flag for flag, (a, _) in AGREEMENTS.items() if a == reference]
    agreements = disagreements = reference_dis = absences = 0
    for r, count in sweep.tally():
        flags = [getattr(r, flag) for flag in AGREEMENTS]
        ran = [f for f in flags if f is not None]
        if ran and all(ran):
            agreements += count
        if any(f is False for f in flags):
            disagreements += count
        if any(getattr(r, flag) is False for flag in against_reference):
            reference_dis += count
        if any(name in r.predictors and getattr(r, route.vertex) is None for name, route in ROUTES.items()):
            absences += count
    return SweepSummary(len(sweep), agreements, disagreements, reference_dis, absences)


def run_sweep(spec: SweepSpec) -> tuple[Sweep, SweepSummary]:
    """The family's sweep and its summary: every route's family entry
    point runs once, the agreement flags once per distinct verdict, and
    each record's elapsed is an equal share."""
    t0 = time.perf_counter()
    rows = dense_rows(spec)
    absent = np.zeros(len(rows), dtype=np.int32)
    columns = [
        r.family(spec, rows) if n in spec.predictors else ([(None,) * len(r.fields)], absent)
        for n, r in ROUTES.items()
    ]
    # each row's combination of route values, numbered; a verdict per combination used
    combos = np.stack([i for _, i in columns], axis=1)
    first, index = _classes(combos)
    verdicts = [_verdict([vals[i] for (vals, _), i in zip(columns, combo)]) for combo in combos[first].tolist()]
    share = (time.perf_counter() - t0) / len(rows)
    sweep = Sweep(spec.field_degree, spec.genus, spec.predictors, share, rows, verdicts, index)
    return sweep, summarize(sweep)


def frontier_summary(*sweeps: Sweep) -> dict[str, dict[str, int]]:
    """Per-case agreement table for the case ladder, the last route, over
    one sweep or several pooled."""
    *_, ladder = ROUTES
    judges = {a: flag for flag, (a, b) in AGREEMENTS.items() if b == ladder}
    rows: dict[str, dict[str, int]] = {}
    for r, count in chain.from_iterable(s.tally() for s in sweeps):
        if r.hasse_case is None:
            continue
        row = rows.get(r.hasse_case)
        if row is None:
            row = rows[r.hasse_case] = {"records": 0, "fired": 0}
            for a in judges:
                row[f"{a}_agree"] = row[f"{a}_disagree"] = 0
        row["records"] += count
        if r.hasse_vertex is None:
            continue
        row["fired"] += count
        for a, flag in judges.items():
            agree = getattr(r, flag)
            if agree is not None:
                row[f"{a}_agree" if agree else f"{a}_disagree"] += count
    return {case: rows[case] for case in sorted(rows)}


def _vertex_json(v):
    # counting and rank give a Fraction ordinate, written num/den; the
    # case ladder's is an int
    return [v[0], frac_str(v[1]) if isinstance(v[1], Fraction) else v[1]]


def record_row(rec: VerdictRecord, timing: bool = False) -> dict:
    """The report row of a record, {column: value} in column order.

    JSONL lines and CSV rows both render this row; a vertex is a 2-list.
    """
    values = [1 << rec.field_degree, rec.genus, coeffs_str(rec.coeffs), ",".join(rec.predictors)]
    for v in _verdicts_of(rec):
        values.append(_vertex_json(v) if isinstance(v, tuple) else v)
    row = dict(zip(COLUMNS, values))
    if timing:
        row["elapsed"] = rec.elapsed
    return row


def _csv_cell(value):
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, list):
        return f"{value[0]}:{value[1]}"
    return value


def _fragments(rec: VerdictRecord, format: str, timing: bool) -> list[str]:
    """rec's report line, split where its coefficients go."""
    row = record_row(rec, timing)
    row["coeffs"] = hole = "<coeffs>"  # JSON and csv.writer keep it as it is
    if format == "jsonl":
        return json.dumps(row, sort_keys=True).split(hole)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([_csv_cell(v) for v in row.values()])
    return buf.getvalue().split(hole)


def report_lines(sweep: Sweep, format: str, timing: bool = False) -> list[str]:
    """One line per record as record_row renders it, CSV after a header;
    each distinct verdict is rendered once, around the row's coefficients."""
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    parts = [_fragments(r, format, timing) for r, _ in sweep.tally()]
    coeffs = sweep.coeffs
    lines = []
    if format == "csv":
        # coeffs_str writes digits, ':' and ',', and csv.writer quotes a cell for a ','
        coeffs = [f'"{c}"' if "," in c else c for c in coeffs]
        lines = [",".join(COLUMNS + (("elapsed",) if timing else ()))]
    lines += [h + c + t for (h, t), c in zip(map(parts.__getitem__, sweep.index.tolist()), coeffs)]
    return lines
