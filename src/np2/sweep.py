"""Sweep harness: run the predictor routes over curve families and
serialize one verdict per curve.

Sweeps are deterministic: iter_curves alone decides report order.
Exhaustive families come out in encoding order as they are enumerated;
random families pre-draw all curves from a seed (random_draws) and come
out sorted by encoding.  Records keep that order, serially and in
parallel, so both produce byte-identical reports.  A route with a family
entry point evaluates the whole family once, in the calling process, and
each record's elapsed time carries an equal share of that work.  Timing
is kept out of the serialized forms by default so report digests are
stable.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product, repeat
from operator import attrgetter
from random import Random
from typing import Callable

from .hasse import MIN_GENUS, classify
from .vss import predict_first_vertex
from .zeta import (
    CurvePoly,
    check_extension_degree,
    curves_first_vertices,
    family_first_vertices,
    first_vertex,
    newton_polygon_of_curve,
)

EXHAUSTIVE_CAP = 1 << 20


@dataclass(frozen=True)
class Route:
    """One route to the first vertex and the record fields it fills.

    run(f) returns the values of fields in order; vertex names the field
    that holds the first vertex, None where the route gives no verdict.
    family(spec, draws), where given, returns run's values for every
    curve of a family at once, exhaustive or random, in iter_curves
    order; draws are random_draws(spec), None for an exhaustive family.
    run stays the reference that family is tested against, and the path
    for a single curve.
    """

    fields: tuple[str, ...]
    vertex: str
    run: Callable[[CurvePoly], tuple]
    family: Callable[[SweepSpec, list[tuple] | None], list[tuple]] | None = None


# The routes look the predictors up in this module when they run, so a
# caller that swaps a predictor on the module (a tracer) is seen here.
def _by_counting(f: CurvePoly) -> tuple:
    return (first_vertex(newton_polygon_of_curve(f)),)


def _family_by_counting(spec: SweepSpec, draws) -> list[tuple]:
    if draws is None:
        vertices = family_first_vertices(spec.field_degree, spec.genus, spec.fixed)
    else:
        vertices = curves_first_vertices(spec.field_degree, draws)
    return [(v,) for v in vertices]


def _by_rank(f: CurvePoly) -> tuple:
    return (predict_first_vertex(f),)


def _by_case_ladder(f: CurvePoly) -> tuple:
    if f.genus < MIN_GENUS:
        return (None, None, None)
    case = classify(f)
    return (case.case_id, case.vertex, case.large_n_caveat)


# Every list of routes, record fields and report columns derives from
# this table.  The first route is the reference that oracle
# disagreements are counted against; the last is the case ladder that
# frontier_summary tabulates.
ROUTES = {
    "oracle": Route(("oracle",), "oracle", _by_counting, _family_by_counting),
    "vss": Route(("vss",), "vss", _by_rank),
    "hasse": Route(
        ("hasse_case", "hasse_vertex", "large_n_caveat"), "hasse_vertex", _by_case_ladder
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
    return ",".join(f"{e}:{c}" for e, c in coeffs)


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
            size = 1
            for e in range(1, deg + 1, 2):
                if e not in fixed:
                    size *= q - 1 if e == deg else q
            if size > EXHAUSTIVE_CAP:
                raise ValueError("exhaustive sweep larger than 2^20 curves")
        elif self.count < 1:
            raise ValueError("random sweep needs a positive count")


def random_draws(spec: SweepSpec) -> list[tuple[int, ...]] | None:
    """A random family's dense coefficient tuples (c_1, c_3, ..., c_{2g+1})
    in report order, None for an exhaustive family.

    Report order is ascending; duplicate draws are all kept.
    """
    spec.validate()
    if spec.mode == "exhaustive":
        return None
    q = 1 << spec.field_degree
    deg = 2 * spec.genus + 1
    fixed = dict(spec.fixed)
    rng = Random(spec.seed)
    draws = []
    for _ in range(spec.count):
        # the leading coefficient is drawn first, even when it is fixed
        lead = fixed.get(deg, rng.randrange(1, q))
        lower = tuple(fixed[e] if e in fixed else rng.randrange(q) for e in range(1, deg, 2))
        draws.append(lower + (lead,))
    return sorted(draws)


def iter_curves(spec: SweepSpec, draws=None):
    """Curves of the family in report order.

    That is ascending order of the dense coefficient tuple
    (c_1, c_3, ..., c_{2g+1}); duplicate random draws keep draw order.
    draws, where given, are random_draws(spec), made once by the caller.
    """
    spec.validate()
    q = 1 << spec.field_degree
    deg = 2 * spec.genus + 1
    fixed = dict(spec.fixed)
    exps = range(1, deg + 1, 2)
    if spec.mode == "exhaustive":
        # the lowest exponent varies slowest, so product order is ascending
        choices = [
            (fixed[e],) if e in fixed else range(1 if e == deg else 0, q) for e in exps
        ]
        dense = product(*choices)
    else:
        dense = random_draws(spec) if draws is None else draws
    top_down = exps[::-1]
    for values in dense:
        yield CurvePoly(spec.field_degree, tuple((e, c) for e, c in zip(top_down, values[::-1]) if c))


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


def evaluate_curve(f: CurvePoly, predictors=PREDICTORS, batched=None, share=0.0):
    """The record of f under the routes in predictors.

    batched maps a route name to its values for f, computed with the
    whole family; that route is not run again, and share, the seconds of
    the family computation charged to f, is added to elapsed.
    """
    t0 = time.perf_counter() - share
    verdicts = {}
    for name, route in ROUTES.items():
        if name not in predictors:
            values = (None,) * len(route.fields)
        elif batched and name in batched:
            values = batched[name]
        else:
            values = route.run(f)
        verdicts.update(zip(route.fields, values))
    for flag, (a, b) in AGREEMENTS.items():
        verdicts[flag] = _agree(verdicts[ROUTES[a].vertex], verdicts[ROUTES[b].vertex])
    return VerdictRecord(
        f.field_degree,
        f.genus,
        f.coeffs,
        tuple(predictors),
        elapsed=time.perf_counter() - t0,
        **verdicts,
    )


@dataclass(frozen=True)
class SweepSummary:
    total: int
    agreements: int
    disagreements: int
    oracle_disagreements: int
    absences: int


def summarize(records) -> SweepSummary:
    reference = PREDICTORS[0]
    against_reference = [flag for flag, (a, _) in AGREEMENTS.items() if a == reference]
    agreements = disagreements = reference_dis = absences = 0
    for r in records:
        flags = [getattr(r, flag) for flag in AGREEMENTS]
        ran = [f for f in flags if f is not None]
        if ran and all(ran):
            agreements += 1
        if any(f is False for f in flags):
            disagreements += 1
        if any(getattr(r, flag) is False for flag in against_reference):
            reference_dis += 1
        if any(
            name in r.predictors and getattr(r, route.vertex) is None
            for name, route in ROUTES.items()
        ):
            absences += 1
    return SweepSummary(len(records), agreements, disagreements, reference_dis, absences)


def _threads() -> int:
    """Worker processes: NP2_THREADS clamped to the CPU count; unset or empty is 1."""
    raw = os.environ.get("NP2_THREADS") or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"NP2_THREADS must be a positive integer, not {raw!r}")
    return min(int(raw), os.cpu_count() or 1)


def _family_values(spec: SweepSpec, draws):
    """Per-curve values of the routes with a family entry point, and the
    seconds charged to each curve: one dict per curve in iter_curves
    order, or repeat(None) when no such route runs on spec.  draws are
    random_draws(spec)."""
    names = [n for n in spec.predictors if ROUTES[n].family]
    if not names:
        return repeat(None), 0.0
    t0 = time.perf_counter()
    columns = [ROUTES[n].family(spec, draws) for n in names]
    rows = [dict(zip(names, values)) for values in zip(*columns)]
    return rows, (time.perf_counter() - t0) / len(rows)


def run_sweep(spec: SweepSpec) -> tuple[list[VerdictRecord], SweepSummary]:
    threads = _threads()
    # drawn once, validating spec, for the family routes and the records
    draws = random_draws(spec)
    # the family transforms run once, here; only per-curve routes go to a pool
    batched, share = _family_values(spec, draws)
    if threads == 1:
        records = [
            evaluate_curve(f, spec.predictors, b, share)
            for f, b in zip(iter_curves(spec, draws), batched)
        ]
    else:
        curves = list(iter_curves(spec, draws))
        chunk = max(1, len(curves) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(
                pool.map(
                    evaluate_curve,
                    curves,
                    repeat(spec.predictors),
                    batched,
                    repeat(share),
                    chunksize=chunk,
                )
            )
    return records, summarize(records)


def frontier_summary(records) -> dict[str, dict[str, int]]:
    """Per-case agreement table for the case ladder, the last route."""
    *_, ladder = ROUTES
    judges = {a: flag for flag, (a, b) in AGREEMENTS.items() if b == ladder}
    rows: dict[str, dict[str, int]] = {}
    for r in records:
        if r.hasse_case is None:
            continue
        row = rows.get(r.hasse_case)
        if row is None:
            row = rows[r.hasse_case] = {"records": 0, "fired": 0}
            for a in judges:
                row[f"{a}_agree"] = row[f"{a}_disagree"] = 0
        row["records"] += 1
        if r.hasse_vertex is None:
            continue
        row["fired"] += 1
        for a, flag in judges.items():
            agree = getattr(r, flag)
            if agree is not None:
                row[f"{a}_agree" if agree else f"{a}_disagree"] += 1
    return {case: rows[case] for case in sorted(rows)}


def _vertex_json(v):
    # counting and rank give a Fraction ordinate, written num/den; the
    # case ladder's is an int
    return [v[0], frac_str(v[1]) if isinstance(v[1], Fraction) else v[1]]


def record_row(rec: VerdictRecord, timing: bool = False) -> dict:
    """The report row of a record, {column: value} in column order.

    JSONL lines and CSV rows both render this row; a vertex is a 2-list.
    """
    values = [
        1 << rec.field_degree,
        rec.genus,
        coeffs_str(rec.coeffs),
        ",".join(rec.predictors),
    ]
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


def report_lines(records, format: str, timing: bool = False) -> list[str]:
    if format == "jsonl":
        return [json.dumps(record_row(r, timing), sort_keys=True) for r in records]
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS + (("elapsed",) if timing else ()))
    for r in records:
        writer.writerow([_csv_cell(v) for v in record_row(r, timing).values()])
    return buf.getvalue().splitlines()
