"""End-to-end acceptance checks.

One test per acceptance item.  Each prints a single PASS/FAIL line with
capture disabled, so the lines land in the terminal even under plain
``pytest -v``, and enforces its stated budget.  Value checks are exact;
only the wall-clock budgets are inequalities.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import DENSITY_TABLE, apply_phi, exhaustive_irreducible_classes, row_reduce
from np2.field import make_ctx
from np2.hasse import classify
from np2.modsolve import density, minimal_irreducible_solutions, odds_up_to
from np2.sweep import SweepSpec, frontier_summary, run_sweep
from np2.vss import predict_first_vertex, vss_report
from np2.zeta import CurvePoly, first_vertex, l_polynomial, newton_polygon_of_curve


@pytest.fixture
def check(capsys):
    def _check(name, ok, detail):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _check


def oracle_vertex(f):
    return first_vertex(newton_polygon_of_curve(f))


def all_curves_f2(g):
    deg = 2 * g + 1
    odds = list(range(1, deg, 2))
    for bits in itertools.product([0, 1], repeat=len(odds)):
        coeffs = {deg: 1}
        coeffs.update({e: b for e, b in zip(odds, bits) if b})
        yield CurvePoly.make(1, coeffs)


def random_curve(rng, a, g):
    q = 1 << a
    deg = 2 * g + 1
    coeffs = {deg: rng.randrange(1, q)}
    for e in range(1, deg, 2):
        b = rng.randrange(q)
        if b:
            coeffs[e] = b
    return CurvePoly.make(a, coeffs)


def test_genus3_first_vertices(check):
    # every genus-3 curve over F_2 reaches first vertex (3,1); in
    # particular none is supersingular
    t0 = time.perf_counter()
    got = [oracle_vertex(f) for f in all_curves_f2(3)]
    dt = time.perf_counter() - t0
    ok = len(got) == 8 and set(got) == {(3, Fraction(1))} and dt < 1.0
    check("genus-3 vertices", ok, f"8/8 curves give (3,1), {dt:.2f}s (budget 1s)")


def test_genus7_all_routes_agree(check):
    # degree 15 = 2^4 - 1: first vertex (4,1) iff c_15 != 0; the leading
    # coefficient is c_15 itself, so all three routes must report (4,1)
    # on every curve of the family
    t0 = time.perf_counter()
    want = (4, Fraction(1))
    bad = []
    total = 0
    for f in all_curves_f2(7):
        total += 1
        o = oracle_vertex(f)
        if (o == want) != (f.coeff(15) != 0):
            bad.append(("oracle", f.coeffs))
        case = classify(f)
        if case.case_id != "T1-i" or case.hasse_bits == 0 or case.vertex != want:
            bad.append(("case table", f.coeffs))
        if predict_first_vertex(f) != want:
            bad.append(("rank criterion", f.coeffs))
    dt = time.perf_counter() - t0
    ok = not bad and total == 128 and dt < 10.0
    check(
        "genus-7 three-way",
        ok,
        f"oracle, rank criterion and case table give (4,1) on {total}/128, "
        f"{dt:.1f}s (budget 10s)" if not bad else f"disagreements: {bad[:3]}",
    )


def test_genus14_vertex_characterization(check):
    # degree 29 = 2^5 - 3: first vertex (8,2) iff c_23 = 1, and among
    # the c_23 = 0 curves it is (4,1) iff c_15 = 1
    t0 = time.perf_counter()
    bad = []
    total = 0
    for f in all_curves_f2(14):
        total += 1
        o = oracle_vertex(f)
        if (o == (8, Fraction(2))) != (f.coeff(23) == 1):
            bad.append(("c23", f.coeffs, o))
        elif f.coeff(23) == 0 and (o == (4, Fraction(1))) != (f.coeff(15) == 1):
            bad.append(("c15", f.coeffs, o))
    dt = time.perf_counter() - t0
    ok = not bad and total == 16384 and dt < 1800.0
    check(
        "genus-14 characterization",
        ok,
        f"{total}/16384 curves match both iff conditions, {dt:.1f}s (budget 30min)"
        if not bad
        else f"mismatches: {bad[:3]}",
    )


def test_density_table(check):
    bad = []
    worst = 0.0
    for n, d, punctures, want in DENSITY_TABLE:
        t0 = time.perf_counter()
        # density raises when it cannot certify its value
        r = density(odds_up_to(d, punctures))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if r.value != want or dt >= 60.0:
            bad.append((n, d, punctures, str(r.value), round(dt, 1)))
    check(
        "density table",
        not bad,
        f"{len(DENSITY_TABLE)} punctured sets exact and certified, worst "
        f"{worst:.2f}s (budget 60s each)" if not bad else f"failures: {bad}",
    )


# the four weight-2 shift-classes at density 2/(2n-1) for n = 4 and 5,
# over the full punctured window
MINIMAL_CLASSES = (
    (
        4,
        29,
        (15,),
        Fraction(2, 7),
        7,
        (((11, 1), (29, 4)), ((13, 1), (23, 16)), ((19, 1), (27, 4)), ((25, 1), (27, 32))),
    ),
    (
        5,
        61,
        (31,),
        Fraction(2, 9),
        9,
        (((23, 1), (61, 8)), ((29, 1), (47, 32)), ((39, 1), (59, 8)), ((55, 1), (57, 8))),
    ),
)


def test_minimal_class_inventory(check):
    bad = []
    for n, d, punctures, target, length, want in MINIMAL_CLASSES:
        D = odds_up_to(d, punctures)
        sols = minimal_irreducible_solutions(D, target=target)
        if tuple(s.digits for s in sols) != want:
            bad.append((n, "classes", [s.digits for s in sols]))
            continue
        for s in sols:
            total = sum(dd * u for dd, u in s.digits)
            valid = (
                s.length == length
                and total > 0
                and total % ((1 << length) - 1) == 0
                and s.density == target
                and s.is_irreducible()
                and s == s.canonical()
                and all(dd in D for dd, _ in s.digits)
            )
            if not valid:
                bad.append((n, "revalidation", s.digits))
        # trying every placement of two ones at the witness length must
        # find the same four classes and nothing else
        if exhaustive_irreducible_classes(D, length, 2) != list(sols):
            bad.append((n, "exhaustive placement", length))
    check(
        "minimal solution classes",
        not bad,
        "exactly 4 shift-classes each at 2/7 (length 7) and 2/9 (length 9), "
        "all revalidated, none missed by exhaustive placement"
        if not bad
        else f"failures: {bad}",
    )


def test_rank_criterion_matches_counts(check):
    t0 = time.perf_counter()
    bad = []
    predicted = absent = 0
    for g in range(1, 9):
        for f in all_curves_f2(g):
            v = predict_first_vertex(f)
            if v is None:
                absent += 1
            elif v != oracle_vertex(f):
                bad.append(("F2", f.coeffs))
            else:
                predicted += 1
    rng = random.Random(20260825)
    for _ in range(200):
        f = random_curve(rng, 2, rng.randrange(1, 7))
        v = predict_first_vertex(f)
        if v is None:
            absent += 1
        elif v != oracle_vertex(f):
            bad.append(("F4", f.coeffs))
        else:
            predicted += 1
    dt = time.perf_counter() - t0
    check(
        "rank criterion vs point counts",
        not bad and predicted > 0,
        f"{predicted} predictions all match the oracle over 510 F_2 curves "
        f"(g <= 8) plus 200 F_4 curves (g <= 6); {absent} left open, {dt:.1f}s"
        if not bad
        else f"mismatches: {bad[:3]}",
    )


def test_case_table_frontier_report(check, tmp_path):
    # exhaustive zero-pattern sweeps over F_2 across the whole n = 4
    # degree window, all three predictors; agreement rates per case are
    # written out as a report, and only the generic T2-ii case is
    # asserted to agree wherever the rank criterion also fires
    t0 = time.perf_counter()
    sweeps = [run_sweep(SweepSpec(field_degree=1, genus=g))[0] for g in range(8, 15)]
    front = frontier_summary(*sweeps)
    total = sum(map(len, sweeps))
    out = tmp_path / "frontier_n4.json"
    payload = {
        "field": "F_2",
        "genus_range": [8, 14],
        "total_curves": total,
        "cases": front,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    dt = time.perf_counter() - t0
    row = front.get("T2-ii")
    ok = out.exists() and row is not None and row["fired"] > 0 and row["vss_disagree"] == 0
    if ok:
        fired = {c: r["fired"] for c, r in front.items() if c.startswith("T2")}
        detail = (
            f"wrote frontier_n4.json over {total} curves, {dt:.1f}s; "
            f"T2-ii agrees on all {row['fired']} cases where the rank criterion "
            f"fires; fired counts {fired}"
        )
    else:
        detail = f"T2-ii row {row}, report at {out}"
    check("case-table frontier report", ok, detail)


def test_invariant_battery(check):
    problems = []

    # digit-column identity and shift equivariance on the minimal
    # solution classes for the n = 3 and n = 4 windows
    sols = list(minimal_irreducible_solutions(odds_up_to(13)))
    sols += list(minimal_irreducible_solutions(odds_up_to(29, (15,)), target=Fraction(2, 7)))
    sols += [s.shift() for s in sols]
    for s in sols:
        phi = s.support()
        l = s.length
        for r in range(l):
            col = sum(d for d, u in s.digits if (u >> r) & 1)
            if col != 2 * phi[l - r - 1] - phi[(l - r) % l]:
                problems.append("digit identity")
        t = s.shift()
        if t.support() != phi[1:] + phi[:1] or t.canonical() != s.canonical():
            problems.append("shift equivariance")

    # Weil bounds, functional equation and coefficient parity on full
    # numerators: exhaustive over F_2 for g <= 3 plus seeded F_4 curves
    rng = random.Random(5)
    pool = [f for g in range(1, 4) for f in all_curves_f2(g)]
    pool += [random_curve(rng, 2, g) for g in (1, 2, 3) for _ in range(5)]
    for f in pool:
        L = l_polynomial(f, full=True)
        q, g = f.q, f.genus
        for k, a in enumerate(L):
            if a * a > math.comb(2 * g, k) ** 2 * q**k:
                problems.append("weil bound")
        for k in range(g + 1):
            if L[2 * g - k] != q ** (g - k) * L[k]:
                problems.append("functional equation")
        if L[0] != 1 or any(a % 2 for a in L[1:]):
            problems.append("coefficient parity")

    # image chains descend and stabilize, exhaustively for g <= 4 over F_2
    for g in range(1, 5):
        for f in all_curves_f2(g):
            rep = vss_report(f)
            M = rep.matrix
            ctx = make_ctx(M.field_degree)
            n = len(M.sigma)
            basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            dims = [n]
            for _ in range(n + 1):
                basis = row_reduce(ctx, [apply_phi(ctx, M, v) for v in basis])
                dims.append(len(basis))
                if dims[-1] == dims[-2]:
                    break
            if (
                dims[-1] != dims[-2]
                or any(x < y for x, y in zip(dims, dims[1:]))
                or dims[-1] != rep.dim
            ):
                problems.append("image chain")

    # the congruence map is additive and twisted-linear over F_4 and F_8
    rng = random.Random(11)
    for a, coeffs in [(2, {7: 2, 3: 1}), (2, {13: 3, 11: 1, 5: 2}), (3, {7: 5, 5: 6, 1: 3})]:
        M = vss_report(CurvePoly.make(a, coeffs)).matrix
        ctx = make_ctx(a)
        n = len(M.sigma)
        q = 1 << a
        for _ in range(10):
            v = tuple(rng.randrange(q) for _ in range(n))
            w = tuple(rng.randrange(q) for _ in range(n))
            fv = apply_phi(ctx, M, v)
            fw = apply_phi(ctx, M, w)
            if apply_phi(ctx, M, tuple(x ^ y for x, y in zip(v, w))) != tuple(
                x ^ y for x, y in zip(fv, fw)
            ):
                problems.append("additivity")
            for lam in range(q):
                lv = tuple(ctx.mul(lam, x) for x in v)
                lam2 = ctx.mul(lam, lam)
                if apply_phi(ctx, M, lv) != tuple(ctx.mul(lam2, x) for x in fv):
                    problems.append("semilinearity")

    check(
        "invariant battery",
        not problems,
        "digit identity, shift equivariance, Weil bounds, functional equation, "
        "coefficient parity, image-chain monotonicity, semilinearity"
        if not problems
        else f"failed: {sorted(set(problems))}",
    )
