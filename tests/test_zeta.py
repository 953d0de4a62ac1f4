import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    exponential_sum_scalar,
    fresh_process,
    full_orbit_leaders,
    table_leader_rows,
    table_trace_bits,
)
from np2.field import embed_bits, make_ctx, primitive_element
from np2.zeta import (
    CurvePoly,
    _basis,
    _basis_log,
    _leader_rows,
    _orbit_leaders,
    _trace_bits,
    _trace_row,
    exponential_sum,
    first_vertex,
    l_polynomial,
    newton_polygon,
    newton_polygon_of_curve,
    point_count,
)


def affine_points_bruteforce(f, m):
    """Oracle: count solutions of y^2 + y = f(x) by looping over all (x, y)."""
    am = f.field_degree * m
    ctx = make_ctx(am)
    emb = [(e, embed_bits(c, f.field_degree, am)) for e, c in f.coeffs]

    def ev(x):
        r = 0
        for e, c in emb:
            r ^= ctx.mul(c, ctx.pow_(x, e))
        return r

    n = 0
    for x in ctx.elements():
        fx = ev(x)
        for y in ctx.elements():
            if ctx.mul(y, y) ^ y == fx:
                n += 1
    return n


def random_curve(rng, a, g):
    coeffs = {2 * g + 1: rng.randrange(1, 1 << a)}
    for e in range(1, 2 * g, 2):
        coeffs[e] = rng.randrange(1 << a)
    return CurvePoly.make(a, coeffs)


def all_curves_f2(g):
    out = []
    for mask in range(1 << g):
        coeffs = {2 * g + 1: 1}
        for i in range(g):
            if (mask >> i) & 1:
                coeffs[2 * i + 1] = 1
        out.append(CurvePoly.make(1, coeffs))
    return out


def test_curvepoly_validation():
    with pytest.raises(ValueError):
        CurvePoly.make(1, {})
    with pytest.raises(ValueError):
        CurvePoly.make(1, {2: 1})
    with pytest.raises(ValueError):
        CurvePoly.make(1, {3: 2})
    with pytest.raises(ValueError):
        CurvePoly(1, ((1, 1), (3, 1)))  # wrong order
    f = CurvePoly.make(2, {7: 3, 3: 1, 5: 0})
    assert f.deg == 7 and f.genus == 3 and f.q == 4
    assert f.support() == (7, 3)
    assert f.coeff(5) == 0 and f.coeff(3) == 1


def test_frozen_cubic():
    f = CurvePoly.make(1, {3: 1})
    assert exponential_sum(f, 1) == 0
    assert exponential_sum(f, 2) == 4
    assert l_polynomial(f, full=True) == [1, 0, 2]
    assert newton_polygon_of_curve(f) == [(0, 0), (2, Fraction(1, 2) * 2)]


def test_frozen_x7_plus_x():
    f = CurvePoly.make(1, {7: 1, 1: 1})
    verts = newton_polygon(l_polynomial(f, full=True), f.q)
    assert first_vertex(verts) == (3, 1)
    assert verts[0] == (0, 0) and verts[-1] == (6, 3)


def test_frozen_hull():
    assert newton_polygon([1, 2, 2], 2) == [(0, 0), (2, 1)]
    assert newton_polygon([1, 0, 0, 8], 2) == [(0, 0), (3, 3)]
    with pytest.raises(ValueError):
        newton_polygon([1, 2], 3)


def test_genus_zero():
    f = CurvePoly.make(1, {1: 1})
    assert l_polynomial(f) == [1]
    assert point_count(f, 1) == 3  # rational curve: q + 1 points


def test_point_counts_match_bruteforce_exhaustive():
    for a, g in ((1, 1), (1, 2), (2, 1)):
        q = 1 << a
        for lead in range(1, q):
            for mask in range(q**g):
                coeffs = {2 * g + 1: lead}
                rest = mask
                for i in range(g):
                    coeffs[2 * i + 1] = rest % q
                    rest //= q
                f = CurvePoly.make(a, coeffs)
                for m in (1, 2):
                    assert point_count(f, m) == affine_points_bruteforce(f, m) + 1


def test_point_counts_match_bruteforce_sampled():
    rng = random.Random(11)
    for _ in range(5):
        f = random_curve(rng, 1, 3)
        assert point_count(f, 2) == affine_points_bruteforce(f, 2) + 1
    f = random_curve(rng, 3, 1)
    assert point_count(f, 1) == affine_points_bruteforce(f, 1) + 1


def test_scalar_and_table_sums_agree():
    rng = random.Random(5)
    for _ in range(20):
        a = rng.choice([1, 2, 3])
        g = rng.randint(1, 3)
        f = random_curve(rng, a, g)
        for m in range(1, 4):
            if a * m > 12:
                continue
            assert exponential_sum_scalar(f, a * m) == exponential_sum(f, m)
    # F_32: five coefficient bits, each its own trace row
    for _ in range(4):
        f = random_curve(rng, 5, rng.randint(1, 3))
        for m in (1, 2):
            assert exponential_sum_scalar(f, 5 * m) == exponential_sum(f, m)


@pytest.mark.parametrize("am", [*range(1, 9), 13])
def test_packed_rows_match_scalar_sum(am):
    # rows of 2^am - 1 bits: below one 64-bit word up to am = 6, and
    # never a whole number of words, so the padding bits are summed too
    rng = random.Random(am)
    for a in (d for d in range(1, am + 1) if am % d == 0):
        for _ in range(1 if am == 13 else 3):
            f = random_curve(rng, a, rng.randint(1, 3))
            assert exponential_sum(f, am // a) == exponential_sum_scalar(f, am), (f, am)


def test_trace_rows_cached_per_coefficient_bit():
    # one row per (am, e, bit of c), not per (am, e, c): at most
    # 5 bits x 4 extension degrees x 5 exponents for F_32 genus 4
    _trace_row.cache_clear()
    rng = random.Random(11)
    for _ in range(200):
        l_polynomial(random_curve(rng, 5, 4))
    assert _trace_row.cache_info().currsize <= 5 * 4 * 5


@pytest.mark.parametrize("am", range(1, 23))
def test_trace_bits_match_table_gather(am):
    # random odd and even exponents and coefficients, e = 2^am - 1 (what
    # exponential_sum passes for e = 0 mod 2^am - 1) and c = 1
    rng = random.Random(am)
    n = (1 << am) - 1
    cases = [(rng.randrange(1, n + 1), rng.randrange(1, n + 1)) for _ in range(3)]
    cases += [(n, rng.randrange(1, n + 1)), (rng.randrange(1, n + 1) | 1, 1)]
    for e, c in cases:
        got = _trace_bits(am, e, c)
        want = table_trace_bits(am, e, c)
        assert got.dtype == want.dtype and got.shape == want.shape, (am, e, c)
        assert np.array_equal(got, want), (am, e, c)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_per_curve_oracle_builds_no_field_table():
    # a genus-22 F_2 curve in a fresh process: no 2^22 table is built
    vertex, tables, peak_kb = fresh_process(
        "from np2.zeta import CurvePoly, first_vertex, l_polynomial, newton_polygon\n"
        "lc = l_polynomial(CurvePoly.make(1, {45: 1, 31: 1, 13: 1}))\n"
        "print(first_vertex(newton_polygon(lc, 2)))\n"
    )
    assert vertex == "(5, Fraction(1, 1))"
    assert tables == 0
    assert peak_kb < 80 * 1024


LEADER_CASES = [(a, am) for am in range(1, 13) for a in range(1, am + 1) if am % a == 0]


@pytest.mark.parametrize("a, am", [*LEADER_CASES, (2, 20), (5, 20)])
def test_orbit_leaders(a, am):
    # every orbit of j -> 2^a j mod 2^am - 1 once, by its least member,
    # in the segment of its exact size
    n = (1 << am) - 1
    m = am // a
    orbits = _orbit_leaders(a, am)
    segments = [
        (s, orbits.leaders[64 * lo : 64 * lo + c])
        for s, c, lo in zip(orbits.sizes, orbits.counts, orbits.bounds)
    ]
    assert sum(s * len(lead) for s, lead in segments) == n
    assert [s for s, _ in segments] == sorted({s for s, _ in segments})
    for s, lead in segments:
        assert m % s == 0
        j = lead.astype(np.int64)
        assert (np.diff(j) > 0).all()
        orbit = [j]
        for _ in range(s):
            orbit.append(orbit[-1] * (1 << a) % n)
        assert (orbit[s] == j).all()
        assert all((step > j).all() for step in orbit[1:s])
    # the bits of the padding slots are cleared
    assert sum(int(w).bit_count() for w in orbits.mask) == sum(orbits.counts)


SEARCH_CASES = [(1, am) for am in range(1, 23)] + [(a, am) for a, am in LEADER_CASES if a > 1]


@pytest.mark.parametrize("a, am", [*SEARCH_CASES, (2, 20), (5, 20)])
def test_orbit_leaders_match_full_search(a, am):
    # the F_2 search skips even words and words with the top bit set
    got, want = _orbit_leaders(a, am), full_orbit_leaders(a, am)
    for name in ("sizes", "counts", "bounds"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("leaders", "mask"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


ROW_CASES = [(a, am) for a, am in LEADER_CASES if a <= 5]
# a sample above am = 12; a = 8 fills a uint8 word, a = 9 and 12 need
# uint16 words and a = 17 uint32 ones
ROW_SAMPLE = [(1, 13), (1, 16), (1, 20), (2, 14), (2, 20), (3, 15), (3, 18), (4, 16), (4, 20), (5, 15), (5, 20)]
WIDE_ROWS = [(8, 16), (9, 9), (12, 12), (17, 17)]


@pytest.mark.parametrize("a, am", [*ROW_CASES, *ROW_SAMPLE, *WIDE_ROWS])
def test_leader_rows_match_table_gather(a, am):
    # every odd exponent of a curve of genus m = am / a
    for e in range(1, 2 * (am // a) + 2, 2):
        got, want = _leader_rows(a, am, e), table_leader_rows(a, am, e)
        assert got.dtype == want.dtype and got.shape == want.shape, (a, am, e)
        assert np.array_equal(got, want), (a, am, e)


@pytest.mark.parametrize("am", range(2, 23))
def test_basis_log_is_the_log_of_the_basis_image(am):
    ctx = make_ctx(am)
    for a in (d for d in range(2, am + 1) if am % d == 0):
        assert ctx.pow_(primitive_element(am), _basis_log(a, am)) == _basis(a, am)[1], a


def test_l_polynomial_full_mode_consistency():
    rng = random.Random(3)
    for _ in range(10):
        a = rng.choice([1, 2])
        g = rng.randint(1, 3)
        f = random_curve(rng, a, g)
        assert l_polynomial(f, full=True) == l_polynomial(f, full=False)


def test_newton_polygon_endpoints_and_slopes():
    rng = random.Random(9)
    for _ in range(15):
        a = rng.choice([1, 2])
        g = rng.randint(1, 4)
        f = random_curve(rng, a, g)
        verts = newton_polygon_of_curve(f)
        assert verts[0] == (0, 0)
        assert verts[-1] == (2 * g, g)
        slopes = [
            Fraction(verts[i + 1][1] - verts[i][1], verts[i + 1][0] - verts[i][0])
            for i in range(len(verts) - 1)
        ]
        assert all(s > 0 for s in slopes)
        assert slopes == sorted(slopes)
        # slope symmetry: s and 1 - s occur with equal length
        segs = {}
        for i in range(len(verts) - 1):
            segs[slopes[i]] = segs.get(slopes[i], 0) + verts[i + 1][0] - verts[i][0]
        for s, width in segs.items():
            assert segs.get(1 - s, 0) == width


def test_first_slope_lower_bound():
    # first NP slope is at least 1/n with n = floor(log2(2g + 2))
    for g, n in ((3, 3), (4, 3), (7, 4)):
        for f in all_curves_f2(g):
            verts = newton_polygon_of_curve(f)
            k, v = first_vertex(verts)
            assert Fraction(v, k) >= Fraction(1, n), f


def test_first_vertex_requires_origin():
    with pytest.raises(ValueError):
        first_vertex([(1, Fraction(1)), (2, Fraction(2))])
