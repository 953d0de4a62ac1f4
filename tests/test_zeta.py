import random
from fractions import Fraction

import numpy as np
import pytest

from np2.field import embed_bits, make_ctx
from np2.zeta import (
    CurvePoly,
    _exponential_sum_scalar,
    _orbit_leaders,
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
            assert _exponential_sum_scalar(f, a * m) == exponential_sum(f, m)
    # F_32: five coefficient bits, each its own trace row
    for _ in range(4):
        f = random_curve(rng, 5, rng.randint(1, 3))
        for m in (1, 2):
            assert _exponential_sum_scalar(f, 5 * m) == exponential_sum(f, m)


@pytest.mark.parametrize("am", [*range(1, 9), 13])
def test_packed_rows_match_scalar_sum(am):
    # rows of 2^am - 1 bits: below one 64-bit word up to am = 6, and
    # never a whole number of words, so the padding bits are summed too
    rng = random.Random(am)
    for a in (d for d in range(1, am + 1) if am % d == 0):
        for _ in range(1 if am == 13 else 3):
            f = random_curve(rng, a, rng.randint(1, 3))
            assert exponential_sum(f, am // a) == _exponential_sum_scalar(f, am), (f, am)


def test_trace_rows_cached_per_coefficient_bit():
    # one row per (am, e, bit of c), not per (am, e, c): at most
    # 5 bits x 4 extension degrees x 5 exponents for F_32 genus 4
    _trace_row.cache_clear()
    rng = random.Random(11)
    for _ in range(200):
        l_polynomial(random_curve(rng, 5, 4))
    assert _trace_row.cache_info().currsize <= 5 * 4 * 5


LEADER_CASES = [(a, am) for am in range(1, 13) for a in range(1, am + 1) if am % a == 0]


@pytest.mark.parametrize("a, am", [*LEADER_CASES, (2, 20), (5, 20)])
def test_orbit_leaders(a, am):
    # every orbit of j -> 2^a j mod 2^am - 1 once, by its least member,
    # in the segment of its exact size
    n = (1 << am) - 1
    m = am // a
    orbits = _orbit_leaders(a, am)
    segments = list(orbits.segments())
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
