"""Closed-form first-vertex predictions from the coefficient case ladder.

For g >= 3 and n = floor(log2(2g + 2)) the first Newton polygon vertex
is decided, in a run of cases on 2g + 1, by whether a short polynomial
in the curve coefficients vanishes.  The top-level cases (T1-*) are
unconditional; the fallback cases (T2-*) are asserted only for large n,
so their reports carry a caveat flag and are checked against the other
routes by the sweep harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .field import make_ctx
from .zeta import CurvePoly

MIN_GENUS = 3


@dataclass(frozen=True)
class TheoremCase:
    """One fired clause of the case ladder, with its evaluated value."""

    case_id: str
    n: int
    hasse_bits: int
    vertex: tuple[int, int] | None
    large_n_caveat: bool
    slope_at_least: Fraction | None = None


def _value_t2_ia(ctx, c, n):
    return ctx.mul(c((1 << n) - 3), c(3 * (1 << (n - 2)) - 1))


def _value_t2_ib(ctx, c, n):
    return ctx.mul(ctx.frobenius(c((1 << n) - 3), n - 2), c(3 * (1 << (n - 2)) - 1)) ^ ctx.mul(
        ctx.frobenius(c((1 << n) - 5), n - 2), c(5 * (1 << (n - 2)) - 1)
    )


def _value_t2_ic(ctx, c, n):
    return ctx.mul(
        ctx.mul(c((1 << n) - 3), c(3 * (1 << (n - 1)) - 5)), c(5 * (1 << (n - 2)) - 1)
    )


def _value_t2_id(ctx, c, n):
    inner = ctx.mul(c((1 << n) - 3), c(3 * (1 << (n - 1)) - 5)) ^ ctx.mul(
        c((1 << n) - 5), c(3 * (1 << (n - 1)) - 3)
    )
    return ctx.mul(c(5 * (1 << (n - 2)) - 1), inner)


def _value_t2_ii(ctx, c, n):
    return ctx.mul(c((1 << n) - 3), c(3 * (1 << (n - 1)) - 1))


def _value_t2_iii(ctx, c, n):
    return ctx.mul(
        ctx.frobenius(c((1 << (n + 1)) - 7), n - 2), c(7 * (1 << (n - 2)) - 1)
    ) ^ ctx.mul(ctx.frobenius(c((1 << n) - 3), n - 1), c(3 * (1 << (n - 1)) - 1))


def _value_t2_iv(ctx, c, n):
    return (
        ctx.mul(ctx.frobenius(c((1 << (n + 1)) - 5), n - 2), c(5 * (1 << (n - 2)) - 1))
        ^ _value_t2_iii(ctx, c, n)
    )


def _value_t2_v(ctx, c, n):
    return (
        ctx.mul(ctx.frobenius(c((1 << (n + 1)) - 3), n - 2), c(3 * (1 << (n - 2)) - 1))
        ^ ctx.mul(ctx.frobenius(c((1 << (n + 1)) - 5), n - 2), c(5 * (1 << (n - 2)) - 1))
        ^ ctx.mul(ctx.frobenius(c((1 << (n + 1)) - 7), n - 2), c(7 * (1 << (n - 2)) - 1))
    )


def _t2_ladder(n):
    """The fallback cases at level n as (case, lo, hi, vertex, value, slope_at_least).

    A case holds 2g+1 when lo <= 2g+1 < hi, bounds in units of
    p = 2^(n-2); value(ctx, c, n) is its Hasse value, vertex the first
    vertex when that value is nonzero, and slope_at_least the slope
    bound when it vanishes.  Rows are tried in order and the first that
    holds 2g+1 wins (at n = 3 the equality cases overlap and this order
    resolves the tie).
    """
    p = 1 << (n - 2)
    return (
        ("T2-ia", 4 * p, 5 * p - 1, (2 * n - 2, 2), _value_t2_ia, None),
        ("T2-ib", 5 * p - 1, 6 * p - 5, (2 * n - 2, 2), _value_t2_ib, None),
        ("T2-ic", 6 * p - 5, 6 * p - 4, (3 * n - 3, 3), _value_t2_ic, None),
        ("T2-id", 6 * p - 3, 6 * p - 2, (3 * n - 3, 3), _value_t2_id, None),
        ("T2-ii", 6 * p - 1, 8 * p - 7, (2 * n - 1, 2), _value_t2_ii, Fraction(1, n - 1)),
        ("T2-iii", 8 * p - 7, 8 * p - 6, (2 * n - 1, 2), _value_t2_iii, None),
        ("T2-iv", 8 * p - 5, 8 * p - 4, (2 * n - 1, 2), _value_t2_iv, None),
        ("T2-v", 8 * p - 3, 8 * p - 2, (2 * n - 1, 2), _value_t2_v, None),
    )


def classify(f: CurvePoly) -> TheoremCase:
    """Walk the case ladder and return the unique case that fires."""
    if f.genus < MIN_GENUS:
        raise ValueError(f"case ladder needs genus at least {MIN_GENUS}")
    n = (2 * f.genus + 2).bit_length() - 1
    ctx = make_ctx(f.field_degree)
    c = f.coeff
    deg = f.deg
    top = (1 << (n + 1)) - 3
    lead = c((1 << n) - 1)
    if deg == top and c(3 * (1 << (n - 1)) - 1):
        return TheoremCase("T1-iia", n, c(3 * (1 << (n - 1)) - 1), (2 * n, 2), False)
    if lead:
        case_id = "T1-iib" if deg == top else "T1-i"
        return TheoremCase(case_id, n, lead, (n, 1), False)
    for case_id, lo, hi, vertex, value_of, slope in _t2_ladder(n):
        if lo <= deg < hi:
            value = value_of(ctx, c, n)
            if value:
                return TheoremCase(case_id, n, value, vertex, True)
            return TheoremCase(case_id, n, 0, None, True, slope)
    return TheoremCase("out-of-ladder", n, 0, None, True)



def read_exponents(genus: int) -> tuple[int, ...]:
    """The exponents whose coefficients classify reads at this genus.  A
    probe curve that reads 0 everywhere fails both T1 tests and reaches
    its ladder row, whose value has no branches, so it reads them all."""
    read = set()
    deg = 2 * genus + 1
    probe = SimpleNamespace(field_degree=1, genus=genus, deg=deg, coeff=lambda e: read.add(e) or 0)
    classify(probe)
    return tuple(sorted(e for e in read if e <= deg))  # past deg, c_e = 0 on every curve
