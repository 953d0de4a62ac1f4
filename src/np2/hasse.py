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


_T2_VALUES = {
    "T2-ia": _value_t2_ia,
    "T2-ib": _value_t2_ib,
    "T2-ic": _value_t2_ic,
    "T2-id": _value_t2_id,
    "T2-ii": _value_t2_ii,
    "T2-iii": _value_t2_iii,
    "T2-iv": _value_t2_iv,
    "T2-v": _value_t2_v,
}

_T2_VERTICES = {
    "T2-ia": lambda n: (2 * n - 2, 2),
    "T2-ib": lambda n: (2 * n - 2, 2),
    "T2-ic": lambda n: (3 * n - 3, 3),
    "T2-id": lambda n: (3 * n - 3, 3),
    "T2-ii": lambda n: (2 * n - 1, 2),
    "T2-iii": lambda n: (2 * n - 1, 2),
    "T2-iv": lambda n: (2 * n - 1, 2),
    "T2-v": lambda n: (2 * n - 1, 2),
}


def _t2_intervals(n):
    # tried in order; the first interval holding 2g+1 wins (at n = 3 the
    # equality cases overlap and this order resolves the tie)
    return (
        ("T2-ia", (1 << n), 5 * (1 << (n - 2)) - 1),
        ("T2-ib", 5 * (1 << (n - 2)) - 1, 3 * (1 << (n - 1)) - 5),
        ("T2-ic", 3 * (1 << (n - 1)) - 5, 3 * (1 << (n - 1)) - 4),
        ("T2-id", 3 * (1 << (n - 1)) - 3, 3 * (1 << (n - 1)) - 2),
        ("T2-ii", 3 * (1 << (n - 1)) - 1, (1 << (n + 1)) - 7),
        ("T2-iii", (1 << (n + 1)) - 7, (1 << (n + 1)) - 6),
        ("T2-iv", (1 << (n + 1)) - 5, (1 << (n + 1)) - 4),
        ("T2-v", (1 << (n + 1)) - 3, (1 << (n + 1)) - 2),
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
    for case_id, lo, hi in _t2_intervals(n):
        if lo <= deg < hi:
            value = _T2_VALUES[case_id](ctx, c, n)
            if value:
                return TheoremCase(case_id, n, value, _T2_VERTICES[case_id](n), True)
            slope = Fraction(1, n - 1) if case_id == "T2-ii" else None
            return TheoremCase(case_id, n, 0, None, True, slope)
    return TheoremCase("out-of-ladder", n, 0, None, True)

