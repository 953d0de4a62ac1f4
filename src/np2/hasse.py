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
from functools import lru_cache, reduce

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


def _ladder(n: int):
    """The case ladder at level n as rows (case, lo, hi, vertex, terms, slope_at_least).

    A row holds 2g+1 when lo <= 2g+1 < hi, in units of p = 2^(n-2).  Its
    Hasse value is the XOR of its terms, each the product of c_e^(2^j)
    over its factors (e, j); vertex is the first vertex when that value
    is nonzero, slope_at_least the slope bound when a T2 value vanishes.
    """
    p, k = 1 << (n - 2), n - 2
    lead = ((4 * p - 1, 0),)
    ib = (((4 * p - 3, k), (3 * p - 1, 0)), ((4 * p - 5, k), (5 * p - 1, 0)))
    ic = ((5 * p - 1, 0), (4 * p - 3, 0), (6 * p - 5, 0))
    id_ = (ic, ((5 * p - 1, 0), (4 * p - 5, 0), (6 * p - 3, 0)))
    ii = ((4 * p - 3, 0), (6 * p - 1, 0))
    iii = (((8 * p - 7, k), (7 * p - 1, 0)), ((4 * p - 3, n - 1), (6 * p - 1, 0)))
    iv = ((8 * p - 5, k), (5 * p - 1, 0))
    v = (((8 * p - 3, k), (3 * p - 1, 0)), iv, iii[0])
    return (
        ("T1-iia", 8 * p - 3, 8 * p - 2, (2 * n, 2), (((6 * p - 1, 0),),), None),
        ("T1-iib", 8 * p - 3, 8 * p - 2, (n, 1), (lead,), None),
        ("T1-i", 4 * p - 1, 8 * p - 3, (n, 1), (lead,), None),
        ("T2-ia", 4 * p, 5 * p - 1, (2 * n - 2, 2), (((4 * p - 3, 0), (3 * p - 1, 0)),), None),
        ("T2-ib", 5 * p - 1, 6 * p - 5, (2 * n - 2, 2), ib, None),
        ("T2-ic", 6 * p - 5, 6 * p - 4, (3 * n - 3, 3), (ic,), None),
        ("T2-id", 6 * p - 3, 6 * p - 2, (3 * n - 3, 3), id_, None),
        ("T2-ii", 6 * p - 1, 8 * p - 7, (2 * n - 1, 2), (ii,), Fraction(1, n - 1)),
        ("T2-iii", 8 * p - 7, 8 * p - 6, (2 * n - 1, 2), iii, None),
        ("T2-iv", 8 * p - 5, 8 * p - 4, (2 * n - 1, 2), (iv,) + iii, None),
        ("T2-v", 8 * p - 3, 8 * p - 2, (2 * n - 1, 2), v, None),
    )


@lru_cache(maxsize=None)
def _walk(deg: int):
    """The rows that hold deg in ladder order, through the first T2 row,
    which ends the walk (at n = 3 T2-id and T2-iii both hold 9; id wins)."""
    if deg < 2 * MIN_GENUS + 1:
        raise ValueError(f"case ladder needs genus at least {MIN_GENUS}")
    rows = []
    for row in _ladder((deg + 1).bit_length() - 1):
        if row[1] <= deg < row[2]:
            rows.append(row)
            if row[0].startswith("T2"):
                break
    return tuple(rows)


def _value(ctx, c: dict[int, int], terms) -> int:
    """A row's Hasse value on the coefficients c, a dict e -> c_e."""
    value = 0
    for term in terms:
        value ^= reduce(ctx.mul, [ctx.frobenius(c.get(e, 0), j) for e, j in term])
    return value


def classify(f: CurvePoly) -> TheoremCase:
    """Walk the case ladder and return the unique case that fires: the
    first row with a nonzero value, else the T2 row that ends the walk."""
    rows = _walk(f.deg)
    n = (2 * f.genus + 2).bit_length() - 1
    ctx = make_ctx(f.field_degree)
    c = dict(f.coeffs)
    for case_id, _, _, vertex, terms, slope in rows:
        value = _value(ctx, c, terms)
        if value:
            return TheoremCase(case_id, n, value, vertex, case_id.startswith("T2"))
        if case_id.startswith("T2"):
            return TheoremCase(case_id, n, 0, None, True, slope)
    return TheoremCase("out-of-ladder", n, 0, None, True)


def read_exponents(genus: int) -> tuple[int, ...]:
    """The exponents whose coefficients classify reads at this genus: the
    factors of every row its walk reaches, less those past 2g+1, where
    c_e = 0 on every curve."""
    deg = 2 * genus + 1
    return tuple(sorted({e for row in _walk(deg) for term in row[4] for e, _ in term if e <= deg}))
