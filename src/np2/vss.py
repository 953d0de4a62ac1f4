"""Semilinear stable-image predictor for the first Newton polygon vertex.

The minimal irreducible solutions of the digit equation for the curve's
exponent set have supports whose union is a finite set Sigma.  Writing
the solutions' jumps into a matrix over F_q yields a Frobenius-twisted
linear map phi on F_q^Sigma; the stable image V_ss = lim Im phi^k then
predicts the first vertex as (dim V_ss, density * dim V_ss) whenever
the dimension is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .field import make_ctx
from .modsolve import ModSolution, minimal_irreducible_solutions, odds_up_to
from .zeta import CurvePoly


@dataclass(frozen=True)
class MinimalSupportMatrix:
    """Support list Sigma, matrix rows over F_q, and the solution data."""

    sigma: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]
    density: Fraction
    field_degree: int


@dataclass(frozen=True)
class _Frame:
    """What the rank route knows about an exponent set D before any curve.

    Sigma, the doubling edges and the jump edges (s_i, s_j) -> d, with
    endpoints as indices into Sigma, fix every entry of the matrix except
    the coefficients c_d at the jump exponents `jumps`.  So the matrix,
    and with it the stable-image dimension, depends only on the field
    degree and those coefficients.
    """

    solutions: tuple[ModSolution, ...]
    density: Fraction
    sigma: tuple[int, ...]
    doubling: tuple[tuple[int, int], ...]
    jump_edges: tuple[tuple[int, int, int], ...]
    jumps: tuple[int, ...]

    @classmethod
    def of(cls, solutions) -> _Frame:
        """Row i sends e(s_i) to e(2 s_i) when 2 s_i lies in Sigma, plus
        c_d e(s_j) for every jump s_i -> s_j = 2 s_i - d that some solution
        actually performs: the digit bit u_{d,r} = 1 sits at the position
        where that solution's support passes through s_i.  Matching d alone,
        without the position, would add edges no solution takes.
        """
        if not solutions:
            raise ValueError("no solutions to build from")
        dens = solutions[0].density
        sigma = set()
        jump_edges = {}
        for sol in solutions:
            if sol.density != dens:
                raise ValueError("solutions have mixed densities")
            l = sol.length
            phi = sol.support()
            sigma.update(phi)
            for d, u in sol.digits:
                for r in range(l):
                    if not (u >> r) & 1:
                        continue
                    k = l - 1 - r
                    si, sj = phi[k], phi[(k + 1) % l]
                    if 2 * si - sj != d:
                        raise AssertionError(f"support step {si} -> {sj} does not jump by {d}")
                    prev = jump_edges.setdefault((si, sj), d)
                    if prev != d:
                        raise ValueError(f"ambiguous entry at ({si}, {sj})")
        sigma = tuple(sorted(sigma))
        index = {s: j for j, s in enumerate(sigma)}
        return cls(
            tuple(solutions),
            dens,
            sigma,
            tuple((index[s], index[2 * s]) for s in sigma if 2 * s in index),
            tuple((index[si], index[sj], d) for (si, sj), d in jump_edges.items()),
            tuple(sorted(set(jump_edges.values()))),
        )

    def matrix(self, f: CurvePoly) -> MinimalSupportMatrix:
        n = len(self.sigma)
        rows = [[0] * n for _ in self.sigma]
        for i, j in self.doubling:
            rows[i][j] = 1
        for i, j, d in self.jump_edges:
            rows[i][j] = f.coeff(d)
        return MinimalSupportMatrix(
            self.sigma, tuple(tuple(r) for r in rows), self.density, f.field_degree
        )


def build_matrix(solutions, f: CurvePoly) -> MinimalSupportMatrix:
    """Matrix of the twisted map on the union of solution supports, built
    from the solutions alone; see _Frame.of for its rows."""
    return _frame_of(tuple(solutions)).matrix(f)


@lru_cache(maxsize=None)
def _frame_of(solutions: tuple[ModSolution, ...]) -> _Frame:
    return _Frame.of(solutions)


def _images(M: MinimalSupportMatrix) -> list[int]:
    """phi(t^k e_i) = t^(2k) row_i for every coordinate i and k < a.

    phi(v) = sum_i v_i^2 row_i is F_2-linear on F_q^Sigma = F_2^(a n),
    so these a n images determine it.  Vectors are packed into ints with
    coordinate j in bits a j .. a j + a - 1; image a i + k belongs to
    the basis vector with bit a i + k set.
    """
    a = M.field_degree
    low = make_ctx(a).modulus ^ (1 << a)
    tops = sum(1 << (a * j + a - 1) for j in range(len(M.sigma)))

    def times_t(v):
        # every coordinate times t: shift, then reduce the ones that overflow
        top = v & tops
        return (v ^ top) << 1 ^ (top >> (a - 1)) * low

    out = []
    for row in M.entries:
        v = sum(x << (a * j) for j, x in enumerate(row))
        for _ in range(a):
            out.append(v)
            v = times_t(times_t(v))
    return out


def _span(vectors) -> list[int]:
    """An F_2 basis of the span of packed vectors, by XOR elimination."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return list(basis.values())


def vss_dim(M: MinimalSupportMatrix) -> int:
    """Dimension of the stable image of the twisted map.

    Iterates W_{k+1} = phi(W_k) from the full space over F_2; the chain
    descends, so the first repeat of the dimension is the stable value.
    Each W_k is an F_q-subspace, as phi(c v) = c^2 phi(v), so its F_2
    dimension divided by a is the F_q dimension.
    """
    a = M.field_degree
    images = _images(M)
    dim = len(images)
    basis = [1 << b for b in range(dim)]
    for _ in range(len(M.sigma) + 1):
        nxt = []
        for v in basis:
            w = 0
            while v:
                low = v & -v
                w ^= images[low.bit_length() - 1]
                v ^= low
            nxt.append(w)
        basis = _span(nxt)
        if len(basis) % a:
            raise AssertionError("image is not an F_q-subspace")
        if len(basis) == dim:
            return dim // a
        if len(basis) > dim:
            raise AssertionError("image chain grew")
        dim = len(basis)
    raise AssertionError("image chain failed to stabilize")


def _marks(deg: int) -> tuple[int, ...]:
    """2^n - 1, and at the window's top degree also 3 * 2^(n-1) - 1."""
    n = (deg + 1).bit_length() - 1
    if deg == (1 << (n + 1)) - 3:
        return ((1 << n) - 1, 3 * (1 << (n - 1)) - 1)
    return ((1 << n) - 1,)


def effective_exponent_set(f: CurvePoly) -> tuple[int, ...]:
    """Odd exponents up to deg f, with the distinguished exponents
    removed when their coefficients vanish."""
    return odds_up_to(f.deg, exclude=[e for e in _marks(f.deg) if f.coeff(e) == 0])


@lru_cache(maxsize=None)
def _frame(D) -> _Frame:
    # a refused density raises here, and lru_cache stores no exception
    return _frame_of(tuple(minimal_irreducible_solutions(D)))


def rank_keys(deg: int, rows) -> list[tuple]:
    """A key per dense row (c_1, c_3, ..., c_deg) of curves of one field
    and degree, equal where predict_first_vertex is: the marks stripped,
    then the coefficients at the jumps of that exponent set's frame.
    Frames are built in row order, and only for strips that occur, as
    a frame that no curve needs may be refused."""
    marks = _marks(deg)
    at_marks = itemgetter(*((e - 1) // 2 for e in (marks * 2)[:2]))  # a tuple, even for one mark
    by_marks = {}  # coefficients at the marks -> (strip, getter of the coefficients at the jumps)
    for values in dict.fromkeys(map(at_marks, rows)):
        strip = tuple(e for e, c in zip(marks, values) if c == 0)
        jumps = _frame(odds_up_to(deg, exclude=strip)).jumps
        # one jump gives a bare coefficient, which keys as well as a tuple
        by_marks[values] = strip, itemgetter(*((d - 1) // 2 for d in jumps))
    found = map(by_marks.__getitem__, map(at_marks, rows))
    return [(strip, at_jumps(row)) for (strip, at_jumps), row in zip(found, rows)]


@dataclass(frozen=True)
class VssReport:
    """Everything the stable-image route knows about one curve."""

    matrix: MinimalSupportMatrix
    dim: int
    vertex: tuple[int, Fraction] | None
    slope_above: Fraction | None


def vss_report(f: CurvePoly) -> VssReport:
    if f.genus < 1:
        raise ValueError("stable image needs genus at least 1")
    M = build_matrix(_frame(effective_exponent_set(f)).solutions, f)
    d = vss_dim(M)
    if d > 0:
        return VssReport(M, d, (d, M.density * d), None)
    return VssReport(M, 0, None, M.density)


def predict_first_vertex(f: CurvePoly) -> tuple[int, Fraction] | None:
    """First Newton polygon vertex per the stable image, or None when
    the dimension vanishes (first slope strictly above the density)."""
    return vss_report(f).vertex
