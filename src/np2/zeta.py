"""Zeta function data for the curves y^2 + y = f(x) over F_{2^a}.

f ranges over polynomials with odd exponents only, so deg f = 2g + 1 and
the curve has genus g and 2-rank zero.  The numerator L(T) of the zeta
function is recovered from the character sums

    S_m = sum over x in F_{2^(am)} of (-1)^Tr(f(x)),

since #C(F_{q^m}) = q^m + 1 + S_m, via the log derivative recurrence
k a_k = sum_{m<=k} S_m a_{k-m} and the functional equation.  The Newton
polygon is the lower convex hull of (k, v(a_k)) with v normalized so
that v(q) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .field import (
    TABLE_DEGREE_CAP,
    embed_bits,
    make_ctx,
    powers,
    primitive_element,
    trace_mask,
)


@dataclass(frozen=True)
class CurvePoly:
    """f = sum c_e x^e with odd exponents, defining y^2 + y = f(x).

    field_degree is a with coefficients in F_{2^a}; coeffs holds
    (exponent, bits) pairs sorted by descending exponent, zeros dropped.
    """

    field_degree: int
    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        q = 1 << self.field_degree
        if not self.coeffs:
            raise ValueError("f must be nonzero")
        above = None
        for e, c in self.coeffs:
            if e < 1 or e % 2 == 0:
                raise ValueError(f"exponent {e} is not odd and positive")
            if not 1 <= c < q:
                raise ValueError(f"coefficient {c} out of range for F_{{2^{self.field_degree}}}")
            if e == above:
                raise ValueError(f"repeated exponent {e}")
            if above is not None and e > above:
                raise ValueError("coeffs must be sorted by descending exponent")
            above = e

    @classmethod
    def make(cls, field_degree: int, coeffs: dict[int, int]) -> "CurvePoly":
        pairs = tuple(sorted(((e, c) for e, c in coeffs.items() if c), reverse=True))
        return cls(field_degree, pairs)

    @property
    def deg(self) -> int:
        return self.coeffs[0][0]

    @property
    def genus(self) -> int:
        return (self.deg - 1) // 2

    @property
    def q(self) -> int:
        return 1 << self.field_degree

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.coeffs)

    def coeff(self, e: int) -> int:
        for ee, c in self.coeffs:
            if ee == e:
                return c
        return 0


def check_extension_degree(am: int) -> None:
    if not 1 <= am <= TABLE_DEGREE_CAP:
        raise ValueError(
            f"extension degree {am} outside 1..{TABLE_DEGREE_CAP}, the extension-degree cap"
        )


def exponential_sum(f: CurvePoly, m: int) -> int:
    """S_m = sum over F_{2^(am)} of (-1)^Tr(f(x)), from packed trace rows.

    Raises ValueError when the extension degree am exceeds the
    extension-degree cap, TABLE_DEGREE_CAP.
    """
    am = f.field_degree * m
    check_extension_degree(am)
    n = (1 << am) - 1
    acc = np.zeros(-(-n // 64), dtype=np.uint64)
    # Tr(c x^e) is F_2-linear in the bits of c: one cached row per bit
    basis = _basis(f.field_degree, am)
    for e, c in f.coeffs:
        for i, b in enumerate(basis):
            if c >> i & 1:
                acc ^= _trace_row(am, e % n or n, b)
    # x = 0 contributes +1 since f(0) = 0
    return (1 << am) - 2 * int(np.bitwise_count(acc).sum())


@lru_cache(maxsize=None)
def _basis(a: int, am: int) -> tuple[int, ...]:
    """Images in F_{2^am} of the canonical basis t^i of F_{2^a}."""
    return tuple(embed_bits(1 << i, a, am) for i in range(a))


# slots of the outer product in _trace_bits formed at a time, to bound
# its scratch memory
_ROW_BLOCK = 1 << 18


def _trace_bits(am: int, e: int, cbits: int) -> np.ndarray:
    """Tr(c g^(j e)) for j = 0..2^am - 2 as uint8, g the canonical generator.

    No field table is built.  With K = 2^ceil(am/2) and j = A K + b,
    c g^(j e) = h^A y_b for h = g^(e K) and y_b = c g^(b e).  Since
    Tr(x y) = sum_i x_i Tr(t^i y) over the bits x_i of x, the bit at j is
    the parity of alpha[A] & w[b], where alpha[A] = h^A and bit i of w[b]
    is Tr(t^i y_b): two tables of at most K words.  The slot j = 2^am - 1,
    which repeats j = 0, is dropped.
    """
    ctx = make_ctx(am)
    half = (am + 1) // 2
    ge = ctx.pow_(primitive_element(am), e)
    alpha = powers(ctx, ctx.frobenius(ge, half), 1 << (am - half))
    y = powers(ctx, ge, 1 << half, first=cbits)
    w = np.zeros_like(y)
    mask = trace_mask(am)
    for i in range(am):
        w |= (np.bitwise_count(y & mask) & 1).astype(np.int32) << i
        y <<= 1
        y ^= (y >> am) * ctx.modulus
    bits = np.empty((alpha.size, w.size), dtype=np.uint8)
    step = max(1, _ROW_BLOCK // w.size)
    for lo in range(0, alpha.size, step):
        np.bitwise_count(alpha[lo : lo + step, None] & w, out=bits[lo : lo + step])
    bits &= 1
    return bits.ravel()[: ctx.q - 1]


@lru_cache(maxsize=None)
def _trace_row(am: int, e: int, cbits: int) -> np.ndarray:
    """_trace_bits packed into uint64 words; the bits past 2^am - 1 are zero."""
    packed = np.packbits(_trace_bits(am, e, cbits), bitorder="little")
    row = np.zeros(-(-packed.size // 8) * 8, dtype=np.uint8)
    row[: packed.size] = packed
    row = row.view(np.uint64)
    row.setflags(write=False)
    return row


def point_count(f: CurvePoly, m: int = 1) -> int:
    """#C(F_{q^m}) including the one point at infinity."""
    return f.q ** m + 1 + exponential_sum(f, m)


def l_polynomial(f: CurvePoly, full: bool = False) -> list[int]:
    """Coefficients [a_0, ..., a_2g] of the zeta numerator L(T).

    With full=False the sums S_1..S_g are computed and the upper half is
    filled in from the functional equation a_(2g-k) = q^(g-k) a_k.  With
    full=True all of S_1..S_2g are computed and the functional equation,
    the Weil bound and evenness of a_1..a_2g are verified.  Raises
    ValueError, before computing any sum, when S_top lies past the
    extension-degree cap (a * g or a * 2g above TABLE_DEGREE_CAP).
    """
    g = f.genus
    q = f.q
    if g == 0:
        return [1]
    top = 2 * g if full else g
    check_extension_degree(f.field_degree * top)
    s = [exponential_sum(f, m) for m in range(1, top + 1)]
    a = [1] + [0] * (2 * g)
    for k in range(1, top + 1):
        tot = sum(s[m - 1] * a[k - m] for m in range(1, k + 1))
        if tot % k:
            raise AssertionError(f"power sum recurrence not divisible at k={k}")
        a[k] = tot // k
    if full:
        for k in range(g + 1, 2 * g + 1):
            if a[k] != q ** (k - g) * a[2 * g - k]:
                raise AssertionError(f"functional equation fails at k={k}")
        for k in range(2 * g + 1):
            if a[k] ** 2 > comb(2 * g, k) ** 2 * q**k:
                raise AssertionError(f"Weil bound fails at k={k}")
        if any(a[k] % 2 for k in range(1, 2 * g + 1)):
            raise AssertionError("odd coefficient in a 2-rank zero L-polynomial")
    else:
        for k in range(g + 1, 2 * g + 1):
            a[k] = q ** (k - g) * a[2 * g - k]
    return a


def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def newton_polygon(lcoeffs, q: int) -> list[tuple[int, Fraction]]:
    """Vertices of the q-adic Newton polygon of sum lcoeffs[k] T^k.

    Valuations are normalized so v(q) = 1; zero coefficients are
    skipped.  Returns the lower hull vertices left to right.
    """
    a = q.bit_length() - 1
    if q != 1 << a or a < 1:
        raise ValueError(f"q = {q} is not a power of 2")
    pts = [(k, _v2(c)) for k, c in enumerate(lcoeffs) if c]
    if not pts:
        raise ValueError("zero polynomial")
    hull = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    for i in range(2, len(hull)):
        if _cross(hull[i - 2], hull[i - 1], hull[i]) <= 0:
            raise AssertionError("hull slopes not strictly increasing")
    return [(k, Fraction(v, a)) for k, v in hull]


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def first_vertex(vertices) -> tuple[int, Fraction]:
    """First vertex after the origin; the polygon starts at (0, 0)."""
    if vertices[0] != (0, 0):
        raise ValueError("polygon does not start at the origin")
    if len(vertices) < 2:
        raise ValueError("polygon has no positive-slope segment")
    return vertices[1]


def newton_polygon_of_curve(f: CurvePoly) -> list[tuple[int, Fraction]]:
    return newton_polygon(l_polynomial(f), f.q)


@dataclass(frozen=True)
class _Orbits:
    """Orbits of j -> 2^a j mod 2^am - 1 on the exponents of F_{2^am}^*.

    Multiplying by 2^a rotates the am-bit word j left by a bits, so every
    orbit has a size s dividing m = am / a.  For f with coefficients in
    F_{2^a}, Tr(f(x^(2^a))) = Tr(f(x)), so a sum over F_{2^am}^* needs one
    leader j per orbit, weighted by its size.  Segment k holds counts[k]
    leaders of orbit size sizes[k], ascending, in slots 64 * bounds[k] ..
    of leaders; the slots past them up to 64 * bounds[k + 1] hold 0, and
    mask clears their bits in a packed row.
    """

    sizes: tuple[int, ...]
    counts: tuple[int, ...]
    bounds: tuple[int, ...]
    leaders: np.ndarray
    mask: np.ndarray


# candidates, and leaders, per block of the leader search and of a leader
# row, to bound their scratch memory; a multiple of 64
_LEADER_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _orbit_leaders(a: int, am: int) -> _Orbits:
    """The least exponent of every orbit, grouped by orbit size; see _Orbits."""
    m = am // a
    n = (1 << am) - 1
    divisors = [s for s in range(1, m + 1) if m % s == 0]
    parts = {s: [] for s in divisors}
    parts[1].append(np.zeros(1, dtype=np.uint32))  # every rotation fixes 0
    # for a = 1 every other leader is odd and below 2^(am - 1): an even
    # word halves under one rotation, one with its top bit set drops
    step, stop = (2, 1 << (am - 1)) if a == 1 else (1, n)
    for lo in range(1, stop, step * _LEADER_BLOCK):
        # a leader is at most each of its rotations; drop a candidate at
        # the first rotation below it
        lead = np.arange(lo, min(stop, lo + step * _LEADER_BLOCK), step, dtype=np.uint32)
        rot = lead
        for _ in range(1, m):
            rot = rot << a & n | rot >> (am - a)
            keep = lead <= rot
            lead, rot = lead[keep], rot[keep]
        # the orbit size is the least s | m whose rotation fixes the leader
        size = np.full(lead.size, m, dtype=np.uint8)
        for s in reversed(divisors[:-1]):
            shift = a * s
            size[(lead << shift & n | lead >> (am - shift)) == lead] = s
        for s in divisors:
            parts[s].append(lead[size == s])
    sizes, counts, bounds = [], [], [0]
    for s in divisors:
        c = sum(part.size for part in parts[s])
        if c:
            sizes.append(s)
            counts.append(c)
            bounds.append(bounds[-1] - (-c // 64))
    leaders = np.zeros(64 * bounds[-1], dtype=np.uint32)
    mask = np.full(bounds[-1], (1 << 64) - 1, dtype=np.uint64)
    for s, c, lo in zip(sizes, counts, bounds):
        leaders[64 * lo : 64 * lo + c] = np.concatenate(parts.pop(s))
        if c % 64:
            mask[lo + c // 64] = (1 << c % 64) - 1
    for arr in (leaders, mask):
        arr.setflags(write=False)
    return _Orbits(tuple(sizes), tuple(counts), tuple(bounds), leaders, mask)


def _basis_log(a: int, am: int) -> int:
    """log_g of beta_1 = rho, the image of t, for a > 1.

    rho is a nonzero element of the subfield F_{2^a}, so it lies in the
    subgroup of order 2^a - 1 generated by z = g^(n / (2^a - 1)): the log is
    that step times the position of rho among the powers of z.
    """
    ctx = make_ctx(am)
    step = (ctx.q - 1) // ((1 << a) - 1)
    z = powers(ctx, ctx.pow_(primitive_element(am), step), (1 << a) - 1)
    return step * int(np.flatnonzero(z == _basis(a, am)[1])[0])


@lru_cache(maxsize=None)
def _trace_words(a: int, am: int) -> np.ndarray:
    """T[j] = sum_i Tr(beta_i g^j) << i for j = 0..2^am - 2, over the basis
    images beta_i of F_{2^a}, in the least unsigned dtype that holds a bits.

    For a = 1 this is the row Tr(g^j) of _trace_bits, shared by every field
    degree at am.  Since beta_i = rho^i, bit i is that row rotated by
    i log rho.
    """
    if a == 1:
        row = _trace_bits(am, 1, 1)
        row.setflags(write=False)
        return row
    n = (1 << am) - 1
    row = _trace_words(1, am).astype(np.min_scalar_type((1 << a) - 1))
    words = row.copy()
    log_rho = _basis_log(a, am)
    for i in range(1, a):
        s = i * log_rho % n
        words[: n - s] |= row[s:] << i
        words[n - s :] |= row[:s] << i
    words.setflags(write=False)
    return words


@lru_cache(maxsize=None)
def _leader_rows(a: int, am: int, e: int) -> np.ndarray:
    """Tr(beta_i g^(j e)) over the orbit leaders j, one packed uint64 row
    per basis image beta_i of F_{2^a}, laid out as _Orbits; padding bits
    are zero.  One gather of _trace_words per block of leaders gives all a
    rows."""
    words = _trace_words(a, am)
    n = (1 << am) - 1
    orbits = _orbit_leaders(a, am)
    rows = np.empty((a, orbits.mask.size), dtype=np.uint64)
    for lo in range(0, orbits.leaders.size, _LEADER_BLOCK):
        je = orbits.leaders[lo : lo + _LEADER_BLOCK].astype(np.int64)
        je *= e
        je %= n
        t = words.take(je)
        out = slice(lo // 64, (lo + je.size) // 64)
        for i in range(a):
            rows[i, out] = np.packbits((t & 1 << i).astype(bool), bitorder="little").view(np.uint64)
    rows &= orbits.mask
    rows.setflags(write=False)
    return rows


def family_first_vertices(
    field_degree: int, genus: int, fixed=()
) -> tuple[list[tuple[int, Fraction]], np.ndarray]:
    """First vertex of every curve of a family, one Walsh-Hadamard transform per m.

    The family is every f of degree 2g + 1 over F_{2^a} whose coefficients
    at the exponents of fixed, (exponent, bits) pairs, are those bits; the
    other coefficients run over F_{2^a}, a free leading one over its
    nonzero elements.  Returns the family's distinct vertices, ascending,
    each as first_vertex(newton_polygon_of_curve(f)) would give it, and an
    index into them per curve, in ascending order of the dense coefficient
    tuple (c_1, c_3, ..., c_{2g+1}).

    A curve's index concatenates the bits of its free coefficients, the
    lowest exponent most significant.  Tr(c x^e) is F_2-linear in the bits
    of c, so S_m at index b is 1 + sum_u C[u] (-1)^<b, u>, where C[u] sums
    the sign (-1)^Tr(fixed part of f(x)) over the x != 0 whose traces
    Tr(beta_i x^e), for the free bits, form the pattern u: the Walsh
    spectrum of C.  Every x in one Frobenius orbit has the same pattern, so
    C counts the orbit leaders, each weighted by its orbit size.  Memory is
    about 8 * 2^(free bits) bytes for the transform and 12 * g bytes per
    curve.
    """
    a, g = field_degree, genus
    check_extension_degree(a * g)
    q = 1 << a
    deg = 2 * g + 1
    frozen = dict(fixed)
    if q == 2:
        frozen.setdefault(deg, 1)  # the one nonzero leading coefficient
    free = [e for e in range(1, deg + 1, 2) if e not in frozen]
    nbits = a * len(free)
    sums = []
    for m in range(1, g + 1):
        am = a * m
        n = (1 << am) - 1
        orbits = _orbit_leaders(a, am)
        words = _trace_words(a, am)
        leaders = orbits.leaders.astype(np.int64)
        # over the leaders j, x = g^j: bit 0 is Tr of the fixed part of f(x),
        # the parity of T[j e] & c over its (e, c); bits 1 + a k .. a k + a are
        # T[j e] for the k-th free exponent e from the top
        pattern = np.zeros(leaders.size, dtype=np.int64)
        for e, c in frozen.items():
            pattern ^= np.bitwise_count(words.take(leaders * e % n) & c) & 1
        for k, e in enumerate(reversed(free)):
            pattern |= words.take(leaders * e % n).astype(np.int64) << (1 + a * k)
        counts = np.zeros(2 << nbits, dtype=np.int64)
        for s, c, lo in zip(orbits.sizes, orbits.counts, orbits.bounds):
            seg = pattern[64 * lo : 64 * lo + c]
            counts += s * np.bincount(seg, minlength=2 << nbits)
        counts = counts.reshape(-1, 2)
        spectrum = counts[:, 0] - counts[:, 1]
        _walsh_hadamard(spectrum)
        spectrum += 1  # x = 0
        if deg not in frozen:
            spectrum = spectrum.reshape(-1, q)[:, 1:].ravel()
        sums.append(spectrum)
    return _first_vertices(a, g, sums)


# bytes of packed trace words that curves_first_vertices XORs per chunk
_CHUNK_BYTES = 1 << 19
# bytes of the XOR tables curves_first_vertices holds for one m; past it
# a table gets fewer bits, down to one
_TABLE_BYTES = 1 << 23


def _group_width(curves: int) -> int:
    """Bits per XOR table: a table of 2^w rows pays off once that many
    curves look it up."""
    return max(1, min(4, curves.bit_length() - 1))


def curves_first_vertices(field_degree: int, dense) -> tuple[list[tuple[int, Fraction]], np.ndarray]:
    """The distinct first vertices of a list of curves, ascending, and an
    index into them per curve, in the list's order.

    dense holds one row (c_1, c_3, ..., c_{2g+1}) per curve over
    F_{2^a}, every last entry nonzero, so all curves have genus g.  For
    each m, a curve's leader row of Tr(f(x)) XORs the rows of
    _leader_rows for the set bits of its coefficients: through tables of
    the XORs of up to w = _group_width(curves) rows, built once per m, one
    lookup per w bits by a uint8 index per curve, for a chunk of curves of
    about _CHUNK_BYTES at a time; bits set in no curve are skipped, and w
    drops toward 1 while the tables of m = g pass _TABLE_BYTES.  Then
    S_m = 1 + sum over orbit sizes s of s * (leaders - 2 * set bits).
    """
    a = field_degree
    dense = np.asarray(dense, dtype=np.int64)
    curves, width = dense.shape
    g = width - 1
    check_extension_degree(a * g)
    if not dense[:, -1].all():
        raise ValueError("a curve has a zero leading coefficient")
    # (exponent index, bit) of the bits some curve sets, w to a group; a
    # curve's index into a group's table holds its bits of that group
    used = [(k, i) for k in range(width) for i in range(a) if (dense[:, k] >> i & 1).any()]
    w = _group_width(curves)
    words = _orbit_leaders(a, a * g).mask.size  # the most of any m
    while w > 1 and (-(-len(used) // w) << w) * 8 * words > _TABLE_BYTES:
        w -= 1
    groups = [used[t : t + w] for t in range(0, len(used), w)]
    index = np.zeros((len(groups), curves), dtype=np.uint8)
    for t, group in enumerate(groups):
        for r, (k, i) in enumerate(group):
            index[t] |= (dense[:, k] >> i & 1).astype(np.uint8) << r
    sums = []
    for m in range(1, g + 1):
        am = a * m
        orbits = _orbit_leaders(a, am)
        words = orbits.mask.size
        tables = np.zeros((len(groups), 1 << w, words), dtype=np.uint64)
        for t, group in enumerate(groups):
            for r, (k, i) in enumerate(group):
                row = _leader_rows(a, am, 2 * k + 1)[i]
                np.bitwise_xor(tables[t, : 1 << r], row, out=tables[t, 1 << r : 2 << r])
        chunk = max(1, _CHUNK_BYTES // (8 * words))
        total = np.empty(curves, dtype=np.int64)
        for lo in range(0, curves, chunk):
            hi = min(curves, lo + chunk)
            acc = tables[0][index[0, lo:hi]]
            for t in range(1, len(groups)):
                acc ^= tables[t][index[t, lo:hi]]
            # S_m = 2^am - 2 sum_s s * (set bits in segment s), x = 0 included
            ones = np.zeros(hi - lo, dtype=np.int64)
            for s, b0, b1 in zip(orbits.sizes, orbits.bounds, orbits.bounds[1:]):
                ones += s * np.bitwise_count(acc[:, b0:b1]).sum(axis=1, dtype=np.int64)
            total[lo:hi] = (1 << am) - 2 * ones
        sums.append(total)
    return _first_vertices(a, g, sums)


def _first_vertices(a: int, g: int, sums) -> tuple[list[tuple[int, Fraction]], np.ndarray]:
    """The distinct first vertices of the curves, ascending, and each
    curve's index into them, from their sums: sums[m - 1] holds S_m of
    every curve, m = 1..g.

    The recurrence for a_1..a_g runs over all curves as int64 arrays, and
    the first vertex is the largest k that minimises v(a_k)/k over
    k = 1..2g.
    """
    # |S_m a_(k-m)| <= 2g q^(m/2) C(2g, k-m) q^((k-m)/2) <= term, and k <= g
    # terms are summed, so the recurrence is exact in int64 while a * g <= 22
    term = 2 * g * comb(2 * g, g) << (a * g + 1) // 2
    if g * term >= 1 << 63:
        raise AssertionError(f"the recurrence may overflow int64 at a = {a}, g = {g}")
    lc = [1]
    for k in range(1, g + 1):
        tot = sums[k - 1].astype(np.int64)
        for m in range(1, k):
            tot += sums[m - 1] * lc[k - m]
        if (tot % k).any():
            raise AssertionError(f"power sum recurrence not divisible at k={k}")
        lc.append(tot // k)
    # k descending, so a tie keeps the larger k; past g, a_k = q^(k-g) a_(2g-k),
    # and a_2g = q^g starts the search
    best_k = np.full(sums[0].size, 2 * g, dtype=np.int64)
    best_v = np.full(sums[0].size, a * g, dtype=np.int64)
    for k in range(2 * g - 1, 0, -1):
        x = lc[min(k, 2 * g - k)]
        vk = np.bitwise_count((x & -x) - 1).astype(np.int64) + a * max(k - g, 0)
        better = (vk * best_k < best_v * k) & (x != 0)
        best_k[better] = k
        best_v[better] = vk[better]
    # the slope best_v / best_k only falls from a / 2, so best_v <= a g and
    # k (a g + 1) + v numbers the vertices in (k, v) order
    keys, index = np.unique(best_k * (a * g + 1) + best_v, return_inverse=True)
    ks, vs = np.divmod(keys, a * g + 1)
    return [(k, Fraction(v, a)) for k, v in zip(ks.tolist(), vs.tolist())], index


def _walsh_hadamard(c: np.ndarray) -> None:
    """In place: c[b] becomes sum_u c[u] (-1)^popcount(b & u)."""
    h = 1
    while h < c.size:
        pairs = c.reshape(-1, 2, h)
        lo = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(lo, pairs[:, 1], out=pairs[:, 1])
        h *= 2
