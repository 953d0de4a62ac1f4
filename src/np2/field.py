"""Arithmetic in the binary fields F_{2^a}, elements encoded as ints.

An element is an int whose binary digits are the coefficients of a
polynomial in the canonical generator t, so 0b101 means t^2 + 1.  Every
degree has exactly one canonical modulus: the irreducible polynomial of
that degree whose bit pattern, read as an integer, is smallest.  All
contexts are cached, so elements of equal degree always share a modulus.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_DEGREE = 40
TABLE_DEGREE_CAP = 22


def _pdeg(p: int) -> int:
    return p.bit_length() - 1


def _pmod(a: int, b: int) -> int:
    """Remainder of carry-less polynomial division of a by b."""
    db = _pdeg(b)
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def is_irreducible(poly: int) -> bool:
    """Rabin's test for irreducibility over GF(2)."""
    d = _pdeg(poly)
    if d < 1:
        return False
    # square in F_2[x] / poly; x itself needs reducing when d = 1
    ring = FieldCtx(d, poly)
    x = _pmod(0b10, poly)
    # x^(2^d) must equal x mod poly
    if ring.frobenius(x, d) != x:
        return False
    for r in _prime_divisors(d):
        if _pgcd(ring.frobenius(x, d // r) ^ x, poly) != 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def smallest_irreducible(a: int) -> int:
    """Canonical modulus: smallest-bits irreducible polynomial of degree a."""
    if not 1 <= a <= MAX_DEGREE:
        raise ValueError(f"degree {a} out of range 1..{MAX_DEGREE}")
    for cand in range(1 << a, 1 << (a + 1)):
        if is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: every degree has an irreducible polynomial")


class FieldCtx:
    """Field context for F_{2^degree}; operations act on plain ints."""

    def __init__(self, degree: int, modulus: int):
        self.degree = degree
        self.modulus = modulus
        self.q = 1 << degree

    def __repr__(self) -> str:
        return f"FieldCtx(2^{self.degree}, mod={bin(self.modulus)})"

    def mul(self, x: int, y: int) -> int:
        m, top = self.modulus, 1 << self.degree
        r = 0
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x & top:
                x ^= m
        return r

    def times_t(self, x: int) -> int:
        """x * t, one shift and at most one reduction."""
        x <<= 1
        if x >> self.degree:
            x ^= self.modulus
        return x

    def frobenius(self, x: int, k: int) -> int:
        """x^(2^k) by k squarings."""
        for _ in range(k):
            x = self.mul(x, x)
        return x

    def pow_(self, x: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def trace(self, x: int) -> int:
        """Absolute trace down to F_2, returned as 0 or 1."""
        t = x
        cur = x
        for _ in range(self.degree - 1):
            cur = self.mul(cur, cur)
            t ^= cur
        if t not in (0, 1):
            raise AssertionError(f"trace landed outside F_2: {t}")
        return t

    def elements(self) -> range:
        return range(self.q)


@lru_cache(maxsize=None)
def make_ctx(a: int) -> FieldCtx:
    return FieldCtx(a, smallest_irreducible(a))


@lru_cache(maxsize=None)
def primitive_element(a: int) -> int:
    """Smallest generator of the multiplicative group of F_{2^a}."""
    ctx = make_ctx(a)
    n = ctx.q - 1
    if n == 1:
        return 1
    primes = _prime_divisors(n)
    for g in range(2, ctx.q):
        if all(ctx.pow_(g, n // p) != 1 for p in primes):
            return g
    raise AssertionError("unreachable: the multiplicative group is cyclic")


@lru_cache(maxsize=None)
def embedding_root(a_small: int, a_big: int) -> int:
    """Smallest-bits root of the degree-a_small canonical modulus in F_{2^a_big}.

    Sending the small field's generator t to this root defines the
    canonical embedding F_{2^a_small} -> F_{2^a_big}.
    """
    if a_big % a_small:
        raise ValueError(f"no embedding: {a_small} does not divide {a_big}")
    big = make_ctx(a_big)
    if a_small == 1:
        return 1
    if a_small == a_big:
        return 0b10
    modulus = smallest_irreducible(a_small)
    # The subfield's nonzero elements form the unique multiplicative
    # subgroup of order 2^a_small - 1.
    step = (big.q - 1) // ((1 << a_small) - 1)
    z = big.pow_(primitive_element(a_big), step)
    roots = []
    w = 1
    for _ in range((1 << a_small) - 1):
        if _eval_poly(modulus, w, big) == 0:
            roots.append(w)
        w = big.mul(w, z)
    if not roots:
        raise AssertionError("modulus has no root in the extension")
    return min(roots)


def _eval_poly(poly: int, x: int, ctx: FieldCtx) -> int:
    r = 0
    for i in range(_pdeg(poly), -1, -1):
        r = ctx.mul(r, x)
        if (poly >> i) & 1:
            r ^= 1
    return r


def embed_bits(bits: int, a_small: int, a_big: int) -> int:
    """Image of a small-field element (as bits) in the big field."""
    rho = embedding_root(a_small, a_big)
    big = make_ctx(a_big)
    r = 0
    i = bits.bit_length() - 1
    while i >= 0:
        r = big.mul(r, rho)
        if (bits >> i) & 1:
            r ^= 1
        i -= 1
    return r


def _mul_by_const(ctx: FieldCtx, c: int, xs: np.ndarray) -> np.ndarray:
    """c * x for every x in the int32 array xs, as a new int32 array.

    Multiplying by c is F_2-linear, so it is applied one input byte at a
    time through a lookup table of c times that byte, the byte tables
    XOR-ed together.  Each table is spanned by its basis images c * t^i,
    each one shift of the last, reduced.
    """
    out = np.zeros(xs.shape, dtype=np.int32)
    ct = c
    for lo in range(0, ctx.degree, 8):
        nbits = min(8, ctx.degree - lo)
        tab = np.zeros(1 << nbits, dtype=np.int32)
        for i in range(nbits):
            tab[1 << i : 2 << i] = tab[: 1 << i] ^ ct
            ct = ctx.times_t(ct)
        byte = xs >> lo
        byte &= (1 << nbits) - 1
        out ^= tab[byte]
    return out


def powers(ctx: FieldCtx, x: int, count: int, first: int = 1) -> np.ndarray:
    """first * x^k for k = 0..count - 1, as an int32 array.

    out[k:2k] = x^k out[:k], so about log2(count) steps fill it: whole-array
    ones, and below 16 products one multiplication each, which is cheaper
    than building the byte tables of _mul_by_const.
    """
    out = np.empty(count, dtype=np.int32)
    out[0] = first
    k, xk = 1, x
    while k < count:
        take = min(k, count - k)
        if take < 16:
            out[k : k + take] = [ctx.mul(xk, v) for v in out[:take].tolist()]
        else:
            out[k : k + take] = _mul_by_const(ctx, xk, out[:take])
        k += take
        xk = ctx.mul(xk, xk)
    return out


@lru_cache(maxsize=None)
def trace_mask(degree: int) -> int:
    """The word whose bit k is Tr(t^k) in F_{2^degree}.

    Tr is F_2-linear, so Tr(x) is the parity of the bits of x & trace_mask.
    Tr(x) is also the trace of the F_2-linear map y -> x y, the sum over i
    of the t^i coefficient of x t^i, which needs no multiplication.
    """
    ctx = make_ctx(degree)
    mask, tk = 0, 1
    for k in range(degree):
        xti, tr = tk, 0
        for i in range(degree):
            tr ^= xti >> i & 1
            xti = ctx.times_t(xti)
        mask |= tr << k
        tk = ctx.times_t(tk)
    return mask


class FieldTable:
    """Bulk lookup tables for one field: discrete logs and traces.

    exp[j] = g^j for the canonical primitive element g, log inverts it
    (log[0] = -1), trace[x] is the absolute trace bit of x, and
    trace_of_exp[j] = trace[exp[j]].  No np2 path reads it any more: it
    is the tests' reference for the trace rows and a benchmark span only.
    exp and log are int32, trace and trace_of_exp uint8: 10 * 2^degree
    bytes in all.
    """

    def __init__(self, degree: int):
        if degree > TABLE_DEGREE_CAP:
            raise ValueError(f"table for degree {degree} exceeds cap {TABLE_DEGREE_CAP}")
        ctx = make_ctx(degree)
        self.degree = degree
        q = ctx.q
        n = q - 1
        g = primitive_element(degree)
        exp = powers(ctx, g, n)
        log = np.full(q, -1, dtype=np.int32)
        log[exp] = np.arange(n, dtype=np.int32)
        if ctx.mul(int(exp[-1]), g) != 1 or (log[1:] < 0).any():
            raise AssertionError("generator order mismatch")
        self.exp = exp
        self.log = log
        # Tr is F_2-linear: Tr(x + t^i) = Tr(x) + Tr(t^i) for x < 2^i
        mask = trace_mask(degree)
        tr = np.zeros(q, dtype=np.uint8)
        for i in range(degree):
            tr[1 << i : 2 << i] = tr[: 1 << i] ^ (mask >> i & 1)
        self.trace = tr
        self.trace_of_exp = tr[exp]


@lru_cache(maxsize=None)
def field_table(degree: int) -> FieldTable:
    return FieldTable(degree)
