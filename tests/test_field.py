import random

import numpy as np
import pytest

import np2.field
from helpers import field_inv
from np2.field import (
    MAX_DEGREE,
    FieldCtx,
    FieldTable,
    _mul_by_const,
    embed_bits,
    embedding_root,
    field_table,
    is_irreducible,
    make_ctx,
    powers,
    primitive_element,
    smallest_irreducible,
    trace_mask,
)


def trial_division_irreducible(poly: int) -> bool:
    """Oracle: check divisibility by every polynomial of degree <= d/2."""
    d = poly.bit_length() - 1
    if d < 1:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        r = poly
        while r.bit_length() >= q.bit_length():
            r ^= q << (r.bit_length() - q.bit_length())
        if r == 0:
            return False
    return True


def test_canonical_moduli_frozen():
    assert smallest_irreducible(1) == 0b10
    assert smallest_irreducible(2) == 0b111
    assert smallest_irreducible(3) == 0b1011
    assert smallest_irreducible(4) == 0b10011
    assert smallest_irreducible(5) == 0b100101
    # the remaining rows of README's table
    assert smallest_irreducible(6) == 0b1000011
    assert smallest_irreducible(7) == 0b10000011
    assert smallest_irreducible(8) == 0b100011011
    assert smallest_irreducible(9) == 0b1000000011
    assert smallest_irreducible(10) == 0b10000001001
    assert smallest_irreducible(11) == 0b100000000101
    assert smallest_irreducible(12) == 0b1000000001001
    assert smallest_irreducible(13) == 0b10000000011011
    assert smallest_irreducible(14) == 0b100000000100001
    assert smallest_irreducible(15) == 0b1000000000000011
    assert smallest_irreducible(16) == 0b10000000000101011


def test_irreducibility_matches_trial_division():
    for poly in range(2, 1 << 9):
        assert is_irreducible(poly) == trial_division_irreducible(poly), bin(poly)


def test_smallest_irreducible_is_smallest():
    for a in range(1, 10):
        m = smallest_irreducible(a)
        assert m.bit_length() == a + 1
        for cand in range(1 << a, m):
            assert not is_irreducible(cand)


def test_f4_arithmetic():
    c = make_ctx(2)
    t = 0b10
    assert c.mul(t, t) == 0b11  # t^2 = t + 1
    assert c.mul(t, 0b11) == 1  # t * t^2 = t^3 = 1
    assert field_inv(c, t) == 0b11


def test_field_axioms_small():
    for a in (1, 2, 3, 4):
        c = make_ctx(a)
        els = list(c.elements())
        for x in els:
            assert c.mul(x, 1) == x
            if x:
                assert c.mul(x, field_inv(c, x)) == 1
        # commutativity and distributivity on a sample
        for x in els[: min(8, len(els))]:
            for y in els[: min(8, len(els))]:
                assert c.mul(x, y) == c.mul(y, x)
                for z in (0, 1, els[-1]):
                    assert c.mul(x, y ^ z) == c.mul(x, y) ^ c.mul(x, z)


def test_trace_linear_and_balanced():
    for a in (1, 2, 3, 4, 5):
        c = make_ctx(a)
        vals = [c.trace(x) for x in c.elements()]
        assert sum(vals) == c.q // 2  # trace is balanced
        for x in range(0, c.q, 3):
            for y in range(0, c.q, 5):
                assert c.trace(x ^ y) == c.trace(x) ^ c.trace(y)
                assert c.trace(c.mul(x, x)) == c.trace(x)


def test_pow_and_fermat():
    for a in (2, 3, 5):
        c = make_ctx(a)
        for x in range(1, c.q):
            assert c.pow_(x, c.q - 1) == 1


def test_primitive_element_orders():
    for a in (1, 2, 3, 4, 6):
        c = make_ctx(a)
        g = primitive_element(a)
        seen = set()
        v = 1
        for _ in range(c.q - 1):
            seen.add(v)
            v = c.mul(v, g)
        assert v == 1
        assert len(seen) == c.q - 1


def test_embedding_is_a_ring_hom():
    for a, b in ((1, 3), (2, 4), (2, 6), (3, 6)):
        small, big = make_ctx(a), make_ctx(b)
        img = {embed_bits(x, a, b) for x in small.elements()}
        assert len(img) == small.q
        assert embed_bits(1, a, b) == 1
        for x in small.elements():
            for y in small.elements():
                assert embed_bits(x ^ y, a, b) == embed_bits(x, a, b) ^ embed_bits(y, a, b)
                assert embed_bits(small.mul(x, y), a, b) == big.mul(
                    embed_bits(x, a, b), embed_bits(y, a, b)
                )


def test_embedding_preserves_trace_composition():
    # Tr_{F_64/F_2} restricted to the image of F_4 equals Tr_{F_64/F_4}
    # composed into F_2 three times, so parity matches 3 * Tr_{F_4/F_2}.
    a, b = 2, 6
    small, big = make_ctx(a), make_ctx(b)
    m = b // a
    for x in small.elements():
        assert big.trace(embed_bits(x, a, b)) == (m * small.trace(x)) % 2


def test_tower_compatibility():
    # embedding 2 -> 12 equals embedding 2 -> 6 -> 12 on every element
    for x in make_ctx(2).elements():
        via6 = embed_bits(embed_bits(x, 2, 6), 6, 12)
        assert embed_bits(x, 2, 12) == via6


def test_field_table_consistency():
    for a in (3, 6):
        tab = field_table(a)
        c = make_ctx(a)
        q = c.q
        assert len(tab.exp) == q - 1 and len(tab.log) == q
        assert tab.log[0] == -1
        for x in range(1, q):
            assert tab.exp[tab.log[x]] == x
            assert tab.trace[x] == c.trace(x)
        for j in range(q - 1):
            assert tab.trace_of_exp[j] == tab.trace[tab.exp[j]]


def per_element_table(a):
    """Reference: exp/log filled one FieldCtx.mul per element, trace bit by bit."""
    ctx = make_ctx(a)
    q = ctx.q
    g = primitive_element(a)
    exp = np.empty(q - 1, dtype=np.int32)
    log = np.full(q, -1, dtype=np.int32)
    v = 1
    for j in range(q - 1):
        exp[j] = v
        log[v] = j
        v = ctx.mul(v, g)
    assert v == 1
    xs = np.arange(q, dtype=np.int64)
    tr = np.zeros(q, dtype=np.uint8)
    for i in range(a):
        if ctx.trace(1 << i):
            tr ^= ((xs >> i) & 1).astype(np.uint8)
    return {"exp": exp, "log": log, "trace": tr, "trace_of_exp": tr[exp]}


def test_field_table_matches_per_element_build():
    for a in range(1, 17):
        tab = FieldTable(a)
        for name, want in per_element_table(a).items():
            got = getattr(tab, name)
            assert got.dtype == want.dtype, (a, name)
            assert np.array_equal(got, want), (a, name)


def test_field_table_degree_22_spot_checks():
    a = 22
    tab = field_table(a)
    ctx = make_ctx(a)
    g = primitive_element(a)
    n = ctx.q - 1
    assert tab.exp.dtype == np.int32 and tab.log.dtype == np.int32
    assert len(tab.exp) == n and len(tab.log) == ctx.q and tab.log[0] == -1
    rng = random.Random(22)
    for _ in range(2000):
        j = rng.randrange(n)
        x = int(tab.exp[j])
        assert int(tab.exp[(j + 1) % n]) == ctx.mul(x, g)
        assert tab.log[x] == j
        y = rng.randrange(ctx.q)
        assert tab.trace[y] == ctx.trace(y)
        assert tab.trace_of_exp[j] == tab.trace[x]


def test_mul_by_const_at_byte_boundaries():
    rng = random.Random(8)
    for a in (1, 8, 9, 16, 17, 22):
        ctx = make_ctx(a)
        # every single-bit input, both ends of the range, then random ones
        xs = [0, 1, ctx.q - 1] + [1 << i for i in range(a)]
        xs += [rng.randrange(ctx.q) for _ in range(200)]
        arr = np.array(xs, dtype=np.int32)
        for c in (1, ctx.q - 1, primitive_element(a), rng.randrange(ctx.q)):
            got = _mul_by_const(ctx, c, arr)
            assert got.dtype == np.int32
            assert got.tolist() == [ctx.mul(c, x) for x in xs], (a, c)


def test_trace_mask_matches_trace():
    for a in range(1, MAX_DEGREE + 1):
        ctx = make_ctx(a)
        mask = trace_mask(a)
        for k in range(a):
            assert mask >> k & 1 == ctx.trace(1 << k), (a, k)
        assert mask >> a == 0


def test_powers_match_repeated_multiplication():
    # counts across the switch from one-by-one products to byte tables
    rng = random.Random(4)
    for a in (1, 5, 13, 22):
        ctx = make_ctx(a)
        for count in (1, 2, 17, 33, 100):
            x, first = rng.randrange(ctx.q), rng.randrange(1, ctx.q)
            want, v = [], first
            for _ in range(count):
                want.append(v)
                v = ctx.mul(v, x)
            got = powers(ctx, x, count, first)
            assert got.dtype == np.int32 and got.tolist() == want, (a, count)


def test_field_table_detects_wrong_generator_order(monkeypatch):
    # t^3 has order 5 in F_16 = F_2[t] / (t^4 + t + 1)
    assert make_ctx(4).pow_(0b1000, 5) == 1
    monkeypatch.setattr(np2.field, "primitive_element", lambda a: 0b1000)
    with pytest.raises(AssertionError, match="generator order"):
        FieldTable(4)


def test_field_table_build_takes_few_multiplications(monkeypatch):
    a = 20
    # warm the modulus and generator caches, which also multiply
    make_ctx(a)
    primitive_element(a)
    calls = 0
    mul = FieldCtx.mul

    def counting_mul(self, x, y):
        nonlocal calls
        calls += 1
        return mul(self, x, y)

    monkeypatch.setattr(FieldCtx, "mul", counting_mul)
    FieldTable(a)
    assert 0 < calls < 5000


def test_embedding_root_frozen_small_cases():
    assert embedding_root(1, 1) == 1
    assert embedding_root(2, 2) == 0b10
    r = embedding_root(2, 4)
    big = make_ctx(4)
    assert big.mul(r, r) ^ r ^ 1 == 0  # r^2 + r + 1 = 0
    with pytest.raises(ValueError):
        embedding_root(2, 5)
