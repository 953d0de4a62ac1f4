import itertools
import random
from fractions import Fraction

import pytest

import np2.modsolve
import np2.vss
from np2.sweep import SweepSpec, iter_curves, run_sweep
from helpers import apply_phi, chain_dim, row_reduce
from np2.field import make_ctx
from np2.modsolve import ModSolution, minimal_irreducible_solutions, odds_up_to
from np2.vss import (
    MinimalSupportMatrix,
    _images,
    build_matrix,
    effective_exponent_set,
    predict_first_vertex,
    vss_dim,
    vss_report,
)
from np2.zeta import CurvePoly, first_vertex, newton_polygon_of_curve


def oracle_vertex(f):
    return first_vertex(newton_polygon_of_curve(f))


def curve(a, coeffs):
    return CurvePoly.make(a, coeffs)


def all_curves_f2(g):
    deg = 2 * g + 1
    odds = list(range(1, deg, 2))
    for bits in itertools.product([0, 1], repeat=len(odds)):
        coeffs = {deg: 1}
        coeffs.update({e: b for e, b in zip(odds, bits) if b})
        yield curve(1, coeffs)


def random_curve(rng, a, g):
    q = 1 << a
    deg = 2 * g + 1
    coeffs = {deg: rng.randrange(1, q)}
    for e in range(1, deg, 2):
        b = rng.randrange(q)
        if b:
            coeffs[e] = b
    return curve(a, coeffs)


def mat_pow(ctx, entries, n):
    # rows of M^n over F_q, with the field's own multiplication
    P = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    for _ in range(n):
        P = [
            tuple(_dot(ctx, r, [entries[k][j] for k in range(n)]) for j in range(n))
            for r in P
        ]
    return P


def _dot(ctx, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc ^= ctx.mul(x, y)
    return acc


def mat_pow_rank_f2(entries, n):
    # rows as bitmasks; rank of M^n over F_2
    def mul(A, B):
        cols = [sum(((r >> j) & 1) << i for i, r in enumerate(B)) for j in range(n)]
        return [sum((bin(r & cols[j]).count("1") & 1) << j for j in range(n)) for r in A]

    M = [sum(x << j for j, x in enumerate(r)) for r in entries]
    P = M
    for _ in range(n - 1):
        P = mul(P, M)
    basis = []
    for r in P:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def full_d13_solutions():
    return minimal_irreducible_solutions(odds_up_to(13), target=Fraction(1, 3))


def test_frozen_companion_matrix():
    sols = minimal_irreducible_solutions(odds_up_to(7), target=Fraction(1, 3))
    f = curve(1, {7: 1, 3: 1})
    M = build_matrix(sols, f)
    assert M.sigma == (1, 2, 4)
    assert M.entries == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert M.density == Fraction(1, 3)
    assert vss_dim(M) == 3


def test_nilpotent_companion_dimension_zero():
    M = MinimalSupportMatrix(
        (1, 2, 4),
        ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
        Fraction(1, 3),
        1,
    )
    assert vss_dim(M) == 0


def test_frozen_six_by_six_block_matrix():
    sols = full_d13_solutions()
    f = curve(1, {13: 1, 11: 1, 7: 1})
    M = build_matrix(sols, f)
    assert M.sigma == (1, 2, 3, 4, 6, 8)
    assert M.entries == (
        (0, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (1, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
    )
    assert vss_dim(M) == 6


def test_six_by_six_dimensions():
    sols = full_d13_solutions()
    # c_11 != 0 forces full rank regardless of c_7
    for c7 in (0, 1):
        f = curve(1, {13: 1, 11: 1, 7: c7})
        assert vss_dim(build_matrix(sols, f)) == 6
    # c_11 = 0, c_7 != 0 leaves the 3-dimensional companion block
    f = curve(1, {13: 1, 7: 1})
    assert vss_dim(build_matrix(sols, f)) == 3


def test_vanishing_coefficients_leave_doubling_entries():
    sols = full_d13_solutions()
    f = curve(1, {15: 1})
    M = build_matrix(sols, f)
    index = {s: j for j, s in enumerate(M.sigma)}
    for i, s in enumerate(M.sigma):
        for j, t in enumerate(M.sigma):
            expect = 1 if t == 2 * s else 0
            assert M.entries[i][j] == expect
    assert vss_dim(M) == 0


def test_rows_have_one_doubling_entry():
    sols = full_d13_solutions()
    M = build_matrix(sols, curve(1, {13: 1, 11: 1, 7: 1}))
    for i, s in enumerate(M.sigma):
        doubles = [j for j, t in enumerate(M.sigma) if t == 2 * s and M.entries[i][j]]
        assert len(doubles) <= 1


def test_mixed_density_rejected():
    sols = [ModSolution(3, ((7, 1),)), ModSolution(2, ((3, 1),))]
    with pytest.raises(ValueError, match="mixed"):
        build_matrix(sols, curve(1, {7: 1}))


def test_empty_solution_list_rejected():
    with pytest.raises(ValueError, match="no solutions"):
        build_matrix([], curve(1, {7: 1}))


def test_effective_exponent_set():
    assert effective_exponent_set(curve(1, {7: 1, 3: 1})) == (1, 3, 5, 7)
    assert effective_exponent_set(curve(1, {9: 1})) == (1, 3, 5, 9)
    assert effective_exponent_set(curve(1, {9: 1, 7: 1})) == (1, 3, 5, 7, 9)
    # at deg 13 both distinguished exponents can drop
    assert effective_exponent_set(curve(1, {13: 1})) == (1, 3, 5, 9, 13)
    assert effective_exponent_set(curve(1, {13: 1, 11: 1})) == (1, 3, 5, 9, 11, 13)
    assert effective_exponent_set(curve(1, {13: 1, 7: 1})) == (1, 3, 5, 7, 9, 13)
    # deg 11 is not of the 2^(n+1)-3 shape, so 11 stays
    assert effective_exponent_set(curve(1, {11: 1})) == (1, 3, 5, 9, 11)


def effective_exponent_set_per_curve(f):
    # D built afresh for each curve: the reference
    n = (2 * f.genus + 2).bit_length() - 1
    strip = []
    t1 = (1 << n) - 1
    if f.coeff(t1) == 0:
        strip.append(t1)
    if f.deg == (1 << (n + 1)) - 3:
        t2 = 3 * (1 << (n - 1)) - 1
        if f.coeff(t2) == 0:
            strip.append(t2)
    return odds_up_to(f.deg, exclude=strip)


def test_effective_exponent_set_matches_per_curve_build():
    for g in range(1, 11):
        for f in all_curves_f2(g):
            assert effective_exponent_set(f) == effective_exponent_set_per_curve(f), f


def test_rank_route_builds_each_exponent_set_once(monkeypatch):
    # the frame of each exponent set, and so its solutions, is built once
    np2.vss._frame.cache_clear()
    calls = []

    def counted(D):
        calls.append(D)
        return minimal_irreducible_solutions(D)

    monkeypatch.setattr(np2.vss, "minimal_irreducible_solutions", counted)
    records, _ = run_sweep(SweepSpec(1, 12, predictors=("vss",)))
    assert len(records) == 4096
    # at degree 25, D keeps or drops t1 = 15; t2 plays no part
    assert sorted(calls) == [odds_up_to(25), odds_up_to(25, (15,))]


def test_predict_frozen_examples():
    assert predict_first_vertex(curve(1, {7: 1, 3: 1})) == (3, Fraction(1))
    assert predict_first_vertex(curve(1, {13: 1, 11: 1})) == (6, Fraction(2))
    assert predict_first_vertex(curve(1, {3: 1})) == (2, Fraction(1))
    assert predict_first_vertex(curve(1, {5: 1})) == (4, Fraction(2))


def test_predict_regression_non_chain_edge():
    # d-set matching without positions would inflate the dimension to 6
    f = curve(1, {11: 1, 5: 1})
    r = vss_report(f)
    assert r.matrix.sigma == (1, 2, 3, 4, 5, 6, 8)
    assert r.dim == 5
    assert r.vertex == (5, Fraction(2))
    assert oracle_vertex(f) == (5, Fraction(2))


def test_absent_prediction_cases():
    # both curves are supersingular: first slope 1/2 sits above the density
    for coeffs, expect_o in [({13: 1}, (12, Fraction(6))), ({11: 1}, (10, Fraction(5)))]:
        f = curve(1, coeffs)
        r = vss_report(f)
        assert r.dim == 0
        assert r.vertex is None
        assert predict_first_vertex(f) is None
        assert r.slope_above == Fraction(2, 5)
        o = oracle_vertex(f)
        assert o == expect_o
        assert o[1] / o[0] > r.slope_above


def test_punctured_ladder_report():
    f = curve(1, {13: 1})
    r = vss_report(f)
    assert r.matrix.sigma == (1, 2, 3, 4, 7, 8)
    assert r.matrix.density == Fraction(2, 5)


def test_image_chain_descends_and_stabilizes():
    rng = random.Random(7)
    samples = [f for g in range(1, 5) for f in all_curves_f2(g)]
    samples += [random_curve(rng, 2, g) for g in range(1, 5) for _ in range(4)]
    for f in samples:
        r = vss_report(f)
        M = r.matrix
        ctx = make_ctx(M.field_degree)
        n = len(M.sigma)
        basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        dims = [n]
        for _ in range(n + 1):
            basis = row_reduce(ctx, [apply_phi(ctx, M, v) for v in basis])
            dims.append(len(basis))
            if dims[-1] == dims[-2]:
                break
        assert dims[-1] == dims[-2], "chain must stabilize within n+1 steps"
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == r.dim


def test_semilinearity_and_additivity():
    rng = random.Random(11)
    for a, coeffs in [(2, {7: 2, 3: 1}), (2, {13: 3, 11: 1, 5: 2}), (3, {7: 5, 5: 6, 1: 3})]:
        f = curve(a, coeffs)
        M = vss_report(f).matrix
        ctx = make_ctx(a)
        n = len(M.sigma)
        q = 1 << a
        for _ in range(20):
            v = tuple(rng.randrange(q) for _ in range(n))
            w = tuple(rng.randrange(q) for _ in range(n))
            fv = apply_phi(ctx, M, v)
            fw = apply_phi(ctx, M, w)
            vw = tuple(x ^ y for x, y in zip(v, w))
            assert apply_phi(ctx, M, vw) == tuple(x ^ y for x, y in zip(fv, fw))
            for lam in range(q):
                lv = tuple(ctx.mul(lam, x) for x in v)
                lam2 = ctx.mul(lam, lam)
                assert apply_phi(ctx, M, lv) == tuple(ctx.mul(lam2, x) for x in fv)


def test_rank_invariant_under_sigma_permutation():
    rng = random.Random(13)
    for coeffs in [{13: 1, 11: 1, 7: 1}, {11: 1, 5: 1}, {13: 1, 9: 1, 3: 1}]:
        M = vss_report(curve(1, coeffs)).matrix
        n = len(M.sigma)
        want = vss_dim(M)
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            entries = tuple(
                tuple(M.entries[perm[i]][perm[j]] for j in range(n)) for i in range(n)
            )
            Mp = MinimalSupportMatrix(
                tuple(M.sigma[i] for i in perm), entries, M.density, M.field_degree
            )
            assert vss_dim(Mp) == want


def test_twist_power_gives_equal_dimension_over_f4():
    # coordinate squaring vs the q-power twist: the q-power twist is the
    # identity on F_4, so its stable image is the row space of M^n; both
    # Frobenius choices produce the same stable-image dimension
    rng = random.Random(17)
    ctx = make_ctx(2)
    for _ in range(30):
        f = random_curve(rng, 2, rng.randrange(1, 7))
        M = vss_report(f).matrix
        assert vss_dim(M) == len(row_reduce(ctx, mat_pow(ctx, M.entries, len(M.sigma))))


def test_f2_dimension_equals_matrix_power_rank():
    # over F_2 the twist is the identity, so the stable image is the
    # column space of M^n; cross-check with plain bitmask linear algebra
    for g in range(1, 6):
        for f in all_curves_f2(g):
            M = vss_report(f).matrix
            assert vss_dim(M) == mat_pow_rank_f2(M.entries, len(M.sigma))


def chain_samples():
    rng = random.Random(29)
    yield from (f for g in range(1, 6) for f in all_curves_f2(g))
    for a in (2, 3, 5):
        for g in range(1, 7):
            for _ in range(3):
                yield random_curve(rng, a, g)


def test_dimension_matches_field_chain():
    # the packed F_2 chain against the same chain run entry by entry over F_q
    for f in chain_samples():
        M = vss_report(f).matrix
        assert vss_dim(M) == chain_dim(make_ctx(M.field_degree), M), f.coeffs


def test_packed_images_match_field_map():
    for f in chain_samples():
        M = vss_report(f).matrix
        a = M.field_degree
        ctx = make_ctx(a)
        n = len(M.sigma)
        images = _images(M)
        assert len(images) == a * n
        for i in range(n):
            for k in range(a):
                v = tuple(1 << k if j == i else 0 for j in range(n))
                want = sum(x << (a * j) for j, x in enumerate(apply_phi(ctx, M, v)))
                assert images[a * i + k] == want, (f.coeffs, i, k)


def test_oracle_agreement_exhaustive_f2():
    predicted = absent = 0
    for g in range(1, 7):
        for f in all_curves_f2(g):
            r = vss_report(f)
            o = oracle_vertex(f)
            if r.vertex is None:
                absent += 1
                assert o[1] / o[0] > r.slope_above
            else:
                predicted += 1
                assert r.vertex == o, f"mismatch at {f.coeffs}"
    assert predicted > 0 and absent > 0


def test_oracle_agreement_random_f4():
    rng = random.Random(20260825)
    predicted = 0
    for _ in range(200):
        f = random_curve(rng, 2, rng.randrange(1, 9))
        v = predict_first_vertex(f)
        if v is None:
            continue
        predicted += 1
        assert v == oracle_vertex(f), f"mismatch at {f.coeffs}"
    assert predicted > 150


def test_uncertified_density_raises(monkeypatch):
    # the rank route needs no witness, so the support graph's edge cap is
    # what it can refuse for
    monkeypatch.setattr(np2.modsolve, "EDGE_CAP", 2)
    # past the lru cache, which may already hold this set from another test
    monkeypatch.setattr(np2.vss, "_frame", np2.vss._frame.__wrapped__)
    # a refusal leaves nothing behind that a second call could reuse
    for _ in range(2):
        # the seed stops after length 1, at density 1, where c = 0 and the single
        # exponents give 70 edges on the states 1..28, already past the cap
        with pytest.raises(ValueError, match=r"density 1 has at least 70 edges on the states 1\.\.28, more than 2"):
            vss_report(curve(1, {7: 1}))
    monkeypatch.undo()
    assert vss_report(curve(1, {7: 1})).dim == 3


def reuse_samples():
    specs = [SweepSpec(1, g) for g in range(1, 13)]
    specs += [SweepSpec(2, g) for g in range(1, 6)] + [SweepSpec(3, g) for g in range(1, 4)]
    specs.append(SweepSpec(5, 4, "random", seed=3, count=300))
    return [f for spec in specs for f in iter_curves(spec)]


def test_reused_dimension_matches_a_fresh_build():
    # the per-D frame against a frame built afresh from the solutions,
    # outside every cache, with the frame cache cold and then warmed in
    # reverse curve order
    samples = reuse_samples()
    fresh = {}
    want = []
    for f in samples:
        D = effective_exponent_set(f)
        if D not in fresh:
            fresh[D] = np2.vss._Frame.of(minimal_irreducible_solutions(D))
        M = fresh[D].matrix(f)
        d = vss_dim(M)
        vertex = (d, M.density * d) if d else None
        want.append((M.sigma, M.entries, d, vertex, None if d else M.density))
    np2.vss._frame.cache_clear()
    for warm in (False, True):
        if warm:
            np2.vss._frame.cache_clear()
            for f in reversed(samples):
                predict_first_vertex(f)
        for f, (sigma, entries, d, vertex, slope_above) in zip(samples, want):
            r = vss_report(f)
            got = (r.matrix.sigma, r.matrix.entries, r.dim, r.vertex, r.slope_above)
            assert got == (sigma, entries, d, vertex, slope_above), (warm, f)
            assert predict_first_vertex(f) == vertex, (warm, f)


def test_sweep_builds_one_matrix_per_distinct_matrix(monkeypatch):
    np2.vss._frame.cache_clear()
    build = np2.vss.build_matrix
    built = []

    def counted(solutions, f):
        M = build(solutions, f)
        built.append((M.sigma, M.entries))
        return M

    monkeypatch.setattr(np2.vss, "build_matrix", counted)
    spec = SweepSpec(1, 10, predictors=("vss",))
    records, _ = run_sweep(spec)
    monkeypatch.undo()  # vss_report builds its matrix through build_matrix too
    seen = {(r.matrix.sigma, r.matrix.entries) for r in map(vss_report, iter_curves(spec))}
    assert len(built) == len(seen) < len(records) == 1024
    assert set(built) == seen
