import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import np2.modsolve
from helpers import (
    BFS_CHUNK,
    PAPER_SETS,
    all_moves,
    bfs_distances,
    exhaustive_irreducible_classes,
    reference_min_weight_solution,
    scalar_sigma,
)
from np2.modsolve import (
    SIGMA_LENGTH_CAP,
    ModSolution,
    _support_bound,
    density,
    min_weight_solution,
    minimal_irreducible_solutions,
    odds_up_to,
)


def test_odds_up_to():
    assert odds_up_to(13) == (1, 3, 5, 7, 9, 11, 13)
    assert odds_up_to(9, exclude=(7,)) == (1, 3, 5, 9)


def jump_count(s: ModSolution) -> int:
    phi = s.support()
    l = s.length
    return sum(phi[(i + 1) % l] < 2 * phi[i] for i in range(l))


def test_frozen_single_digit_support():
    s = ModSolution(3, ((7, 1),))
    assert s.support() == (1, 2, 4)
    assert s.weight == 1
    assert s.density == Fraction(1, 3)
    assert s.is_irreducible()
    assert jump_count(s) == 1
    assert s.shift().digits == ((7, 2),)
    assert s.shift().shift().shift() == s


def test_frozen_two_digit_support():
    s = ModSolution(6, ((11, 1), (13, 4)))
    assert s.support() == (1, 2, 4, 8, 3, 6)
    assert s.weight == 2
    assert s.is_irreducible()
    assert jump_count(s) == 2


def test_frozen_reducible():
    s = ModSolution(2, ((1, 3),))
    assert s.support() == (1, 1)
    assert jump_count(s) == 2
    assert not s.is_irreducible()


def test_solution_validation():
    with pytest.raises(ValueError):
        ModSolution(0, ((1, 1),))
    with pytest.raises(ValueError):
        ModSolution(3, ())
    with pytest.raises(ValueError):
        ModSolution(3, ((2, 1),))  # even exponent
    with pytest.raises(ValueError):
        ModSolution(3, ((7, 8),))  # digit too wide
    with pytest.raises(ValueError):
        ModSolution(3, ((3, 1),))  # 3 not divisible by 7
    with pytest.raises(ValueError):
        ModSolution(6, ((13, 4), (11, 1)))  # unsorted


def sample_solutions():
    out = [
        ModSolution(3, ((7, 1),)),
        ModSolution(6, ((11, 1), (13, 4))),
        ModSolution(2, ((1, 3),)),
        ModSolution(7, ((13, 1), (23, 16))),
        ModSolution(8, ((23, 1), (29, 8))),
        ModSolution(10, ((19, 5), (29, 32))),
        ModSolution(1, ((5, 1),)),
        ModSolution(4, ((15, 3),)),
    ]
    rng = random.Random(2)
    # random valid solutions: pad a multiple of 2^l - 1 across random digits
    for _ in range(10):
        l = rng.randint(2, 8)
        m = (1 << l) - 1
        d = rng.choice([d for d in range(1, 16, 2)])
        out.append(ModSolution(l, ((d, m),)))  # d * m is divisible by m
    return out


def test_support_profile_invariant():
    # phi(i+1) <= 2 phi(i) cyclically, values positive
    for s in sample_solutions():
        phi = s.support()
        l = s.length
        assert all(v >= 1 for v in phi)
        for i in range(l):
            assert phi[(i + 1) % l] <= 2 * phi[i]


def test_digit_column_identity():
    # column sums of the digit matrix are determined by the support:
    # sum_d d * u_{d,r} = 2 phi(l-r-1) - phi((l-r) mod l)
    for s in sample_solutions():
        phi = s.support()
        l = s.length
        for r in range(l):
            col = sum(d for d, u in s.digits if (u >> r) & 1)
            assert col == 2 * phi[l - r - 1] - phi[(l - r) % l]


def test_shift_equivariance():
    for s in sample_solutions():
        phi = s.support()
        shifted = s.shift()
        assert shifted.weight == s.weight
        assert shifted.support() == phi[1:] + phi[:1]
        assert shifted.canonical() == s.canonical()
        cur = s
        for _ in range(s.length):
            cur = cur.shift()
        assert cur == s


def test_sigma_frozen_n3():
    D = odds_up_to(13)
    w = min_weight_solution(D, 3)
    assert w.weight == 1
    assert w.digits == ((7, 1),)
    assert min_weight_solution(D, 6).weight == 2


def test_sigma_witness_is_minimal():
    rng = random.Random(4)
    for _ in range(12):
        size = rng.randint(1, 5)
        D = tuple(sorted(rng.sample(range(1, 32, 2), size)))
        l = rng.randint(1, 9)
        w = min_weight_solution(D, l)
        assert w.length == l
        assert set(d for d, _ in w.digits) <= set(D)
        assert w.weight == scalar_sigma(D, l)


def test_sigma_matches_scalar_bfs_paper_sets():
    sets = [
        odds_up_to(13),
        odds_up_to(13, (7,)),
        odds_up_to(29, (15,)),
        odds_up_to(29, (15, 23)),
        odds_up_to(21, (15,)),
    ]
    for D in sets:
        for l in range(1, 13):
            assert min_weight_solution(D, l).weight == scalar_sigma(D, l), (D, l)


def full_depth_bfs_distances(moves, m):
    """Reference for bfs_distances: every level, each deduplicated by np.unique."""
    dist = np.full(m, -1, dtype=np.int8)
    dist[0] = 0
    mv = np.array(moves, dtype=np.int64)
    frontier = np.array([0], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        if level > 120:
            raise AssertionError("search depth exceeded")
        step = max(1, BFS_CHUNK // mv.size)
        parts = []
        for i in range(0, frontier.size, step):
            block = (frontier[i : i + step, None] + mv[None, :]) % m
            parts.append(np.unique(block.ravel()))
        nxt = parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = level
        frontier = nxt
    return dist


N4_PAPER_SETS = [
    odds_up_to(17, (15,)),
    odds_up_to(19, (15,)),
    odds_up_to(21, (15,)),
    odds_up_to(23, (15,)),
    odds_up_to(23, (13, 15)),
    odds_up_to(25, (15,)),
    odds_up_to(27, (15,)),
    odds_up_to(29, (15, 23)),
]
N5_SETS = [odds_up_to(33, (31,)), odds_up_to(47, (29, 31)), odds_up_to(61, (31, 47))]


def test_witness_matches_full_depth_search():
    cases = [(D, l) for D in N4_PAPER_SETS for l in range(1, 14)]
    cases += [(D, l) for D in N5_SETS for l in range(1, 13)]
    for D, l in cases:
        assert min_weight_solution(D, l) == reference_min_weight_solution(D, l, full_depth_bfs_distances), (D, l)


@pytest.mark.parametrize("D", [odds_up_to(17, (15,)), odds_up_to(61, (31, 47))])
@pytest.mark.parametrize("l", [12, 13])
def test_search_stops_at_the_closing_level(D, l):
    # the reference search ends with level sigma - 1; a full-depth search goes deeper
    m = (1 << l) - 1
    moves = all_moves(D, l)
    dist = bfs_distances(moves, m)
    assert dist.max() == scalar_sigma(D, l) - 1
    # on that last level only residues one move short of 0 are labelled
    assert all((m - x) % m in moves for x in np.flatnonzero(dist == dist.max()))
    assert min_weight_solution(D, l) == reference_min_weight_solution(D, l)


def test_witness_matches_reference_on_random_sets():
    rng = random.Random(24)
    for _ in range(300):
        D = tuple(sorted(rng.sample(range(1, 260, 2), rng.randint(1, 7))))
        for l in range(1, 15):
            assert min_weight_solution(D, l) == reference_min_weight_solution(D, l), (D, l)


def test_long_search_is_fast():
    # on a 2-vCPU guest the bitset levels take about 0.1 s, the numpy reference about 1.9 s
    start = time.perf_counter()
    got = min_weight_solution((3, 5), 22)
    assert time.perf_counter() - start < 0.5
    assert got == reference_min_weight_solution((3, 5), 22)


def test_sigma_length_cap():
    with pytest.raises(ValueError):
        min_weight_solution((7,), 27)
    with pytest.raises(ValueError):
        min_weight_solution((7,), 0)


def support_sum_lower_bound(s: int, l: int) -> int:
    """Least possible value of sum_k phi(k) for an irreducible solution
    of weight s and length l, regardless of the exponent set."""
    if s < 1 or l < 1:
        raise ValueError("weight and length must be positive")
    if s >= l:
        return l * (l + 1) // 2
    q = (l - 1) // s
    r = l - q * s
    base = s * (s + 1) // 2 + ((1 << (q - 1)) - 1) * (3 * s * s + s) // 2
    tail = r * (2 * s + r + 1)
    if q >= 2:
        return base + (1 << (q - 2)) * tail
    if tail % 2:
        raise AssertionError("tail term must be even")
    return base + tail // 2


def test_lower_bound_frozen_values():
    assert support_sum_lower_bound(1, 3) == 7
    assert support_sum_lower_bound(2, 6) == 24
    # tight: attained by the frozen minimal solutions
    assert sum(ModSolution(3, ((7, 1),)).support()) == 7
    assert sum(ModSolution(6, ((11, 1), (13, 4))).support()) == 24


def test_lower_bound_boundary_and_monotone():
    for s in range(1, 8):
        assert support_sum_lower_bound(s, s + 1) == s * (s + 1) // 2 + s + 1
        prev = None
        for l in range(1, 120):
            v = support_sum_lower_bound(s, l)
            if prev is not None:
                assert v >= prev, (s, l)
            prev = v
    with pytest.raises(ValueError):
        support_sum_lower_bound(0, 3)


def test_lower_bound_dominates_distinct_supports():
    # reference_density stops and skips lengths on both facts: the bound is
    # at least 1 + 2 + ... + l, the least sum of l distinct positive values,
    # and it never falls as l grows
    for w in range(1, 200):
        prev = 0
        for l in range(1, 400):
            v = support_sum_lower_bound(w, l)
            assert v >= l * (l + 1) // 2 and v >= prev, (w, l)
            prev = v


def test_lower_bound_vs_all_irreducibles():
    # every irreducible solution found by exhaustive placement respects it
    D = odds_up_to(13)
    for l, w in ((3, 1), (4, 2), (5, 2), (6, 2)):
        for sol in exhaustive_irreducible_classes(D, l, w):
            assert sum(sol.support()) >= support_sum_lower_bound(w, l)


def test_density_frozen_n3():
    r = density(odds_up_to(13))
    assert r.value == Fraction(1, 3)
    assert r.length == 3
    assert r.witness.digits == ((7, 1),)
    assert min_weight_solution(odds_up_to(13), 3).weight == 1


def test_density_single_exponent():
    r = density((1,))
    assert r.value == 1 and r.length == 1


def test_support_graph_refused_past_the_edge_cap(monkeypatch):
    # about 29 million edges; the refusal comes before any of them is built
    with pytest.raises(ValueError, match=r"up to density 1/9 has \d{8} edges on the states 1\.\.6240,"):
        density(odds_up_to(1001))
    # about 6.4e8 edges: the seed stops at length 10, inside the edge budget, and
    # the edges of c = 0 and of each single exponent refuse the graph before the
    # knapsack, which takes seconds on this set
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"up to density 1/10 has at least \d{9} edges on the states 1\.\.320480,"):
        density(odds_up_to(8001))
    assert time.perf_counter() - t0 < 2.0
    monkeypatch.setattr(np2.modsolve, "EDGE_CAP", 10)
    with pytest.raises(ValueError, match="more than 10$"):
        minimal_irreducible_solutions(odds_up_to(13))


@pytest.mark.parametrize("top, value", [(23, Fraction(2, 7)), (29, Fraction(1, 4))])
def test_density_searches_each_length_once(monkeypatch, top, value):
    searched = []

    def counted(D, l):
        searched.append(l)
        return min_weight_solution(D, l)

    monkeypatch.setattr(np2.modsolve, "min_weight_solution", counted)
    r = density(odds_up_to(top, exclude=(15,)))
    assert len(searched) == len(set(searched))
    assert r.value == value
    assert r.witness == min_weight_solution(odds_up_to(top, exclude=(15,)), r.length)


def reference_density(D):
    """The minimum density by the length loop: min_weight_solution at every
    length the support-sum bound cannot skip, with the certificate as a
    separate pass over every weight below 2 max(D); the last field says
    whether the value is certified."""
    maxd = max(D)
    n = (maxd + 2).bit_length() - 1
    l_max = 5 * n + 5
    best = None
    capped = []
    for l in range(1, l_max + 1):
        if l > 12:
            wmin = next(
                (w for w in range(1, l) if support_sum_lower_bound(w, l) <= w * maxd), None
            )
            if wmin is None:
                continue
            if best is not None and Fraction(wmin, l) >= best[0]:
                continue
        if l > np2.modsolve.SIGMA_LENGTH_CAP:
            capped.append(l)
            continue
        sol = np2.modsolve.min_weight_solution(D, l)
        val = Fraction(sol.weight, l)
        if best is None or val < best[0]:
            best = (val, l, sol)
    value, at, witness = best
    return value, at, witness, reference_certified(value, maxd, l_max, capped)


def reference_certified(value, maxd, l_max, capped):
    for w in range(1, 2 * maxd):
        b = reference_max_feasible_length(w, maxd)
        if b is None or Fraction(w, b) >= value:
            continue
        if b > l_max or any(c <= b for c in capped):
            return False
    return True


def reference_max_feasible_length(w, maxd):
    last = None
    l = w + 1
    while l < 10000:
        if support_sum_lower_bound(w, l) <= w * maxd:
            last = l
        elif last is not None or l > 8 * (w + 1):
            break
        l += 1
    return last


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 8, 13, 20, SIGMA_LENGTH_CAP])
def test_density_matches_separate_certificate(monkeypatch, cap):
    # the support graph against the length loop under the same cap on the
    # lengths searched: a lower cap cuts the length-by-length seed short but
    # leaves the density, its first length and its witness as they are, and
    # where the loop certifies its value the two agree on the value, the
    # first length and the witness. Both sides share one memo of the
    # per-length search.
    sets = PAPER_SETS + [odds_up_to(d) for d in range(1, 64, 2)]
    full = {D: density(D) for D in sets}
    monkeypatch.setattr(np2.modsolve, "SIGMA_LENGTH_CAP", cap)
    monkeypatch.setattr(
        np2.modsolve, "min_weight_solution", lru_cache(None)(min_weight_solution)
    )
    for D in sets:
        *want, certified = reference_density(D)
        r = density(D)
        assert r == full[D], D
        if certified:
            assert [r.value, r.length, r.witness] == want, D


# the nine distinct sets, all single exponents, among 300 random sets of 1 to 6
# odd exponents below 130 (seed 5) whose density is first attained past length
# 26, where no breadth-first search runs, and two sets first attained below it
PAST_THE_SEED = [(29,), (37,), (53,), (59,), (61,), (95,), (97,), (103,), (107,), (37, 83, 97), (47, 113)]


@pytest.mark.parametrize("D", PAST_THE_SEED, ids=str)
def test_density_witness_past_the_seed(D):
    # where the seed stops before the first length, the witness is the first
    # shift class of the tight cycles, a minimum-weight solution there
    r = density(D)
    assert r.length > max(np2.modsolve._seed(D))
    assert r.witness == minimal_irreducible_solutions(D)[0]
    assert (r.witness.density, r.witness.length) == (r.value, r.length)
    if r.length <= SIGMA_LENGTH_CAP:
        assert r.witness.weight == min_weight_solution(D, r.length).weight


def test_minimal_solution_above_the_largest_exponent():
    # the length-9 class of (55, 59) reaches the support value 64, so a
    # graph on the states 1..max(D) alone would miss it and its length
    sols = minimal_irreducible_solutions((55, 59))
    assert [(s.length, s.digits) for s in sols] == [
        (9, ((55, 5), (59, 4))),
        (21, ((55, 3), (59, 106632))),
    ]
    assert max(sols[0].support()) == 64
    assert sols[:1] == exhaustive_irreducible_classes((55, 59), 9, 3)
    assert density((55, 59)).length == 9


def test_support_bound_holds_for_placed_solutions():
    # every irreducible solution found by exhaustive placement stays on the
    # states 1..B(its density); the graph needs no state above that
    sets = [odds_up_to(13), odds_up_to(13, (7,)), (3, 47), (1, 5, 9), odds_up_to(21, (15,))]
    for D in sets:
        for l, w in ((3, 1), (4, 1), (4, 2), (5, 2), (6, 2), (7, 2), (6, 3)):
            for sol in exhaustive_irreducible_classes(D, l, w):
                assert max(sol.support()) <= _support_bound(Fraction(w, l), max(D)), (D, sol)


def test_density_spot_values():
    assert density(odds_up_to(17, (15,))).value == Fraction(1, 3)
    assert density(odds_up_to(23, (15,))).value == Fraction(2, 7)
    assert density(odds_up_to(29, (15,))).value == Fraction(1, 4)
    assert density(odds_up_to(61, (31,))).value == Fraction(1, 5)


def test_step_subtracting_two_exponents():
    # off the odd windows one step can subtract several exponents: the
    # length-16 minimum of (3, 47), density 3/8, steps 32 -> 14 =
    # 2 * 32 - (47 + 3), which a graph of single-exponent jumps on states
    # 1..max(D) lacks (its minimum cycle mean is 7/18)
    sol = min_weight_solution((3, 47), 16)
    phi = sol.support()
    assert sol.weight == 6
    assert 50 in {2 * phi[k] - phi[(k + 1) % 16] for k in range(16)}


def test_minimal_solutions_frozen_n3():
    sols = minimal_irreducible_solutions(odds_up_to(13))
    assert [(s.length, s.digits) for s in sols] == [
        (3, ((7, 1),)),
        (6, ((11, 1), (13, 4))),
    ]


def test_minimal_solutions_single_exponent():
    sols = minimal_irreducible_solutions((1,))
    assert [(s.length, s.digits) for s in sols] == [(1, ((1, 1),))]


def test_four_classes_at_two_sevenths():
    D = odds_up_to(29, (15,))
    sols = minimal_irreducible_solutions(D, target=Fraction(2, 7))
    assert [s.digits for s in sols] == [
        ((11, 1), (29, 4)),
        ((13, 1), (23, 16)),
        ((19, 1), (27, 4)),
        ((25, 1), (27, 32)),
    ]
    # exhaustive placement at the base length agrees
    assert exhaustive_irreducible_classes(D, 7, 2) == sols


def test_four_classes_at_two_ninths():
    D = odds_up_to(61, (31,))
    sols = minimal_irreducible_solutions(D, target=Fraction(2, 9))
    assert [s.digits for s in sols] == [
        ((23, 1), (61, 8)),
        ((29, 1), (47, 32)),
        ((39, 1), (59, 8)),
        ((55, 1), (57, 8)),
    ]
    assert exhaustive_irreducible_classes(D, 9, 2) == sols


def test_weight_two_family_identity():
    # 2^(n-1) (2^(n+1) - 3) + (3 2^(n-1) - 1) = 2^(2n) - 1, so the pair
    # u_{2^(n+1)-3} = 2^(n-1), u_{3 2^(n-1)-1} = 1 solves length 2n
    for n in (3, 4, 5, 6):
        d1, d2 = (1 << (n + 1)) - 3, 3 * (1 << (n - 1)) - 1
        assert (1 << (n - 1)) * d1 + d2 == (1 << (2 * n)) - 1
        sol = ModSolution(2 * n, tuple(sorted(((d1, 1 << (n - 1)), (d2, 1)))))
        assert sol.is_irreducible()
        assert sol.density == Fraction(1, n)
        # doubling the leading exponent instead would leave the allowed range
        assert (1 << (2 * n + 1)) - 3 > (1 << (n + 1)) - 1


def test_weight_three_families():
    # two families of weight-3 solutions of length 3n - 2, i in {5, 7}
    for n in (4, 5):
        l = 3 * n - 2
        m = (1 << l) - 1
        for i in (5, 7):
            a = [
                ((1 << (n + 1)) - 3, 1 << (2 * n - 3)),
                (3 * (1 << (n - 1)) - i, 1 << (n - 2)),
                (i * (1 << (n - 2)) - 1, 1),
            ]
            b = [
                ((1 << (n + 1)) - i, 1 << (2 * n - 3)),
                (i * (1 << (n - 2)) - 3, 1 << (n - 1)),
                (3 * (1 << (n - 1)) - 1, 1),
            ]
            for digits in (a, b):
                # the same exponent may appear twice; digits then add
                merged: dict[int, int] = {}
                for d, u in digits:
                    merged[d] = merged.get(d, 0) + u
                assert sum(d * u for d, u in merged.items()) == m
                sol = ModSolution(l, tuple(sorted(merged.items())))
                assert sol.weight == 3 and sol.is_irreducible()


def test_weight_three_family_counts():
    # targets above the densities 1/4 and 1/5 of these windows
    D4 = odds_up_to(29, (15,))
    sols = minimal_irreducible_solutions(D4, target=Fraction(3, 10))
    assert len(sols) == 4 and sols == exhaustive_irreducible_classes(D4, 10, 3)
    D5 = odds_up_to(61, (31,))
    assert len(minimal_irreducible_solutions(D5, target=Fraction(3, 13))) == 4


def test_extra_classes_below_threshold():
    # below the largest degree the class lists grow past the generic four
    cases = {
        (17, (15,)): 2,
        (19, (15,)): 4,
        (21, (15,)): 6,
        (25, (15,)): 1,
        (27, (15,)): 3,
        (29, (15, 23)): 3,
    }
    for (d, ex), count in cases.items():
        D = odds_up_to(d, ex)
        sols = minimal_irreducible_solutions(D, target=density(D).value)
        assert len(sols) == count, (d, ex, [s.digits for s in sols])


def test_enumerator_matches_exhaustive_placement():
    # tight cycles of the support graph vs trying every digit placement
    for d, ex, l, w in ((19, (15,), 6, 2), (19, (15,), 9, 3), (21, (15,), 6, 2)):
        D = odds_up_to(d, ex)
        sols = minimal_irreducible_solutions(D, target=Fraction(w, l))
        at_l = [s for s in sols if s.length == l]
        assert at_l == exhaustive_irreducible_classes(D, l, w)


@pytest.mark.parametrize("d", range(1, 30, 2))
def test_minimal_solutions_match_exhaustive_placement(d):
    # at the density, every length placement can reach within its budget
    for D in {odds_up_to(d), odds_up_to(d, (max(1, d - 2),)) or (d,)}:
        lam = density(D).value
        sols = minimal_irreducible_solutions(D)
        for k in range(1, 4):
            l, w = k * lam.denominator, k * lam.numerator
            if l > 12 or len(D) * l > 60 or w > 3:
                break
            assert [s for s in sols if s.length == l] == exhaustive_irreducible_classes(D, l, w), D


def test_minimal_solutions_all_validate():
    for D, t in [
        (odds_up_to(13), None),
        (odds_up_to(29, (15,)), Fraction(2, 7)),
        (odds_up_to(21, (15,)), None),
    ]:
        for s in minimal_irreducible_solutions(D, target=t):
            assert s.is_irreducible()
            assert s == s.canonical()
            assert set(d for d, _ in s.digits) <= set(D)


@pytest.mark.parametrize("target", [Fraction(0), Fraction(-1, 2)])
def test_nonpositive_target_rejected(target):
    with pytest.raises(ValueError, match="not positive"):
        minimal_irreducible_solutions((1, 3), target=target)


def test_targets_off_the_density_refused():
    D5 = odds_up_to(61, (31,))
    with pytest.raises(ValueError, match="no solution has density 1/6: the density of .* is 1/5"):
        minimal_irreducible_solutions(D5, target=Fraction(1, 6))
    # at 1/2 a cycle could spend a sixth exponent on a column
    with pytest.raises(ValueError, match="target 1/2 lies too far above the density 1/5"):
        minimal_irreducible_solutions(D5, target=Fraction(1, 2))
