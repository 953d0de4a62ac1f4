"""Solvers for the cyclic digit equation sum_d d * u_d = 0 mod 2^l - 1.

A solution over a set D of odd exponents assigns to each d in D a digit
u_d in [0, 2^l - 1].  Its weight is the total number of ones in the
binary expansions of the u_d, its density is weight / l, and rotating
every u_d by one bit (doubling mod 2^l - 1) yields another solution.
The support function

    phi(k) = sum_d d * delta^k(u_d) / (2^l - 1)

takes positive integer values with phi(k+1) <= 2 phi(k) cyclically, and
a solution is irreducible exactly when phi is injective.  The minimum
density over all lengths governs the first slope of the Newton polygons
computed elsewhere in this package; this module finds that minimum with
a proof of global minimality, or refuses, and enumerates all
irreducible solutions attaining it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import ceil

import numpy as np

SIGMA_LENGTH_CAP = 26
_BFS_CHUNK = 1 << 22


def odds_up_to(n: int, exclude=()) -> tuple[int, ...]:
    ex = set(exclude)
    return tuple(d for d in range(1, n + 1, 2) if d not in ex)


def _normalize_set(D) -> tuple[int, ...]:
    out = tuple(sorted(set(D)))
    if not out:
        raise ValueError("empty exponent set")
    for d in out:
        if d < 1 or d % 2 == 0:
            raise ValueError(f"exponent {d} is not odd and positive")
    return out


def _rotl(u: int, l: int) -> int:
    return ((u << 1) | (u >> (l - 1))) & ((1 << l) - 1)


@dataclass(frozen=True)
class ModSolution:
    """One solution: length l and the nonzero digits as (d, u_d) pairs."""

    length: int
    digits: tuple[tuple[int, int], ...]

    def __post_init__(self):
        l = self.length
        if l < 1:
            raise ValueError("length must be positive")
        m = (1 << l) - 1
        if not self.digits:
            raise ValueError("solution must have a nonzero digit")
        if list(self.digits) != sorted(self.digits):
            raise ValueError("digits must be sorted by exponent")
        tot = 0
        seen = set()
        for d, u in self.digits:
            if d < 1 or d % 2 == 0:
                raise ValueError(f"exponent {d} is not odd and positive")
            if d in seen:
                raise ValueError(f"repeated exponent {d}")
            seen.add(d)
            if not 1 <= u <= m:
                raise ValueError(f"digit {u} out of range for length {l}")
            tot += d * u
        if tot % m:
            raise ValueError(f"sum {tot} not divisible by 2^{l} - 1")

    @property
    def modulus(self) -> int:
        return (1 << self.length) - 1

    @property
    def weight(self) -> int:
        return sum(bin(u).count("1") for _, u in self.digits)

    @property
    def density(self) -> Fraction:
        return Fraction(self.weight, self.length)

    def shift(self) -> "ModSolution":
        """Rotate every digit by one bit; a solution again, same weight."""
        return ModSolution(
            self.length, tuple((d, _rotl(u, self.length)) for d, u in self.digits)
        )

    def support(self) -> tuple[int, ...]:
        m = self.modulus
        out = []
        rot = list(self.digits)
        for _ in range(self.length):
            tot = sum(d * u for d, u in rot)
            if tot % m:
                raise AssertionError("support value not an integer")
            out.append(tot // m)
            rot = [(d, _rotl(u, self.length)) for d, u in rot]
        return tuple(out)

    def is_irreducible(self) -> bool:
        phi = self.support()
        return len(set(phi)) == self.length

    def canonical(self) -> "ModSolution":
        """Lexicographically smallest rotation; shift-class representative."""
        best = None
        cur = self
        for _ in range(self.length):
            if best is None or cur.digits < best.digits:
                best = cur
            cur = cur.shift()
        return best


def _moves(D, l) -> list[int]:
    m = (1 << l) - 1
    return sorted({d * (1 << r) % m for d in D for r in range(l)})


def _bfs_distances(moves: list[int], m: int) -> np.ndarray:
    """Minimum number of moves from 0 to the residues mod m, below sigma.

    Levels up to sigma - 2 are complete.  Level sigma - 1 is the first
    that holds a residue one move short of 0, and only those residues are
    labelled there, as no other is read; deeper residues keep -1.
    """
    dist = np.full(m, -1, dtype=np.int8)
    dist[0] = 0
    mv = np.array(moves, dtype=np.int64)
    if mv[0] == 0:  # sigma is 1
        return dist
    ends = m - mv  # the residues one move short of 0
    step = max(1, _BFS_CHUNK // mv.size)
    frontier = np.array([0], dtype=np.int64)
    level = 0
    while True:
        level += 1
        if level > 120:
            raise AssertionError("search depth exceeded")
        # The level is sigma - 1 if it reaches an end, and then only the
        # ends are labelled.  No end is labelled earlier, and a negative
        # index into dist is the residue mod m.
        closing = np.zeros(ends.size, dtype=bool)
        for i in range(0, ends.size, step):
            back = ends[i : i + step, None] - mv[None, :]
            closing[i : i + step] = (dist[back] == level - 1).any(axis=1)
        if closing.any():
            dist[ends[closing]] = level
            return dist
        # otherwise scatter the whole level into marks
        mark = np.zeros(m, dtype=bool)
        for i in range(0, frontier.size, step):
            block = frontier[i : i + step, None] + mv[None, :]
            block[block >= m] -= m
            mark[block.ravel()] = True
        frontier = np.flatnonzero(mark & (dist < 0))
        dist[frontier] = level


def min_weight_solution(D, l: int) -> ModSolution:
    """A minimum-weight solution of length l, found by breadth-first search."""
    D = _normalize_set(D)
    if not 1 <= l <= SIGMA_LENGTH_CAP:
        raise ValueError(f"length {l} out of range 1..{SIGMA_LENGTH_CAP}")
    if l == 1:
        return ModSolution(1, ((D[0], 1),))
    m = (1 << l) - 1
    moves = _moves(D, l)
    dist = _bfs_distances(moves, m)
    best = None
    for mv in moves:
        t = (m - mv) % m
        if dist[t] >= 0 and (best is None or 1 + dist[t] < best[0]):
            best = (1 + int(dist[t]), t, mv)
    if best is None:
        raise AssertionError("unreachable: d * (2^l - 1) is always a solution")
    total, cur, last = best
    word = [last]
    for k in range(total - 1, 0, -1):
        for mv in moves:
            prev = (cur - mv) % m
            if dist[prev] == k - 1:
                word.append(mv)
                cur = prev
                break
        else:
            raise AssertionError("backward walk failed")
    if cur != 0:
        raise AssertionError("walk did not return to the origin")
    sol = _word_to_solution(word, D, l)
    if sol.weight != total:
        raise AssertionError("witness weight does not match search depth")
    return sol


def _word_to_solution(word: list[int], D, l: int) -> ModSolution:
    m = (1 << l) - 1
    pre = {}
    for d in D:
        for r in range(l):
            pre.setdefault(d * (1 << r) % m, (d, r))
    acc: dict[int, int] = {}
    for mv in word:
        d, r = pre[mv]
        acc[d] = acc.get(d, 0) + (1 << r)
    # fold end-around carries back into l bits; residues are unchanged
    digits = tuple(sorted((d, (u - 1) % m + 1) for d, u in acc.items()))
    return ModSolution(l, digits)


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


def _feasible(w: int, l: int, maxd: int) -> bool:
    """Whether an irreducible solution of weight w and length l can exist
    over a set whose largest exponent is maxd: its support values sum to
    sum_d d * weight(u_d) <= w * maxd."""
    return support_sum_lower_bound(w, l) <= w * maxd


@dataclass(frozen=True)
class DensityResult:
    """Minimum density over all lengths, with the first witness."""

    value: Fraction
    length: int
    witness: ModSolution
    sigmas: tuple[tuple[int, int], ...]


def density(D) -> DensityResult:
    """Minimum of sigma(D, l) / l over all lengths l, proven global.

    Any solution splits into irreducible ones of no larger density, and
    an irreducible solution's support values are distinct and positive,
    so they sum to at least l(l+1)/2 and to at most w * max(D).  Once a
    running minimum best is known, a length where no weight w < best * l
    is _feasible cannot beat it, and no length with l + 1 >= 2 * best *
    max(D) can.  The search skips the first kind and stops at the second.
    Raises ValueError when a length it cannot skip lies past the horizon
    min(5n + 5, SIGMA_LENGTH_CAP), n = floor(log2(max(D) + 2)).
    """
    D = _normalize_set(D)
    maxd = D[-1]
    n = (maxd + 2).bit_length() - 1
    horizon = min(5 * n + 5, SIGMA_LENGTH_CAP)
    best: tuple[Fraction, int, ModSolution] | None = None
    sigmas = []
    for l in count(1):
        if best is not None:
            if l + 1 >= 2 * best[0] * maxd:
                break
            if not any(_feasible(w, l, maxd) for w in range(1, ceil(best[0] * l))):
                continue
        if l > horizon:
            raise ValueError(
                f"density of {D} not proven minimal: length {l} lies past the horizon "
                f"{horizon}; {best[0]} is only an upper bound"
            )
        sol = min_weight_solution(D, l)
        sigmas.append((l, sol.weight))
        val = Fraction(sol.weight, l)
        if best is None or val < best[0]:
            best = (val, l, sol)
    value, at, witness = best
    return DensityResult(value, at, witness, tuple(sigmas))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _subsets_in_range(D, size: int, lo: int, hi: int, start: int = 0):
    """Subsets of D[start:] of the given size with sum in [lo, hi]."""
    if hi < lo or size > len(D) - start:
        return
    if size == 0:
        if lo <= 0 <= hi:
            yield (), 0
        return
    for i in range(start, len(D) - size + 1):
        d = D[i]
        rest_min = sum(D[i + 1 : i + size])
        rest_max = sum(D[-(size - 1) :]) if size > 1 else 0
        if d + rest_min > hi:
            break
        if d + rest_max < lo:
            continue
        for sub, s in _subsets_in_range(D, size - 1, lo - d, hi - d, i + 1):
            yield (d,) + sub, d + s


def minimal_irreducible_solutions(D, target: Fraction | None = None, max_weight: int = 5):
    """All irreducible solutions of minimum density, one per shift class.

    Candidates have weight k w0 and length k l0 with target = w0 / l0 in
    lowest terms; each is assembled from its support chain, which
    doubles along runs and drops by a set of exponents at each jump.
    """
    D = _normalize_set(D)
    maxd = D[-1]
    if target is None:
        target = density(D).value
    if target <= 0:
        raise ValueError(f"target density {target} is not positive")
    w0, l0 = target.numerator, target.denominator
    found: dict[tuple, ModSolution] = {}
    k = 1
    while k * w0 <= max_weight:
        w, l = k * w0, k * l0
        if _feasible(w, l, maxd):
            for sol in _enumerate_exact(D, w, l):
                can = sol.canonical()
                found.setdefault(can.digits, can)
        k += 1
    while True:
        w, l = k * w0, k * l0
        if l * (l + 1) // 2 > w * maxd:
            break
        if _feasible(w, l, maxd):
            raise ValueError(
                f"solutions of weight {w} cannot be ruled out; raise max_weight"
            )
        k += 1
    out = sorted(found.values(), key=lambda s: (s.length, s.digits))
    for sol in out:
        if not (sol.density == target and sol.is_irreducible()):
            raise AssertionError("enumerated solution fails validation")
    return out


def _enumerate_exact(D, w: int, l: int):
    """Irreducible solutions of weight exactly w and length exactly l."""
    cap = w * D[-1]
    for j in range(1, w + 1):
        for sizes in _compositions(w, j):
            for runs in _compositions(l, j):
                pref = [0]
                for r in runs:
                    pref.append(pref[-1] + r)
                yield from _chain_dfs(D, l, cap, sizes, runs, pref)


def _chain_dfs(D, l, cap, sizes, runs, pref):
    j = len(runs)

    def rec(i, n, n1, seen, total, bits):
        top = n << (runs[i] - 1)
        vals = [n << t for t in range(runs[i])]
        ntotal = total + sum(vals)
        if ntotal > cap or any(v in seen for v in vals):
            return
        nseen = seen | set(vals)
        rpos = l - 1 - (pref[i + 1] - 1)
        if i == j - 1:
            c = 2 * top - n1
            for sub, _ in _subsets_in_range(D, sizes[i], c, c):
                yield bits + [(d, rpos) for d in sub], nseen
            return
        nxt_limit = cap >> (runs[i + 1] - 1)
        lo = 2 * top - nxt_limit
        hi = 2 * top - 1
        for sub, c in _subsets_in_range(D, sizes[i], lo, hi):
            n_next = 2 * top - c
            if n_next in nseen:
                continue
            yield from rec(
                i + 1, n_next, n1, nseen, ntotal, bits + [(d, rpos) for d in sub]
            )

    for n1 in range(1, (cap >> (runs[0] - 1)) + 1):
        for bits, phi_vals in rec(0, n1, n1, frozenset(), 0, []):
            digits: dict[int, int] = {}
            for d, r in bits:
                if digits.get(d, 0) >> r & 1:
                    raise AssertionError("duplicate bit in chain assembly")
                digits[d] = digits.get(d, 0) | (1 << r)
            sol = ModSolution(l, tuple(sorted(digits.items())))
            if set(sol.support()) != phi_vals:
                raise AssertionError("support does not match the chain")
            yield sol
