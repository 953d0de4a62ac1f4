"""Solvers for the cyclic digit equation sum_d d * u_d = 0 mod 2^l - 1.

A solution over a set D of odd exponents assigns to each d in D a digit
u_d in [0, 2^l - 1].  Its weight is the total number of ones in the
binary expansions of the u_d, its density is weight / l, and rotating
every u_d by one bit (doubling mod 2^l - 1) yields another solution.
The support function phi(k) = sum_d d * delta^k(u_d) / (2^l - 1) takes
positive integer values with phi(k+1) = 2 phi(k) - c_k cyclically, where
c_k sums the exponents with a one in column l - 1 - k.  So solutions are
closed walks in the support graph, whose step u -> 2u - c costs the
fewest distinct exponents summing to c (c = 0 is free), and irreducible
solutions, those with phi injective, are its simple cycles.  The minimum
density, which governs the first slope of the Newton polygons computed
elsewhere in this package, is the graph's minimum cycle mean: Lawler's
parametric search proves it with Bellman-Ford, and the simple cycles of
the edges its potentials leave tight are the irreducible solutions
attaining it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

SIGMA_LENGTH_CAP = 26
EDGE_CAP = 1 << 21


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


def _set_str(D) -> str:
    """D for a message; past 8 exponents, its ends, size and range."""
    if len(D) <= 8:
        return str(D)
    return f"({str(D[:3])[1:-1]}, ..., {str(D[-3:])[1:-1]}; {len(D)} exponents in {D[0]}..{D[-1]})"


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

    def _rotations(self):
        """The digits rotated by 0, 1, ..., l - 1 bits."""
        rot = self.digits
        for _ in range(self.length):
            yield rot
            rot = tuple((d, _rotl(u, self.length)) for d, u in rot)

    def support(self) -> tuple[int, ...]:
        m = self.modulus
        out = []
        for rot in self._rotations():
            tot = sum(d * u for d, u in rot)
            if tot % m:
                raise AssertionError("support value not an integer")
            out.append(tot // m)
        return tuple(out)

    def is_irreducible(self) -> bool:
        phi = self.support()
        return len(set(phi)) == self.length

    def canonical(self) -> "ModSolution":
        """Lexicographically smallest rotation; shift-class representative."""
        return ModSolution(self.length, min(self._rotations()))


def min_weight_solution(D, l: int) -> ModSolution:
    """A minimum-weight solution of length l, found by breadth-first search.

    Each level is a bitset over the residues mod m = 2^l - 1, a Python int:
    level k holds the residues k moves from 0 and no fewer.  The next level
    is the OR, over the moves, of the level rotated by the move, less every
    residue already seen, so one level costs about |moves| m / 64 words.
    The search stops at the first level that holds an end, a residue one
    move short of 0, and walks back taking the first move in sorted order.
    """
    D = _normalize_set(D)
    if not 1 <= l <= SIGMA_LENGTH_CAP:
        raise ValueError(f"length {l} out of range 1..{SIGMA_LENGTH_CAP}")
    m = (1 << l) - 1
    # each move d 2^r mod m with its first (d, r), d then r ascending
    first = {}
    for d in D:
        for r in range(l):
            first.setdefault(d * (1 << r) % m, (d, r))
    moves = sorted(first)
    ends = 0
    for mv in moves:
        ends |= 1 << (m - mv) % m
    levels, seen = [1], 1
    while not levels[-1] & ends:
        reach = 0
        for mv in moves:
            reach |= levels[-1] << mv
        level = ((reach & ((1 << m) - 1)) | reach >> m) & ~seen
        if not level:
            raise AssertionError("unreachable: d * (2^l - 1) is always a solution")
        levels.append(level)
        seen |= level
    # from 0, one move back onto each level down to level 0, which holds only 0
    acc: dict[int, int] = {}
    cur = 0
    for level in reversed(levels):
        mv = next(mv for mv in moves if level >> (cur - mv) % m & 1)
        cur = (cur - mv) % m
        d, r = first[mv]
        acc[d] = acc.get(d, 0) + (1 << r)
    # fold end-around carries back into l bits; residues are unchanged
    sol = ModSolution(l, tuple(sorted((d, (u - 1) % m + 1) for d, u in acc.items())))
    if sol.weight != len(levels):
        raise AssertionError("witness weight does not match search depth")
    return sol


@dataclass(frozen=True)
class DensityResult:
    """Minimum density over all lengths, with the first witness."""

    value: Fraction
    length: int
    witness: ModSolution


def _seed(D) -> dict[int, ModSolution]:
    """Minimum-weight solutions at lengths 1..n+1, n = floor(log2(max(D) + 2)),
    up to SIGMA_LENGTH_CAP.  Length l lists |D| l moves and searches about
    2^l - 1 residues per move; the seed stops before the steps summed from
    length 1 would pass EDGE_CAP, and length 1 always runs."""
    n = (D[-1] + 2).bit_length() - 1
    seen, steps = {}, 0
    for l in range(1, min(n + 1, SIGMA_LENGTH_CAP) + 1):
        m = (1 << l) - 1
        steps += len(D) * l + m * min(len(D) * l, m)
        if l > 1 and steps > EDGE_CAP:
            break
        seen[l] = min_weight_solution(D, l)
    return seen


def _support_bound(lam: Fraction, maxd: int) -> int:
    """B(lam): the l distinct support values of a simple cycle of mean at
    most lam sum to at most lam * l * maxd, so l(l + 1)/2 <= lam * l * maxd
    and none exceeds floor(lam * l * maxd) - l(l - 1)/2."""
    p, q = lam.numerator * maxd, lam.denominator
    return max((p * l // q - l * (l - 1) // 2 for l in range(1, 2 * p // q)), default=0)


def _edges(D, bound: int, lam: Fraction):
    """The support graph on the states 1..bound as flat arrays src, dst and
    cost, sorted by dst, with the fewest exponents per c from a 0/1
    min-count knapsack."""

    def check(total: int, at_least: str = "") -> None:
        if total > EDGE_CAP:
            raise ValueError(
                f"the support graph of {_set_str(D)} up to density {lam} has {at_least}{total} "
                f"edges on the states 1..{bound}, more than {EDGE_CAP}"
            )

    # the edges into v come from (v + c) / 2 for each c of v's parity up to 2 bound - v;
    # c = 0 and each exponent below 2 bound are among the knapsack's c, so their
    # edges alone can refuse a graph before the knapsack's |D| * 2 bound steps
    check(sum((min(bound, 2 * bound - c) + c % 2) // 2 for c in (0, *D) if c < 2 * bound), "at least ")
    fewest = np.full(min(2 * bound, sum(D) + 1), len(D) + 1)
    fewest[0] = 0
    for d in D:
        fewest[d:] = np.minimum(fewest[d:], fewest[:-d] + 1)
    c = np.flatnonzero(fewest <= len(D))
    total = int(((np.minimum(bound, 2 * bound - c) + c % 2) // 2).sum())
    check(total)
    v = np.arange(1, bound + 1)
    parity = [c[c % 2 == 0], c[c % 2 == 1]]
    count = np.where(v % 2, *(np.searchsorted(cp, 2 * bound - v, "right") for cp in parity[::-1]))
    first = np.where(v % 2, parity[0].size, 0) - np.cumsum(count) + count
    col = np.concatenate(parity)[np.repeat(first, count) + np.arange(total)]
    dst = np.repeat(v, count)
    return (dst + col) // 2, dst, fewest[col]


def _bellman_ford(src, dst, w, bound: int):
    """Potentials p with p[v] <= p[u] + w for every edge u -> v, or the
    edges of a cycle of the predecessor graph, which is negative."""
    n = len(src)
    ends = np.searchsorted(dst, np.arange(1, bound + 2))
    into = np.flatnonzero(ends[1:] > ends[:-1]) + 1
    # distances are kept times n, so the least key into a state also names its edge
    key = w * n + np.arange(n)
    dist = np.zeros(bound + 1, dtype=np.int64)
    pred = np.full(bound + 1, -1)
    for rounds in range(1, bound + 3):
        best = np.minimum.reduceat(dist[src] + key, ends[into - 1])
        better = best < dist[into]
        if not better.any():
            return dist // n
        best, at = best[better], into[better]
        pred[at] = best % n
        dist[at] = best - pred[at]
        # the look for a cycle costs about a round of a small graph, so it runs
        # every fourth round and at the last; a walk of 2^k > bound steps back
        # along pred that stays in the graph ends on a cycle
        if rounds % 4 and rounds <= bound:
            continue
        hop = np.where(pred >= 0, src[pred], 0)
        for _ in range(bound.bit_length() + 1):
            hop = hop[hop]
        if hop.any():
            on = int(hop.max())
            cycle = [int(pred[on])]
            while src[cycle[-1]] != on:
                cycle.append(int(pred[src[cycle[-1]]]))
            return cycle
    raise AssertionError("Bellman-Ford did not settle")


def _proven(D, lam: Fraction, top: Fraction = Fraction(0)):
    """Lower lam to the minimum cycle mean; returns it with the edges on the
    states 1..B(max(lam, top)) and the potentials that prove it there."""
    while True:
        bound = _support_bound(max(lam, top), D[-1])
        src, dst, cost = _edges(D, bound, max(lam, top))
        found = _bellman_ford(src, dst, lam.denominator * cost - lam.numerator, bound)
        if isinstance(found, np.ndarray):
            return lam, (src, dst, cost), found
        mean = Fraction(int(cost[found].sum()), len(found))
        if mean >= lam:
            raise AssertionError("a predecessor cycle of no lower mean")
        lam = mean


def _cycles(D, lam0: Fraction, target: Fraction | None):
    """The minimum density lam and the simple cycles of mean target (lam by
    default), each as its states from the least one and its edge costs.

    A cycle of mean target and length l has reduced costs summing to
    l * slack / target.denominator, and a column with one more exponent than
    the fewest adds lam.denominator to them.  A target is refused where that
    fits, as such columns are not enumerated.
    """
    lam, edges, pot = _proven(D, lam0)
    t = lam if target is None else target
    den, slack = t.denominator, lam.denominator * t.numerator - lam.numerator * t.denominator
    longest = int(2 * t * D[-1]) - 1
    if slack < 0:
        raise ValueError(f"no solution has density {t}: the density of {_set_str(D)} is {lam}")
    if longest * slack >= lam.denominator * den:
        raise ValueError(
            f"target {t} lies too far above the density {lam} of {_set_str(D)}: its solutions "
            f"may spend more than the fewest exponents on a column"
        )
    if t > lam:
        lam, edges, pot = _proven(D, lam, t)
    src, dst, cost = edges

    def walk():
        reduced = lam.denominator * cost - lam.numerator + pot[src] - pot[dst]
        out: dict[int, dict] = {}
        into: dict[int, list] = {}
        for e in np.flatnonzero(den * reduced <= longest * slack).tolist():
            out.setdefault(int(src[e]), {})[int(dst[e])] = (int(reduced[e]), int(cost[e]))
            into.setdefault(int(dst[e]), []).append(int(src[e]))
        for s in sorted(out):
            # the states above s that lead back to s, with their fewest steps there
            steps, level, k = {s: 0}, {s}, 0
            while level:
                k += 1
                level = {u for v in level for u in into.get(v, ()) if u > s and u not in steps}
                steps.update(dict.fromkeys(level, k))
            path, stack = [(s, 0, 0)], [iter(out[s].items())]
            while stack:
                for v, (r, c) in stack[-1]:
                    red = path[-1][2] + r
                    if v == s:
                        if den * red == len(path) * slack:
                            yield [p[0] for p in path], [p[1] for p in path[1:]] + [c]
                    elif (
                        v in steps
                        and len(path) + steps[v] <= longest
                        and den * red <= longest * slack
                        and all(v != p[0] for p in path)
                    ):
                        path.append((v, c, red))
                        stack.append(iter(out[v].items()))
                        break
                else:
                    stack.pop()
                    path.pop()

    return lam, walk()


def density(D) -> DensityResult:
    """Minimum of sigma(D, l) / l over all lengths l, proven global, with
    the first length that attains it, the shortest tight cycle, and a
    witness there: the seed's if it reached that length, otherwise the first
    shift class of the tight cycles.  Raises ValueError where the graph
    would pass EDGE_CAP edges."""
    D = _normalize_set(D)
    seen = _seed(D)
    lam, cycles = _cycles(D, min(s.density for s in seen.values()), None)
    # the seed searched every length up to its longest, so one of them that
    # attains lam is the first; otherwise the shortest tight cycle is
    witness = next((s for s in seen.values() if s.density == lam), None) or _classes(D, cycles, lam)[0]
    return DensityResult(lam, witness.length, witness)


def _subsets(D, c: int, size: int, start: int = 0):
    """The sets of `size` distinct exponents of D[start:] summing to c."""
    if size == 0:
        if c == 0:
            yield ()
        return
    for i in range(start, len(D)):
        if D[i] > c:
            break
        for rest in _subsets(D, c - D[i], size - 1, i + 1):
            yield (D[i],) + rest


def _classes(D, cycles, dens: Fraction) -> list[ModSolution]:
    """One solution of density dens per shift class of the cycles, by length and digits."""
    found: dict[tuple, ModSolution] = {}
    for phi, sizes in cycles:
        l = len(phi)
        cols = [list(_subsets(D, 2 * phi[k] - phi[(k + 1) % l], sizes[k])) for k in range(l)]
        for pick in product(*cols):
            digits: dict[int, int] = {}
            for k, sub in enumerate(pick):
                for d in sub:
                    digits[d] = digits.get(d, 0) | 1 << (l - 1 - k)
            sol = ModSolution(l, tuple(sorted(digits.items())))
            if sol.support() != tuple(phi) or sol.density != dens:
                raise AssertionError("a solution does not match its cycle")
            can = sol.canonical()
            found[can.digits] = can
    return sorted(found.values(), key=lambda s: (s.length, s.digits))


def minimal_irreducible_solutions(D, target: Fraction | None = None) -> list[ModSolution]:
    """All irreducible solutions of density target (by default the minimum
    density), one per shift class, sorted by length and digits."""
    D = _normalize_set(D)
    if target is not None and target <= 0:
        raise ValueError(f"target density {target} is not positive")
    lam, cycles = _cycles(D, min(s.density for s in _seed(D).values()), target)
    return _classes(D, cycles, target or lam)
