"""Brute-force reference implementations used only by the test suite."""

import csv
import io
import json
import os
import subprocess
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from np2.field import FieldCtx, embed_bits, field_table, make_ctx
from np2.hasse import MIN_GENUS, TheoremCase, read_exponents
from np2.modsolve import ModSolution, odds_up_to
from np2.sweep import COLUMNS, _csv_cell, record_row
from np2.vss import _frame, _marks
from np2.zeta import _LEADER_BLOCK, CurvePoly, _basis, _orbit_leaders, _Orbits

# the certified 2-densities of the punctured odd-exponent sets, keyed by
# the window 2^n - 1 <= d <= 2^(n+1) - 3 for n = 4 and 5
DENSITY_TABLE = (
    (4, 17, (15,), Fraction(1, 3)),
    (4, 19, (15,), Fraction(1, 3)),
    (4, 21, (15,), Fraction(1, 3)),
    (4, 23, (15,), Fraction(2, 7)),
    (4, 23, (13, 15), Fraction(1, 3)),
    (4, 25, (15,), Fraction(2, 7)),
    (4, 27, (15,), Fraction(2, 7)),
    (4, 29, (15, 23), Fraction(2, 7)),
    *[(5, d, (31,), Fraction(1, 4)) for d in range(33, 46, 2)],
    (5, 47, (31,), Fraction(2, 9)),
    (5, 47, (29, 31), Fraction(1, 4)),
    *[(5, d, (31,), Fraction(2, 9)) for d in range(49, 60, 2)],
    *[(5, d, (29, 31), Fraction(1, 4)) for d in range(49, 56, 2)],
    *[(5, d, (31, 47), Fraction(1, 4)) for d in range(49, 56, 2)],
    (5, 61, (31, 47), Fraction(2, 9)),
)
PAPER_SETS = [odds_up_to(d, punctures) for _, d, punctures, _ in DENSITY_TABLE]


def scalar_sigma(D, l):
    """Minimum solution weight by a plain dict-and-deque search."""
    m = (1 << l) - 1
    if m == 1:
        return 1
    moves = sorted({d * (1 << r) % m for d in D for r in range(l)})
    if 0 in moves:
        return 1
    dist = {0: 0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for mv in moves:
            y = (x + mv) % m
            if y == 0:
                return dist[x] + 1
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    raise AssertionError("unreachable: d * (2^l - 1) is always a solution")


# scratch memory of bfs_distances: residues per gather block
BFS_CHUNK = 1 << 22


def bfs_distances(moves: list[int], m: int) -> np.ndarray:
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
    step = max(1, BFS_CHUNK // mv.size)
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


def all_moves(D, l) -> list[int]:
    """Every move d * 2^r mod 2^l - 1, sorted."""
    m = (1 << l) - 1
    return sorted({d * (1 << r) % m for d in D for r in range(l)})


def shifted(s: ModSolution) -> ModSolution:
    """s with every digit rotated left by one bit: a solution again, of the same weight."""
    l = s.length
    return ModSolution(l, tuple((d, (u << 1 | u >> (l - 1)) & ((1 << l) - 1)) for d, u in s.digits))


def word_to_solution(word: list[int], D, l: int) -> ModSolution:
    """The solution of a closed walk of moves, each taken as its first (d, r)."""
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


def reference_min_weight_solution(D, l: int, distances=bfs_distances) -> ModSolution:
    """min_weight_solution from a numpy array of distances: the first move
    in sorted order that closes a walk of least weight, then, walking back,
    the first move in sorted order onto the level below."""
    D = tuple(sorted(set(D)))
    m = (1 << l) - 1
    moves = all_moves(D, l)
    dist = distances(moves, m)
    best = None
    for mv in moves:
        t = (m - mv) % m
        if dist[t] >= 0 and (best is None or 1 + dist[t] < best[0]):
            best = (1 + int(dist[t]), t, mv)
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
    sol = word_to_solution(word, D, l)
    if sol.weight != total:
        raise AssertionError("witness weight does not match search depth")
    return sol


def exhaustive_irreducible_classes(D, l, w):
    """All irreducible weight-w length-l solutions, one per shift class,
    by trying every placement of w ones in the digit matrix."""
    m = (1 << l) - 1
    cells = [(d, r) for d in D for r in range(l)]
    out = {}
    for combo in combinations(cells, w):
        if sum(d << r for d, r in combo) % m:
            continue
        digits: dict[int, int] = {}
        for d, r in combo:
            digits[d] = digits.get(d, 0) | (1 << r)
        sol = ModSolution(l, tuple(sorted(digits.items())))
        if sol.weight == w and sol.is_irreducible():
            can = sol.canonical()
            out[can.digits] = can
    return sorted(out.values(), key=lambda s: s.digits)


def field_inv(ctx, x):
    """Inverse in F_q as x^(q - 2)."""
    if x == 0:
        raise ZeroDivisionError("inverse of 0")
    return ctx.pow_(x, ctx.q - 2)


def row_reduce(ctx, rows):
    """A basis of the F_q row space, 1 at each pivot, one field entry at a time."""
    basis = []
    for row in rows:
        r = list(row)
        for pc, b in basis:
            if r[pc]:
                coef = r[pc]
                r = [x ^ ctx.mul(coef, y) for x, y in zip(r, b)]
        p = next((j for j, x in enumerate(r) if x), None)
        if p is None:
            continue
        inv = field_inv(ctx, r[p])
        basis.append((p, [ctx.mul(inv, x) for x in r]))
    basis.sort()
    return [tuple(r) for _, r in basis]


def apply_phi(ctx, M, v):
    """phi(v) = sum_i v_i^2 * row_i, the squaring-twisted map of M."""
    n = len(M.sigma)
    out = [0] * n
    for i, a in enumerate(v):
        a = ctx.mul(a, a)
        if a == 0:
            continue
        row = M.entries[i]
        if a == 1:
            for j in range(n):
                out[j] ^= row[j]
        else:
            for j in range(n):
                if row[j]:
                    out[j] ^= ctx.mul(a, row[j])
    return tuple(out)


def chain_dim(ctx, M):
    """Stable dimension of W_{k+1} = phi(W_k) over F_q, from the full space."""
    n = len(M.sigma)
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    dim = n
    for _ in range(n + 1):
        basis = row_reduce(ctx, [apply_phi(ctx, M, v) for v in basis])
        if len(basis) == dim:
            return dim
        dim = len(basis)
    raise AssertionError("image chain failed to stabilize")


def reference_report_lines(records, format, timing=False):
    """The report rendered one record at a time: a JSON line of each
    record_row, or a csv.writer row of its cells after the header."""
    if format == "jsonl":
        return [json.dumps(record_row(r, timing), sort_keys=True) for r in records]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS + (("elapsed",) if timing else ()))
    for r in records:
        writer.writerow([_csv_cell(v) for v in record_row(r, timing).values()])
    return buf.getvalue().splitlines()


def reference_rank_keys(deg: int, rows) -> list[tuple]:
    """A key per dense row (c_1, c_3, ..., c_deg), a list of ints, of
    curves of one field and degree, equal where predict_first_vertex is:
    the marks stripped, then the coefficients at the jumps of that
    exponent set's frame; per-row tuples, the reference for the key
    columns of np2.vss.rank_keys."""
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


def reference_ladder_keys(genus: int, rows) -> list:
    """A key per dense row, a list of ints, equal where the case ladder
    is: the coefficients at the exponents it reads, none below its genus;
    the reference for the case ladder's key columns in np2.sweep."""
    # one exponent gives a bare coefficient, which keys as well as a tuple
    exps = read_exponents(genus) if genus >= MIN_GENUS else ()
    return list(map(itemgetter(*((e - 1) // 2 for e in exps)), rows)) if exps else [()] * len(rows)


def same_classes(u, v) -> bool:
    """Whether two keys per row split the rows into the same classes."""
    return len(set(zip(u, v))) == len(set(u)) == len(set(v))


def reference_summary(records):
    """summarize's counts, recounted one record at a time."""
    agreements = disagreements = oracle_disagreements = absences = 0
    for r in records:
        flags = [r.agree_oracle_vss, r.agree_oracle_hasse, r.agree_vss_hasse]
        ran = [f for f in flags if f is not None]
        agreements += bool(ran) and all(ran)
        disagreements += False in ran
        oracle_disagreements += False in (r.agree_oracle_vss, r.agree_oracle_hasse)
        vertices = {"oracle": r.oracle, "vss": r.vss, "hasse": r.hasse_vertex}
        absences += any(vertices[p] is None for p in r.predictors)
    return {
        "total": len(records),
        "agreements": agreements,
        "disagreements": disagreements,
        "oracle_disagreements": oracle_disagreements,
        "absences": absences,
    }


def reference_frontier(records):
    """frontier_summary's table, recounted one record at a time."""
    table = {}
    for r in records:
        if r.hasse_case is None:
            continue
        columns = ("records", "fired", "oracle_agree", "oracle_disagree", "vss_agree", "vss_disagree")
        row = table.setdefault(r.hasse_case, dict.fromkeys(columns, 0))
        row["records"] += 1
        if r.hasse_vertex is None:
            continue
        row["fired"] += 1
        for a, flag in (("oracle", r.agree_oracle_hasse), ("vss", r.agree_vss_hasse)):
            if flag is not None:
                row[f"{a}_agree" if flag else f"{a}_disagree"] += 1
    return dict(sorted(table.items()))


def table_trace_bits(am, e, cbits):
    """Tr(c g^(j e)) for j = 0..2^am - 2, gathered from the field table."""
    tab = field_table(am)
    n = (1 << am) - 1
    idx = np.arange(n, dtype=np.int64)
    idx *= e
    idx += int(tab.log[cbits])
    idx %= n
    return tab.trace_of_exp[idx]


def table_leader_rows(a, am, e):
    """Tr(beta_i g^(j e)) over the orbit leaders j, one packed row per basis
    image beta_i, gathered from the field table at (j e + log beta_i) mod n."""
    tab = field_table(am)
    n = (1 << am) - 1
    orbits = _orbit_leaders(a, am)
    je = orbits.leaders.astype(np.int64) * e
    rows = np.empty((a, orbits.mask.size), dtype=np.uint64)
    for i, b in enumerate(_basis(a, am)):
        bits = tab.trace_of_exp[(je + int(tab.log[b])) % n]
        rows[i] = np.packbits(bits, bitorder="little").view(np.uint64)
    return rows & orbits.mask


def full_orbit_leaders(a, am):
    """_Orbits from a search over every exponent 0..2^am - 2."""
    m = am // a
    n = (1 << am) - 1
    divisors = [s for s in range(1, m + 1) if m % s == 0]
    parts = {s: [] for s in divisors}
    for lo in range(0, n, _LEADER_BLOCK):
        lead = np.arange(lo, min(n, lo + _LEADER_BLOCK), dtype=np.uint32)
        rot = lead
        for _ in range(1, m):
            rot = rot << a & n | rot >> (am - a)
            keep = lead <= rot
            lead, rot = lead[keep], rot[keep]
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
    return _Orbits(tuple(sizes), tuple(counts), tuple(bounds), leaders, mask)


def fresh_process(code):
    """Run code in a fresh interpreter with np2 importable; return what it
    prints, the number of field tables it built and its peak resident set
    in kB.  The peak is VmHWM, of the child's own image: a child's
    ru_maxrss also counts the resident set of the process that forked it."""
    code += (
        "from np2.field import field_table\n"
        "hwm = next(s for s in open('/proc/self/status') if s.startswith('VmHWM:')).split()[1]\n"
        "print(field_table.cache_info().currsize, hwm)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_np2_env(), capture_output=True, text=True, check=True)
    printed, tables, peak_kb = out.stdout.rsplit(maxsplit=2)
    return printed, int(tables), int(peak_kb)


def run_python(args, **kwargs):
    """A fresh interpreter with np2 importable, given args, stopped after 60 s."""
    return subprocess.run([sys.executable, *args], env=_np2_env(), text=True, timeout=60, **kwargs)


def run_cli(argv, **kwargs):
    """np2.cli run as a script in a fresh interpreter, stopped after 60 s."""
    return run_python(["-m", "np2.cli", *argv], **kwargs)


def _np2_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def eval_sparse(ctx: FieldCtx, items, x: int) -> int:
    """Horner evaluation over the gaps of a sparse polynomial."""
    e_prev, r = items[0]
    for e, c in items[1:]:
        r = ctx.mul(r, ctx.pow_(x, e_prev - e)) ^ c
        e_prev = e
    return ctx.mul(r, ctx.pow_(x, e_prev))


def exponential_sum_scalar(f: CurvePoly, am: int) -> int:
    """Element-by-element S over F_{2^am}; the reference for the packed rows."""
    ctx = make_ctx(am)
    emb = tuple((e, embed_bits(c, f.field_degree, am)) for e, c in f.coeffs)
    s = 0
    for x in ctx.elements():
        s += 1 - 2 * ctx.trace(eval_sparse(ctx, emb, x))
    return s


# The case ladder written out case by case: one hand-written Hasse value
# per fallback case and the ladder walk over their ranges.  The reference
# that np2.hasse's table of clauses is tested against.


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


def _t2_ladder(n):
    """The fallback cases at level n as (case, lo, hi, vertex, value, slope_at_least),
    tried in order; the first that holds 2g+1 wins (lo <= 2g+1 < hi)."""
    p = 1 << (n - 2)
    return (
        ("T2-ia", 4 * p, 5 * p - 1, (2 * n - 2, 2), _value_t2_ia, None),
        ("T2-ib", 5 * p - 1, 6 * p - 5, (2 * n - 2, 2), _value_t2_ib, None),
        ("T2-ic", 6 * p - 5, 6 * p - 4, (3 * n - 3, 3), _value_t2_ic, None),
        ("T2-id", 6 * p - 3, 6 * p - 2, (3 * n - 3, 3), _value_t2_id, None),
        ("T2-ii", 6 * p - 1, 8 * p - 7, (2 * n - 1, 2), _value_t2_ii, Fraction(1, n - 1)),
        ("T2-iii", 8 * p - 7, 8 * p - 6, (2 * n - 1, 2), _value_t2_iii, None),
        ("T2-iv", 8 * p - 5, 8 * p - 4, (2 * n - 1, 2), _value_t2_iv, None),
        ("T2-v", 8 * p - 3, 8 * p - 2, (2 * n - 1, 2), _value_t2_v, None),
    )


T2_VALUES = {case_id: value_of for case_id, _, _, _, value_of, _ in _t2_ladder(3)}


def reference_classify(f) -> TheoremCase:
    """The case ladder walked branch by branch: the T1 tests, then the
    first fallback case that holds 2g+1, by its hand-written value."""
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
    for case_id, lo, hi, vertex, value_of, slope in _t2_ladder(n):
        if lo <= deg < hi:
            value = value_of(ctx, c, n)
            if value:
                return TheoremCase(case_id, n, value, vertex, True)
            return TheoremCase(case_id, n, 0, None, True, slope)
    return TheoremCase("out-of-ladder", n, 0, None, True)


def reference_read_exponents(genus: int) -> tuple[int, ...]:
    """The exponents reference_classify reads at this genus, recorded on a
    probe curve that reads 0 everywhere: it fails both T1 tests and
    reaches its fallback case, whose value has no branches."""
    read = set()
    deg = 2 * genus + 1
    probe = SimpleNamespace(field_degree=1, genus=genus, deg=deg, coeff=lambda e: read.add(e) or 0)
    reference_classify(probe)
    return tuple(sorted(e for e in read if e <= deg))
