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
from pathlib import Path

import numpy as np

from np2.field import field_table
from np2.modsolve import ModSolution, odds_up_to
from np2.sweep import COLUMNS, _csv_cell, record_row
from np2.zeta import _LEADER_BLOCK, _basis, _orbit_leaders, _Orbits

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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    printed, tables, peak_kb = out.stdout.rsplit(maxsplit=2)
    return printed, int(tables), int(peak_kb)
