"""In-memory spans around the np2 layer boundaries, recorded from outside.

`instrument` replaces each listed np2 function, in every np2 module that
holds a reference to it, with a wrapper that records one span: name,
start, end and the index of the enclosing span.  The program's source
is not touched.  Spans live in flat arrays while the process runs and
are written to one `.npz` file when it ends; `summarise` derives self
time (duration minus the part covered by child spans) from that file.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function) pairs wrapped in a traced run.  The span name is
# "<layer>.<function>", the layer being the module's short name.
TARGETS = (
    ("np2.field", "field_table"),
    ("np2.zeta", "exponential_sum"),
    ("np2.zeta", "l_polynomial"),
    ("np2.zeta", "newton_polygon"),
    ("np2.zeta", "newton_polygon_of_curve"),
    ("np2.modsolve", "density"),
    ("np2.modsolve", "min_weight_solution"),
    ("np2.modsolve", "minimal_irreducible_solutions"),
    ("np2.vss", "build_matrix"),
    ("np2.vss", "vss_dim"),
    ("np2.vss", "vss_report"),
    ("np2.vss", "predict_first_vertex"),
    ("np2.hasse", "classify"),
    ("np2.sweep", "iter_curves"),
    ("np2.sweep", "evaluate_curve"),
    ("np2.sweep", "run_sweep"),
    ("np2.sweep", "report_lines"),
    ("np2.sweep", "frontier_summary"),
    ("np2.cli", "main"),
)
LAYERS = ("field", "zeta", "modsolve", "vss", "hasse", "sweep", "cli")
ROOT = "bench.round"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # counters kept at the same boundaries as the spans
        self.table_degrees: set[int] = set()
        self.trace_row_bytes: dict[tuple, int] = {}
        self.matrices: set[tuple] = set()
        self.report_bytes = 0
        self.originals: dict = {}

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def wrap(self, span: str, fn):
        nid = self._name_id(span)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    @contextmanager
    def span(self, span: str):
        i = self._open(self._name_id(span))
        try:
            yield
        finally:
            self._close(i)

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def counters(self) -> dict:
        """Counts and sizes at the end of a run in a fresh process."""
        field_table = self.originals["field_table"]
        table_bytes = 0
        for d in self.table_degrees:
            t = field_table(d)
            table_bytes += t.exp.nbytes + t.log.nbytes + t.trace.nbytes + t.trace_of_exp.nbytes
        rows = self.originals["_trace_row"].cache_info().currsize
        if rows != len(self.trace_row_bytes):
            raise AssertionError(f"{rows} cached trace rows, {len(self.trace_row_bytes)} seen")
        return {
            "field.tables_built": field_table.cache_info().currsize,
            "field.table_mb": table_bytes / 1e6,
            "zeta.trace_row_cache_mb": sum(self.trace_row_bytes.values()) / 1e6,
            "vss.distinct_matrices": len(self.matrices),
            "sweep.report_mb": self.report_bytes / 1e6,
        }


def _replace_everywhere(orig, new) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "np2" or modname.startswith("np2."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def instrument(tracer: Tracer) -> None:
    """Wrap every target; call after np2 is imported, before any work."""
    import importlib

    import np2.zeta

    for modname, fname in TARGETS:
        orig = getattr(importlib.import_module(modname), fname)
        tracer.originals[fname] = orig
        span = f"{modname.split('.')[1]}.{fname}"
        _replace_everywhere(orig, _boundary(tracer, span, fname, orig))

    trace_row = tracer.originals["_trace_row"] = np2.zeta._trace_row

    def counted_trace_row(am, e, cbits):
        row = trace_row(am, e, cbits)
        tracer.trace_row_bytes.setdefault((am, e, cbits), row.nbytes)
        return row

    np2.zeta._trace_row = counted_trace_row


def _boundary(tracer: Tracer, span: str, fname: str, orig):
    """The traced replacement for one function, with its counters."""
    if fname == "iter_curves":
        # a generator does its work when consumed, so consume it inside the span
        consume = tracer.wrap(span, lambda *args: list(orig(*args)))
        return lambda *args: iter(consume(*args))
    traced = tracer.wrap(span, orig)
    if fname == "field_table":

        def counted(degree):
            tracer.table_degrees.add(degree)
            return traced(degree)

    elif fname == "build_matrix":

        def counted(solutions, f):
            M = traced(solutions, f)
            tracer.matrices.add((M.field_degree, M.sigma, M.entries))
            return M

    elif fname == "report_lines":

        def counted(*args, **kwargs):
            lines = traced(*args, **kwargs)
            tracer.report_bytes += sum(len(line) + 1 for line in lines)
            return lines

    else:
        return traced
    return counted


def summarise(path: str) -> dict:
    """Per-name self time, inclusive time and call count from a span file."""
    z = np.load(path)
    names, name, parent = z["names"], z["name"], z["parent"]
    dur = z["end"] - z["start"]
    if (dur < 0).any():
        raise AssertionError("span ended before it started")
    covered = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(covered, parent[inner], dur[inner])
    own = dur - covered
    out = {}
    for nid, label in enumerate(names):
        sel = name == nid
        # a call nested in a call of the same name is counted once in "incl"
        outer = sel & ~np.isin(parent, np.flatnonzero(sel))
        out[str(label)] = {
            "self": float(own[sel].sum()),
            "incl": float(dur[outer].sum()),
            "calls": int(sel.sum()),
        }
    return out
