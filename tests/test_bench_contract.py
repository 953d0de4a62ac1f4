"""The names the traced benchmark (perfbench/spans.py) reaches into.

A traced run wraps np2 functions from outside and reads two caches, and
every run swaps np2.cli.run_sweep, reads each record's elapsed time and
splices corrupted records into a sweep, so renaming or deleting one of
them breaks the benchmark, not np2's own behaviour.  These checks make
that visible in the unit suite.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import np2.cli
import np2.zeta
from np2.field import field_table
from np2.sweep import SweepSpec, report_lines, run_sweep

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_targets_resolve():
    for modname, fname in _spans().TARGETS:
        assert callable(getattr(importlib.import_module(modname), fname)), (modname, fname)


def test_trace_row_cache_is_readable():
    assert callable(np2.zeta._trace_row.cache_info)


def test_field_table_arrays():
    t = field_table(2)
    for name in ("exp", "log", "trace", "trace_of_exp"):
        assert getattr(t, name).nbytes > 0, name


def test_sweep_surface(monkeypatch, capsys):
    sweep, _ = run_sweep(SweepSpec(1, 5))
    # op times are read from each iterated record
    assert all(isinstance(r.elapsed, float) for r in sweep)
    # a corrupted record spliced in changes its own report line and no other
    i = 11
    k, y = sweep[i].oracle
    bad = dataclasses.replace(sweep[i], oracle=(k + 1, y))
    spliced = sweep[:i] + [bad] + sweep[i + 1 :]
    for fmt, header in (("jsonl", 0), ("csv", 1)):
        old, new = report_lines(sweep, fmt), report_lines(spliced, fmt)
        assert len(new) == len(old) == len(sweep) + header
        assert [j for j, (u, v) in enumerate(zip(old, new)) if u != v] == [i + header], fmt
    # `np2 sweep` looks run_sweep up on np2.cli when it runs, so a swap is seen
    kept = []

    def keep(spec):
        out = run_sweep(spec)
        kept.append(out[0])
        return out

    monkeypatch.setattr(np2.cli, "run_sweep", keep)
    assert np2.cli.main(["sweep", "--q", "2", "--g", "3"]) == 0
    capsys.readouterr()
    assert [len(s) for s in kept] == [8]
