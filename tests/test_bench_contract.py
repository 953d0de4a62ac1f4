"""The names the traced benchmark (perfbench/spans.py) reaches into.

A traced run wraps np2 functions from outside and reads two caches, so
renaming or deleting one of them breaks the benchmark, not np2's own
behaviour.  These checks make that visible in the unit suite.
"""

import importlib
import importlib.util
from pathlib import Path

import np2.zeta
from np2.field import field_table

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
