"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the np2 command lines to run and
where to put the reports, the result and, in a traced round, the spans.
A sweep job runs its `np2 sweep` calls through `np2.cli.main`, exactly as
the command would, and renders the CSV report of each from the same
records.  A queries job runs each of its commands in a child forked from
this interpreter once np2 is imported and before any np2 call, so every
query pays np2's lazy table builds and solver work again, as a one-shot
command does.  A setup job only imports np2, so that the parent can time
interpreter start-up and import alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_calls(calls, kind, tracer, records, spans_path) -> dict:
    import np2.cli
    import np2.sweep

    out, err = io.StringIO(), io.StringIO()
    codes = []
    if tracer:
        import spans

        root = tracer.span(spans.ROOT)
    else:
        root = contextlib.nullcontext()
    t0 = time.perf_counter()
    with root, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for call in calls:
            codes.append(np2.cli.main(call["argv"]))
            if call.get("csv"):
                lines = np2.sweep.report_lines(records[-1], "csv")
                with open(call["csv"], "w") as fh:
                    fh.writelines(line + "\n" for line in lines)
    wall = time.perf_counter() - t0

    if kind == "sweep":
        op_s = [r.elapsed for recs in records for r in recs]
    else:
        op_s = [wall]
    result = {
        "wall_s": wall,
        "op_s": op_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes": codes,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer:
        tracer.write(spans_path)
        result["span_file"] = spans_path
        result["counters"] = tracer.counters()
    return result


def _forked_query(call, tracer, records, result_path, spans_path) -> int:
    """Run one query in a forked child; its exit status."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            result = _run_calls([call], "query", tracer, records, spans_path)
            with open(result_path, "w") as fh:
                json.dump(result, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import np2.cli

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    records = []
    run_sweep = np2.cli.run_sweep

    def keep_records(spec):
        out = run_sweep(spec)
        records.append(out[0])
        return out

    np2.cli.run_sweep = keep_records
    ready = time.perf_counter()
    if job["kind"] == "setup":
        result = {"ready": ready}
    elif job["kind"] == "queries":
        queries = []
        for i, call in enumerate(job["calls"]):
            path = f"{job['result']}.{i}"
            code = _forked_query(call, tracer, records, path, f"{job['spans']}.{i}.npz")
            if code != 0:
                print(f"query {call['argv']} exited {code}", file=sys.stderr)
                return 1
            with open(path) as fh:
                queries.append(json.load(fh))
        result = {"ready": ready, "queries": queries}
    else:
        result = _run_calls(job["calls"], job["kind"], tracer, records, job["spans"])
        result["ready"] = ready
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
