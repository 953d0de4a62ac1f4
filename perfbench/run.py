"""Benchmark for np2: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME `all` runs both workloads one after another, each printing its
own result line.

Rounds of the workload run, each in a fresh interpreter, until the next
round would end after S seconds; the run reports the median round.
Every output is checked
against sources independent of np2 (checks.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  In a traced run rounds alternate untraced and
traced, so the tracing overhead is measured in the same run.  See
README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
sys.path.insert(0, SRC)

import spans  # noqa: E402
import workloads  # noqa: E402

# no round starts once the run has lasted this long, whatever --seconds says
RUN_CAP_S = 120
# every worker is killed once the run has lasted this long
RUN_DEADLINE_S = 170
# traced self times must add up to the traced wall time within this share
ACCOUNTING_TOLERANCE = 0.05

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _DECLARED = json.load(_fh)
# metric name -> unit, as BENCHMARK.json declares them
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}


class BenchError(Exception):
    pass


_deadline = time.perf_counter() + RUN_DEADLINE_S


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("NP2_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(job: dict, workdir: str, tag=0) -> dict:
    """Run one worker process on job; its result, with setup_s added.

    The worker and any child it forks share a new session, so a worker
    that times out is killed together with its children.
    """
    job = dict(job, result=os.path.join(workdir, f"result-{tag}.json"), spans=os.path.join(workdir, f"spans-{tag}.npz"))
    job_path = os.path.join(workdir, f"job-{tag}.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path],
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, _deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out on {job.get('calls')}")
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{stderr[-3000:]}")
    with open(job["result"]) as fh:
        result = json.load(fh)
    # perf_counter is the system-wide monotonic clock, shared with the child
    result["setup_s"] = result["ready"] - t_spawn
    return result


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def round_metrics(rnd: dict) -> dict:
    return {
        "wall_s": rnd["wall_s"],
        "op_p50_ms": statistics.median(rnd["op_s"]) * 1e3,
        "op_p95_ms": _p95(rnd["op_s"]) * 1e3,
        "peak_rss_mb": rnd["rss_mb"],
    }


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    """Each timing is taken per round; the run reports the median round."""
    per_round = [round_metrics(r) for r in rounds]
    m = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    m["setup_s"] = statistics.median(setups)
    return m


def _layer_metrics(rnd: dict) -> dict:
    """Per-layer metrics of one traced round, summed over its processes."""
    by_name: Counter = Counter()
    counters: Counter = Counter()
    traced_wall = 0.0
    for res in rnd["results"]:
        for name, row in spans.summarise(res["span_file"]).items():
            for key, value in row.items():
                by_name[f"{name}:{key}"] += value
        counters.update(res["counters"])
        traced_wall += res["wall_s"]

    def get(name, key):
        return by_name[f"{name}:{key}"]

    m = {
        "field.table_build_s": get("field.field_table", "incl"),
        "field.tables_built": counters["field.tables_built"],
        "field.table_mb": counters["field.table_mb"],
        "zeta.expsum_s": get("zeta.exponential_sum", "self"),
        "zeta.expsum_calls": get("zeta.exponential_sum", "calls"),
        "zeta.lpoly_self_s": get("zeta.l_polynomial", "self"),
        "zeta.hull_s": get("zeta.newton_polygon", "incl"),
        "zeta.trace_row_cache_mb": counters["zeta.trace_row_cache_mb"],
        "modsolve.density_s": get("modsolve.density", "incl"),
        "modsolve.density_calls": get("modsolve.density", "calls"),
        "modsolve.bfs_s": get("modsolve.min_weight_solution", "incl"),
        "modsolve.minimal_s": get("modsolve.minimal_irreducible_solutions", "incl"),
        "vss.build_matrix_s": get("vss.build_matrix", "incl"),
        "vss.rank_s": get("vss.vss_dim", "incl"),
        "vss.matrices_built": get("vss.build_matrix", "calls"),
        "vss.distinct_matrix_ratio": counters["vss.distinct_matrices"] / max(1, get("vss.build_matrix", "calls")),
        "hasse.classify_s": get("hasse.classify", "incl"),
        "sweep.enumerate_s": get("sweep.iter_curves", "incl"),
        "sweep.orchestrate_self_s": get("sweep.run_sweep", "self") + get("sweep.evaluate_curve", "self"),
        "sweep.serialise_s": get("sweep.report_lines", "incl") + get("sweep.frontier_summary", "incl"),
        "sweep.report_mb": counters["sweep.report_mb"],
    }
    selfs = {key.split(":")[0]: v for key, v in by_name.items() if key.endswith(":self")}
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = sum(v for name, v in selfs.items() if name.startswith(layer + "."))
    m["bench.self_s"] = selfs.get(spans.ROOT, 0.0)
    m["trace.wall_s"] = traced_wall
    accounted = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["bench.self_s"]
    if abs(accounted - traced_wall) > ACCOUNTING_TOLERANCE * traced_wall:
        raise BenchError(f"self times add up to {accounted:.3f}s of {traced_wall:.3f}s traced")
    return m


def per_layer(rounds: list[dict]) -> dict:
    traced = [_layer_metrics(r) for r in rounds if r["traced"]]
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    m = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(plain)
    return m


def run(args, tmp: str) -> dict:
    wl = workloads.make(args.workload, args.seed, args.smoke)
    start = time.perf_counter()

    def probe_setup(tags):
        # import-only interpreters, before and after the rounds, for setup_s
        return [spawn({"kind": "setup", "trace": False}, tmp, f"setup-{t}")["setup_s"] for t in tags]

    setups = probe_setup(range(0, wl.setup_probes, 2))
    rounds = []
    measured = 0.0
    attempted = failed = 0
    correct = True
    known: Counter = Counter()
    # a traced run needs an untraced round to measure the tracing overhead
    min_rounds = 2 if args.trace else 1
    while True:
        t_round = time.perf_counter()
        workdir = os.path.join(tmp, f"round-{len(rounds)}")
        os.mkdir(workdir)
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rnd = wl.run_round(workdir, traced, spawn)
        rnd["traced"] = traced
        took = time.perf_counter() - t_round
        bad, ok, found = wl.check_round(rnd)
        attempted += len(rnd["op_s"])
        failed += bad
        correct = correct and ok
        known += found
        setups += rnd["setups"]
        rounds.append(rnd)
        if not traced:
            shown = ", ".join(f"{k} = {v:.6g}" for k, v in round_metrics(rnd).items())
            print(f"round {len(rounds) - 1}: {shown}", file=sys.stderr)
        measured += took
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and (measured + took > args.seconds or elapsed + took > RUN_CAP_S):
            break
    setups += probe_setup(range(1, wl.setup_probes, 2))
    if args.trace:
        metrics = per_layer(rounds)
        declared = _DECLARED["per_layer"]
    else:
        metrics = end_to_end([r for r in rounds if not r["traced"]], setups)
        declared = _DECLARED["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError("measured metrics differ from those BENCHMARK.json declares")
    for note, count in sorted(known.items()):
        print(f"recorded, not failed: {count} {note} over {len(rounds)} round(s)", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {UNITS[name]}")
    print(f"{args.workload} rounds = {len(rounds)}, ops attempted = {attempted}, failed = {failed}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, to check the benchmark itself")
    args = p.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rest += ["--smoke"] if args.smoke else []
        return max(main(["--workload", w] + rest) for w in workloads.WORKLOADS)
    if not os.path.isfile(os.path.join(SRC, "np2", "__init__.py")):
        print(f"error: no np2 source under {SRC}", file=sys.stderr)
        return 2
    global _deadline
    _deadline = time.perf_counter() + RUN_DEADLINE_S
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        result = run(args, tmp)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
