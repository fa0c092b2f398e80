"""Benchmark for galilei: four exact-algebra workloads, checked and timed.

    python3 perfbench/run.py --workload {appendix,rediscovery,reduction,verbs} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the library is taken from ``src/`` next to this
directory.  One client, one task at a time, at most one child interpreter
alive (closed loop).  After set-up the run repeats passes over the
workload's task list until ``--seconds`` is used up (a pass is started
while at least half a pass fits), checks every output exactly, and prints
one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see BENCHMARK.json);
with ``--trace 1`` each round is an untraced pass followed by a traced one,
and the metrics are the per-layer ones.  The line before it is a JSON
record of the run (Python, CPUs, load average, commit, seed, sample
counts).  ``--smoke`` shrinks every task list to a few tasks.

Exit status 0: all outputs checked correct.  1: a result was printed but
some output was wrong.  2: the benchmark could not run (no result printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REF = HERE / "ref"

SETUP_REPEATS = 9
PROBE_REPEATS = 3
# every child is killed at this many seconds after the run started, so that
# a hung child still lets the run exit (without a result) inside 180 s
RUN_DEADLINE_S = 170
STARTED = time.perf_counter()

LAYER_METRICS = [(f"{layer}.{kind}", unit) for layer in tracer.LAYERS
                 for kind, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
NAMED_METRICS = [
    ("scalars.ops", "count"), ("scalars.new", "count"), ("scalars.mul_ns", "ns"),
    ("scalars.add_ns", "ns"), ("scalars.inverse_ns", "ns"),
    ("matrix.matmul_calls", "count"), ("matrix.matmul_s", "s"), ("matrix.rref_calls", "count"),
    ("matrix.rref_s", "s"), ("matrix.rref_cells", "count"), ("matrix.det_s", "s"),
    ("poly.mul_calls", "count"), ("poly.mul_s", "s"), ("poly.mul_terms", "count"),
    ("weyl.mul_calls", "count"), ("weyl.mul_s", "s"), ("weyl.mul_terms", "count"),
] + [(f"reps.classify_s.{n}-{m}", "s") for n, m in workloads.REDISCOVERY_PAIRS] + [
    ("beta.solve_calls", "count"), ("beta.solve_distinct_ratio", "ratio"),
    ("beta.solve_unknowns", "count"), ("beta.solve_s", "s"), ("beta.solve_p50_ms", "ms"),
    ("beta.solve_max_ms", "ms"), ("interaction.reduce_calls", "count"),
    ("interaction.reduce_s", "s"), ("cli.import_s", "s"), ("trace.overhead", "ratio"),
]
PER_LAYER = LAYER_METRICS + NAMED_METRICS
END_TO_END = [("pass_s", "s"), ("task_p50_ms", "ms"), ("task_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB")]


class SetupError(RuntimeError):
    """The library cannot be imported or run here; no result is printed."""


# -- children -----------------------------------------------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                    else "")
    env["PYTHONHASHSEED"] = "0"  # same set/dict order, hence same work, every run
    return env


def _spawn(cmd):
    """Run one child to completion; returns (wall seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(1.0, STARTED + RUN_DEADLINE_S - t0))
    return time.perf_counter() - t0, proc


def _child(req):
    wall, proc = _spawn([sys.executable, str(HERE / "child.py"), json.dumps(req)])
    if proc.returncode != 0:
        raise SetupError(f"child {req['mode']} failed ({proc.returncode}):\n{proc.stderr}")
    return wall, proc


def _cli(argv, trace_path=None):
    if trace_path is None:
        return _spawn([sys.executable, "-m", "galilei.cli", *argv])
    req = {"mode": "cli", "argv": argv, "trace_path": str(trace_path)}
    return _spawn([sys.executable, str(HERE / "child.py"), json.dumps(req)])


# -- one pass -----------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    task_ms: list  # timed tasks
    outs: list  # one checked output per task (per pair for rediscovery)
    failures: list
    trace: dict | None = None
    post_s: float = 0.0  # traced child's time spent writing and summarising spans
    pair_ms: list = field(default_factory=list)
    known_defects: int = 0


def run_pass(workload, tasks, refs, smoke, trace_path=None):
    if workload == "verbs":
        return _verbs_pass(tasks, refs, trace_path)
    req = {"mode": "pass", "workload": workload, "tasks": tasks,
           "trace_path": str(trace_path) if trace_path else None}
    if smoke and workload == "appendix":
        req["cells"] = SMOKE_CELLS
    wall, proc = _child(req)
    res = json.loads(proc.stdout)
    outs = [t["out"] for t in res["tasks"]]
    # one entry per failed output, however many of its checks failed
    failures = ["; ".join(bad) for t, out in zip(tasks, outs)
                if (bad := CHECKS[workload](t, out, refs, smoke))]
    trace = res["trace"]
    task_ms = [t["ms"] for t in res["tasks"]]
    result = Pass(wall, task_ms, outs, failures, trace, trace["post_s"] if trace else 0.0)
    if workload == "rediscovery":
        # the seven classify calls of a pass are one task: most pairs take
        # milliseconds, so per-pair percentiles would time noise
        result.task_ms, result.pair_ms = [sum(task_ms)], task_ms
    if workload == "reduction":
        result.known_defects = sum(1 for t, out in zip(tasks, outs)
                                   if workloads.split_defect(t) and not out["residual_zero"])
    return result


SMOKE_CELLS = 3


def _check_appendix(_, out, refs, smoke):
    ref = refs["appendix"]
    if smoke:
        return [] if out["cells"] == ref["cells"][:SMOKE_CELLS] else ["appendix cells differ"]
    s = out["summary"]
    bad = []
    if (s["cells"], s["span_matches"], len(s["amended_cells"]), s["all_ok"]) != (67, 56, 11, True):
        bad.append(f"appendix summary {s}")
    if out["sha256"] != ref["sha256"]:
        bad.append("appendix --table all report is not byte-identical to the reference")
    return bad


def _check_rediscovery(pair, out, refs, smoke):
    key = f"{pair[0]}-{pair[1]}"
    if out["found"] == out["table1"] == refs["rediscovery"][key]:
        return []
    return [f"classify {key}: found {out['found']}, Table 1 has {out['table1']}"]


def _check_reduction(t, out, refs, smoke):
    bad = []
    if not out["g_ok"]:
        bad.append(f"reduce {t['system']} {t['coupling']}: g = {out['g']}, "
                   f"expected {t['expect_g']}")
    if t["system"] == "levy_leblond" and not out["residual_zero"] \
            and not workloads.split_defect(t):
        bad.append(f"reduce {t['system']} {t['coupling']}: nonzero spinor residual")
    return bad


CHECKS = {"appendix": _check_appendix, "rediscovery": _check_rediscovery,
          "reduction": _check_reduction}


def _verbs_pass(tasks, refs, trace_path):
    walls, outs, failures, summaries, post = [], [], [], [], 0.0
    for k, argv in enumerate(tasks):
        path = trace_path.with_name(f"{trace_path.name}.{k}") if trace_path else None
        wall, proc = _cli(argv, path)
        walls.append(wall)
        outs.append([proc.returncode, proc.stdout])
        bad = _check_verb(argv, proc, refs["verbs"])
        if bad:
            failures.append("; ".join(bad))
        if path is not None:
            summary_file = Path(str(path) + ".summary.json")
            if summary_file.exists():
                summaries.append(json.loads(summary_file.read_text()))
                post += summaries[-1]["post_s"]
            else:
                failures.append(f"{' '.join(argv)}: traced child wrote no summary")
    trace = merge_traces(summaries) if trace_path else None
    return Pass(sum(walls), [w * 1e3 for w in walls], outs, failures, trace, post)


def _check_verb(argv, proc, ref):
    name = " ".join(argv)
    if proc.returncode != 0:
        return [f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return [f"{name}: stdout is not JSON"]
    verb = out.get("verb")
    ok = {
        "spin": lambda: out["two_route_equal"] is True,
        "covariance": lambda: out["ok"] is True,
        "proca": lambda: (out["contraction_identity"] and out["det_is_lam_m3_c2_3"]
                          and out["rest_frame_dimension"] == 3),
        "contract-dkp": lambda: out["main_ok"] and out["aux_ok"],
        "verify-rep": lambda: (out["ok"] is True and out["violations"] == []
                               and out["dim"] == sum(workloads.LABEL_DIM[lab] for lab in
                                                     argv[argv.index("--rep") + 1].split("+"))),
        "reduce": lambda: out["residual_zero"] or out["system"] != "levy_leblond",
        "catalog": lambda: out["name"] == argv[argv.index("--name") + 1],
        "solve-beta": lambda: out["dim"] == len(out["basis"]),
    }.get(verb)
    bad = []
    if ok is None or not ok():
        bad.append(f"{name}: verdict fields wrong: {proc.stdout[:300]}")
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    if name in ref and ref[name] != digest:
        bad.append(f"{name}: stdout differs from the reference")
    return bad


# -- trace summaries ----------------------------------------------------------------


def merge_traces(summaries):
    out = {"layers": {}, "named": {}, "solves": [], "scalar_ops": 0, "scalar_new": 0,
           "spans": 0}
    for s in summaries:
        for group in ("layers", "named"):
            for k, vals in s[group].items():
                acc = out[group].setdefault(k, [0] * len(vals))
                out[group][k] = [a + b for a, b in zip(acc, vals)]
        out["solves"] += s["solves"]
        for k in ("scalar_ops", "scalar_new", "spans"):
            out[k] += s[k]
    return out


def layer_metrics(traced, untraced, probes, workload, tasks):
    """Per-layer numbers, per traced pass."""
    n = len(traced)
    merged = merge_traces([p.trace for p in traced])
    m = {}
    for layer_kind, _ in LAYER_METRICS:
        layer, kind = layer_kind.split(".")
        calls, total_ns, self_ns = merged["layers"].get(layer, [0, 0, 0])
        m[layer_kind] = {"calls": calls / n, "total_s": total_ns / n / 1e9,
                         "self_s": self_ns / n / 1e9}[kind]
    named = merged["named"]

    def nm(key):
        return named.get(key, [0, 0, 0])

    m["scalars.ops"] = merged["scalar_ops"] / n
    m["scalars.new"] = merged["scalar_new"] / n
    for op in ("mul", "add", "inverse"):
        m[f"scalars.{op}_ns"] = statistics.median(p[f"{op}_ns"] for p in probes)
    for prefix, key, size in (("matrix.matmul", tracer.MATMUL, None),
                              ("matrix.rref", tracer.RREF, "matrix.rref_cells"),
                              ("poly.mul", tracer.POLY_MUL, "poly.mul_terms"),
                              ("weyl.mul", tracer.WEYL_MUL, "weyl.mul_terms"),
                              ("interaction.reduce", tracer.REDUCE, None)):
        calls, ns, work = nm(key)
        m[f"{prefix}_calls"] = calls / n
        m[f"{prefix}_s"] = ns / n / 1e9
        if size:
            m[size] = work / n
    m["matrix.det_s"] = nm(tracer.DET)[1] / n / 1e9
    for pair in workloads.REDISCOVERY_PAIRS:
        key = f"{pair[0]}-{pair[1]}"
        times = [p.pair_ms[tasks.index(list(pair))] / 1e3 for p in traced
                 if workload == "rediscovery" and list(pair) in tasks]
        m[f"reps.classify_s.{key}"] = statistics.mean(times) if times else 0.0
    solves = [(k, s) for k, p in enumerate(traced) for s in p.trace["solves"]]
    durs = sorted(s[1] / 1e6 for _, s in solves)
    m["beta.solve_calls"] = len(solves) / n
    m["beta.solve_distinct_ratio"] = (len({(k, s[0]) for k, s in solves}) / len(solves)
                                      if solves else 0.0)
    m["beta.solve_unknowns"] = sum(s[2] for _, s in solves) / n
    m["beta.solve_s"] = sum(durs) / 1e3 / n
    m["beta.solve_p50_ms"] = percentile(durs, 50) if durs else 0.0
    m["beta.solve_max_ms"] = durs[-1] if durs else 0.0
    m["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    m["trace.overhead"] = (sum(p.wall_s - p.post_s for p in traced)
                           / sum(p.wall_s for p in untraced))
    return m


# -- statistics and the run record --------------------------------------------------


def tail_rank(n, q):
    """1-based rank of the q-th percentile: the smallest sample with more than
    q% of the n samples at or below it (the higher middle sample for q = 50).
    Host contention here comes as occasional fast stretches, so of two middle
    samples the higher one is the more repeatable."""
    return min(n, math.floor(q / 100 * n) + 1)


def percentile(sorted_values, q):
    return sorted_values[tail_rank(len(sorted_values), q) - 1]


def run_record(args, passes, setup, tail, attempted, failures):
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "galilei").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "loadavg_start": LOADAVG_START, "commit": commit, "src_sha256": digest.hexdigest(),
        # host steal during the run: a slow outlier with high steal is the host's doing
        "steal_s": None if STEAL_START is None else _steal_s() - STEAL_START,
        "passes": len(passes), "pass_s": [p.wall_s for p in passes],
        "setup_s": setup, "checked_outputs": attempted,
        "error_rate": len(failures) / attempted,
        "task_tail": tail,
        "known_defects": {"reduce_spinor_split": sum(p.known_defects for p in passes)},
        "failures": failures[:20],
        "concurrency": "closed loop, 1 client; no layer waits, so no wait time is reported",
    }


def _steal_s():
    """CPU time the host took from this VM so far (all vCPUs), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


LOADAVG_START = list(os.getloadavg())
STEAL_START = _steal_s()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few tasks per workload")
    args = ap.parse_args(argv)
    try:
        return _run(args)
    except (SetupError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2


def _run(args):
    if not (SRC / "galilei" / "__init__.py").is_file():
        raise SetupError(f"no library source at {SRC / 'galilei'}")
    refs = {name: json.loads((REF / f"{name}.json").read_text())
            for name in ("appendix", "rediscovery", "verbs")}
    t0 = time.perf_counter()
    tasks = workloads.make_tasks(args.workload, args.seed, args.smoke)
    make_s = time.perf_counter() - t0
    setup = []
    if not args.trace:
        for _ in range(2 if args.smoke else SETUP_REPEATS):
            req = {"mode": "setup", "workload": args.workload, "tasks": tasks}
            setup.append(_child(req)[0] + make_s)
    probes = []
    if args.trace:
        for _ in range(PROBE_REPEATS):
            probes.append(json.loads(_child({"mode": "probe"})[1].stdout))
        shutil.rmtree(OUT / args.workload, ignore_errors=True)
        (OUT / args.workload).mkdir(parents=True)

    untraced, traced, mismatch = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(args.workload, tasks, refs, args.smoke))
        rounds = [untraced]
        if args.trace:
            path = OUT / args.workload / f"spans.{len(traced)}"
            traced.append(run_pass(args.workload, tasks, refs, args.smoke, path))
            rounds.append(traced)
            if traced[-1].outs != untraced[-1].outs:
                mismatch.append(f"traced pass {len(traced)} output differs from untraced")
        per_round = statistics.median(sum(r[k].wall_s for r in rounds)
                                      for k in range(len(untraced)))
        if time.perf_counter() - start + per_round / 2 >= args.seconds:
            break

    passes = untraced + traced
    task_ms = sorted(ms for p in untraced for ms in p.task_ms)
    q = workloads.TAIL_PERCENTILE[args.workload]
    tail = {"percentile": q, "samples": len(task_ms),
            "beyond": len(task_ms) - tail_rank(len(task_ms), q)}
    if args.trace:
        metrics = layer_metrics(traced, untraced, probes, args.workload, tasks)
        units = PER_LAYER
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {"pass_s": statistics.median_high(p.wall_s for p in untraced),
                   "task_p50_ms": percentile(task_ms, 50),
                   "task_tail_ms": percentile(task_ms, q),
                   "setup_s": statistics.median_high(setup), "peak_rss_mib": rss_kib / 1024}
        units = END_TO_END
    failures = mismatch + [f for p in passes for f in p.failures]
    attempted = sum(len(p.outs) for p in passes)
    print(json.dumps({"run": run_record(args, passes, setup, tail, attempted, failures)}))
    failed = len(failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
