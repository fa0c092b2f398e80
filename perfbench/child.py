"""One pass of a workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/child.py '<request JSON>'

The request names a mode:

- ``setup``: import the workload's modules and decode its inputs, nothing else.
- ``pass``: run the task list, timing each task, and print one JSON object
  ``{"tasks": [{"ms": ..., "out": ...}, ...], "trace": ...}`` on stdout.
  ``out`` is the task's checkable output; checks against the expected
  values happen after timing.
- ``cli``: run ``galilei.cli.main(argv)`` traced; stdout is the verb's own
  output and the trace summary goes to ``trace_path`` + ``.summary.json``.
- ``probe``: time ``import galilei.cli`` and the ``GRat`` microbenchmark.

With ``trace_path`` set, the tracer wraps the library after the imports and
before the first task, writes its spans to ``trace_path`` once at the end,
and adds its summary to the result.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from fractions import Fraction

WORKLOAD_MODULES = {
    "appendix": ("galilei.appendix",),
    "rediscovery": ("galilei.reps",),
    "reduction": ("galilei.interaction", "galilei.catalog", "galilei.reps"),
    "verbs": ("galilei.cli",),
}


def _import_all(workload):
    for name in WORKLOAD_MODULES[workload]:
        importlib.import_module(name)


# -- appendix ---------------------------------------------------------------------


def appendix_run(_):
    from galilei import appendix

    return appendix.reproduce_appendix()


def appendix_out(result, _):
    reports, summary = result
    # the same document `galilei appendix --table all` prints
    text = json.dumps({"schema": "galilei/1", "verb": "appendix", "summary": summary,
                       "cells": reports}, sort_keys=True, indent=1) + "\n"
    return {"summary": summary, "cells": reports,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


# -- rediscovery ------------------------------------------------------------------


def rediscovery_run(pair):
    from galilei import reps

    return reps.classify_bruteforce(pairs=[tuple(pair)])


def rediscovery_out(result, pair):
    from galilei import reps

    table1 = sorted(s for s in reps.table1_signatures() if (s[0], s[1]) == tuple(pair))
    return {"found": [list(s) for s in result], "table1": [list(s) for s in table1]}


# -- reduction --------------------------------------------------------------------


TAGS = ("fa0", "fa1", "fa2", "fa3")


def reduction_run(t):
    """make_setting -> couple -> reduce_coupled -> extract_g, wired as `galilei reduce` does.

    Every potential carries its own amplitude symbol so that the term
    dictionary separates the field structures; the symbols are set to 1
    in the returned g.
    """
    from galilei import catalog, interaction
    from galilei.poly import PolyRing
    from galilei.reps import PAULI, spin1_matrix
    from galilei.scalars import GRat
    from galilei.weyl import FieldConfig

    q = lambda s: GRat(Fraction(s))
    spinor = t["system"] == "levy_leblond"
    extra = ("lam1", "lam2") if spinor else ("lam1", "lam2", "nu")
    inv = ("m", "e") if spinor else ("m", "e", "nu")
    params, xring, alg = interaction.make_setting(extra_params=extra + TAGS, invertible=inv)
    xs = [xring.sym(f"x{k + 1}") for k in range(3)]

    def poly(terms):
        out = xring.zero
        for (a, b, c), coeff in terms:
            out = out + xs[0] ** a * xs[1] ** b * xs[2] ** c * q(coeff)
        return out

    half_h = q(t["h"]) * q("1/2")
    fa = [xring.sym(tag) for tag in TAGS]
    fc = FieldConfig(alg, poly(t["A0"]) * fa[0],
                     [xs[1] * (-half_h) * fa[1], xs[0] * half_h * fa[2], poly(t["A3"]) * fa[3]])
    if spinor:
        bs = catalog.levy_leblond()
        phys, sp = (0, 1), [s * q("1/2") for s in PAULI]
        lam = bs.beta0 * q(t["nu"]) + catalog.ll_lambda_generator() * q(t["mu"])
    else:
        bs = catalog.system_D311(ring=PolyRing(("nu",), invertible=("nu",)))
        phys, sp = (0, 1, 2), [spin1_matrix(a) for a in range(3)]
        lam = bs.beta0
    if t["coupling"] == "anomalous":
        co = interaction.couple_anomalous(bs, fc, lam, phys, sp)
        subs = {"lam1": alg.params.const(q(t["lam1"])), "lam2": alg.params.const(q(t["lam2"]))}
        co.matrix = co.matrix.map(lambda w: w.subs_params(subs))
    else:
        co = interaction.couple_minimal(bs, fc, phys, sp)
    report = interaction.reduce_coupled(co)
    g = interaction.extract_g(report, alg).subs({tag: GRat(1) for tag in TAGS})
    return g, report, alg


def reduction_out(result, t):
    from galilei.scalars import GRat

    g, report, alg = result
    exp = t["expect_g"]
    expected = alg.params.const(GRat(Fraction(exp["1"])))
    if exp["nu^-1"] != "0":
        expected = expected + alg.params.sym("nu", -1) * GRat(Fraction(exp["nu^-1"]))
    return {"g": str(g), "g_ok": g == expected, "residual_zero": report.residual.is_zero()}


# -- running a pass ---------------------------------------------------------------


RUNNERS = {"appendix": (appendix_run, appendix_out),
           "rediscovery": (rediscovery_run, rediscovery_out),
           "reduction": (reduction_run, reduction_out)}


def run_pass(req, tracer=None):
    run, out = RUNNERS[req["workload"]]
    if req["workload"] == "appendix" and req.get("cells") is not None:
        from galilei import appendix

        appendix.CELLS = appendix.CELLS[:req["cells"]]  # smoke mode: the first cells
    if tracer is not None:
        tracer.install()
    results = []
    clock = time.perf_counter_ns
    try:
        for task in req["tasks"]:
            t0 = clock()
            res = run(task)
            results.append((clock() - t0, res))
    finally:
        if tracer is not None:
            tracer.restore()
    return [{"ms": ns / 1e6, "out": out(res, task)}
            for (ns, res), task in zip(results, req["tasks"])]


def probe():
    t0 = time.perf_counter()
    import galilei.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    from galilei.scalars import GRat

    half = Fraction(1, 2)
    # integer, pure-imaginary and half-integer operands, as in carriers and spin matrices
    mix = [GRat(3), GRat(-7), GRat(0, 2), GRat(0, -5), GRat(half), GRat(Fraction(3, 2), -half)]
    pairs = [(a, b) for a in mix for b in mix]

    def per_op_ns(op, items, reps=400):
        best = []
        for _ in range(5):
            t = time.perf_counter_ns()
            for _ in range(reps):
                for x in items:
                    op(x)
            best.append((time.perf_counter_ns() - t) / (reps * len(items)))
        return sorted(best)[len(best) // 2]

    return {
        "import_s": import_s,
        "mul_ns": per_op_ns(lambda ab: ab[0] * ab[1], pairs),
        "add_ns": per_op_ns(lambda ab: ab[0] + ab[1], pairs),
        "inverse_ns": per_op_ns(lambda a: a.inverse(), mix, reps=2400),
    }


def main():
    req = json.loads(sys.argv[1])
    mode = req["mode"]
    if mode == "probe":
        print(json.dumps(probe()))
        return 0
    if mode == "setup":
        _import_all(req["workload"])
        return 0
    tracer = None
    if req.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
    if mode == "cli":  # always traced; untraced verbs run `python -m galilei.cli`
        from galilei import cli

        tracer.install()
        try:
            rc = cli.main(req["argv"])
        finally:
            tracer.restore()
        sys.stdout.flush()
        _finish_trace(tracer, req)
        return rc
    _import_all(req["workload"])
    tasks = run_pass(req, tracer)
    print(json.dumps({"tasks": tasks, "trace": _finish_trace(tracer, req)}))
    return 0


def _finish_trace(tracer, req):
    if tracer is None:
        return None
    t0 = time.perf_counter()
    tracer.write(req["trace_path"])
    summary = tracer.summary()
    summary["post_s"] = time.perf_counter() - t0
    if req["mode"] == "cli":
        with open(req["trace_path"] + ".summary.json", "w") as fh:
            json.dump(summary, fh)
    return summary


if __name__ == "__main__":
    sys.exit(main())
