"""Capture the reference outputs the benchmark compares against.

    python3 perfbench/make_refs.py

Writes ``perfbench/ref/{appendix,rediscovery,verbs}.json`` from the CLI
of the library in ``src/``.  The checked-in files were captured at the
commit that introduced the benchmark; regenerate them only when an output
change is intended, never to make a failing check pass.

- appendix: the full ``appendix --table all`` document and its sha256.
- rediscovery: the Table-1 signatures found per (n, m) pair.
- verbs: sha256 of stdout for every verb of seed 0 (the default seed) and
  for every solve-beta pair the workload can draw, so seeded solves are
  byte-checked under any seed.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import workloads
from run import HERE, REF, ROOT, _env


def cli(argv):
    proc = subprocess.run([sys.executable, "-m", "galilei.cli", *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout


def main():
    REF.mkdir(exist_ok=True)
    text = cli(["appendix", "--table", "all"])
    doc = json.loads(text)
    _write("appendix", {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                        "summary": doc["summary"], "cells": doc["cells"]})

    pairs = {}
    for n, m in workloads.REDISCOVERY_PAIRS:
        out = json.loads(cli(["classify", "--pairs", f"{n},{m}"]))
        assert out["ok"], out
        pairs[f"{n}-{m}"] = out["found"]
    _write("rediscovery", pairs)

    cmds = [" ".join(a) for a in workloads.make_tasks("verbs", 0)]
    band = [(a, b) for a in workloads.LABELS for b in workloads.LABELS
            if workloads.SOLVE_BAND[0] <= workloads.unknowns(a, b) <= workloads.SOLVE_BAND[1]]
    cmds += [f"solve-beta --left {a} --right {b}" for a, b in workloads.SOLVE_FIXED + band]
    _write("verbs", {c: hashlib.sha256(cli(c.split(" ")).encode()).hexdigest()
                     for c in sorted(set(cmds))})


def _write(name, obj):
    path = REF / f"{name}.json"
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
