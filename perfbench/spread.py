"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload reduction --seeds 11-20 [--seconds 28]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the bound BENCHMARK.json fixes for it.  A spread above a third of
its bound means the metric is not steady enough on this machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("11-20"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    values = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds",
                               str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stdout
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:14s} median {med:12.5g} {m['unit']:5s} spread {spread:.4f} "
              f"bound {m['bound']} {flag}")


if __name__ == "__main__":
    main()
