"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs the benchmark command from BENCHMARK.json once per workload and seed,
one run at a time, with tracing off.  For every end-to-end metric it prints
the median of the runs and the spread, the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound.  Run it from the checkout
root.  ``--out`` saves the raw values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    raw, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        raw[workload] = runs
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3.0
            ok &= steady
            print(f"  {metric['name']:14s} median={med:.6g} spread={spread:.4f} "
                  f"bound/3={metric['bound'] / 3.0:.4f} {'ok' if steady else 'WIDE'}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
