"""covineq benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload {verify_default,iso_sweep,extremal} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding ``src/``).
Each workload runs in a fresh single-threaded interpreter (BLAS and OpenMP
pinned to one thread, no pool) as a closed loop: one caller that waits for
every answer before asking again.  Set-up is timed in SETUP_SAMPLES extra
fresh interpreters as well as in the measuring one, and reported as the
median.  End-to-end times are scaled to a nominal machine speed (see
``end_to_end``).  Human-readable lines come first; the last line of stdout
is the JSON result.  With ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify_default", "iso_sweep", "extremal")
SETUP_SAMPLES = 2  # fresh interpreters that only set up, plus the measuring one
CHILD_TIMEOUT_S = 150.0
# worker.reference_s() on the machine of the baseline
# (2-vCPU shared VM).  End-to-end times are scaled by REF_NOMINAL_S over the
# reference time measured next to them; see end_to_end.
REF_NOMINAL_S = 0.009
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def _child_env(root: Path) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn(args, env, mode):
    """Start a worker; return (seconds until READY, its last stdout line, parsed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), mode]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or first.strip() != "READY":
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1])


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def speed_factors(res):
    """Per item, REF_NOMINAL_S over the mean reference time around it.

    The samples averaged are those taken during the item and the nearest one
    on either side (there is always one: after set-up and after each pass).
    """
    at = [t for t, _, _ in res["ref_samples"]]
    ref = [r for _, r, _ in res["ref_samples"]]
    factors = []
    for _, start, end, _ in res["timings"]:
        lo = bisect.bisect_left(at, start) - 1
        hi = bisect.bisect_right(at, end) + 1
        factors.append(REF_NOMINAL_S / statistics.fmean(ref[lo:hi]))
    return factors


def pass_and_item_times(res, scale=True):
    """Pass times (sum of item latencies) and every item latency, in s."""
    factors = speed_factors(res) if scale else [1.0] * len(res["timings"])
    passes, items = {}, []
    for (pass_no, _, _, lat), f in zip(res["timings"], factors):
        passes[pass_no] = passes.get(pass_no, 0.0) + lat * f
        items.append(lat * f)
    return list(passes.values()), np.asarray(items)


def end_to_end(res, setups):
    """End-to-end metrics, every time scaled to the nominal machine speed.

    The shared machine's speed drifts by 10-35% within a minute, for the
    workloads and a fixed reference task alike, so raw times of runs a few
    minutes apart differ more than any bound worth setting.  Each time is
    multiplied by REF_NOMINAL_S over the reference time measured around it:
    during and next to each item (see speed_factors), or right after set-up
    in the same interpreter.  The unscaled times are printed as
    comments.
    """
    passes, lat_s = pass_and_item_times(res)
    lat_ms = lat_s * 1000.0
    setup = [ready_s * REF_NOMINAL_S / ref_s for ready_s, ref_s in setups]
    p50, p90 = np.percentile(lat_ms, [50, 90])
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "pass_s": _metric(statistics.median(passes), "s"),
        "item_ms_p50": _metric(p50, "ms"),
        "item_ms_p90": _metric(p90, "ms"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        "ops_ok_frac": _metric(1.0 - res["failed"] / res["attempted"], "ratio"),
    }
    samples = {
        "setup_s": len(setups), "pass_s": len(res["passes"]),
        "item_ms_p50": len(lat_ms), "item_ms_p90": len(lat_ms),
        "peak_rss_mb": 1, "ops_ok_frac": res["attempted"],
    }
    return metrics, samples


def per_layer(res):
    layers = res["layers"]
    metrics = {}
    for key in layers[0]:
        unit = "s" if key.endswith("_s") else (
            "ratio" if key.endswith("ratio") else "count")
        metrics[key] = _metric(statistics.fmean(lay[key] for lay in layers), unit)
    traced = statistics.median(res["traced_passes"])
    # the first pass runs cold; compare warm passes when there are any
    untraced = statistics.median(res["passes"][1:] or res["passes"])
    metrics.update({
        "trace.pass_s": _metric(traced, "s"),
        "trace.untraced_pass_s": _metric(untraced, "s"),
        "trace.overhead_ratio": _metric(traced / untraced, "ratio"),
    })
    samples = {k: len(layers) for k in metrics}
    samples["trace.untraced_pass_s"] = max(len(res["passes"]) - 1, 1)
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "covineq" / "__init__.py").is_file():
        print(f"no covineq source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = _child_env(root)
    setups = []
    for _ in range(SETUP_SAMPLES):
        ready_s, out = _spawn(args, env, "setup")
        setups.append((ready_s, out["ref_s"]))
    ready_s, res = _spawn(args, env, "measure")
    setups.append((ready_s, res["ref_samples"][0][1]))

    if args.trace:
        metrics, samples = per_layer(res)
    else:
        metrics, samples = end_to_end(res, setups)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} env={json.dumps(res['env'], sort_keys=True)}")
    print(f"# attempted={res['attempted']} failed={res['failed']} "
          f"ops_failed_frac={res['failed'] / res['attempted']:.6f} "
          f"known_defects={json.dumps(res['known_defects'], sort_keys=True)}")
    if not args.trace:
        raw_passes, raw_s = pass_and_item_times(res, scale=False)
        raw_ms = raw_s * 1000.0
        speed = speed_factors(res)
        print(f"# unscaled: setup_s={statistics.median(r for r, _ in setups):.6g} "
              f"pass_s={statistics.median(raw_passes):.6g} "
              f"item_ms_p50={np.percentile(raw_ms, 50):.6g} "
              f"item_ms_p90={np.percentile(raw_ms, 90):.6g}; speed factor "
              f"median={statistics.median(speed):.4g} min={min(speed):.4g} "
              f"max={max(speed):.4g}")
    for digest in res["report_sha256"]:
        print(f"# report_sha256={digest}")
    for site, calls in res["sites"].items():
        print(f"# site {site} calls={calls}")
    for problem in res["problems"]:
        print(f"# PROBLEM {problem}")
    for key, m in metrics.items():
        print(f"{key:45s} {m['value']:.6g} {m['unit']} (n={samples[key]})")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
