"""One workload in one fresh, single-threaded interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE {setup,measure}

Imports covineq, generates the seeded inputs, builds the first block and
prints ``READY``; the parent times that as set-up.  In ``measure`` mode it
then runs ``workloads.passes(WORKLOAD, SECONDS)`` closed-loop passes, one
block each (about SECONDS of work on the nominal machine), judges every
answer after its pass, and prints one JSON line with the raw samples.  The
reference task is timed after set-up, after every pass and, from a timer
signal, every REF_EVERY_S during untraced passes; its time is kept out of
the item latencies, and an untraced pass's time is their sum (run.py says
what the reference times are for).  A set-up-only worker prints its one
reference time.  With
TRACE=1 untraced and traced passes alternate after the cold first pass,
which gives the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter

import numpy as np
import scipy
from scipy import special

import workloads
from tracing import Tracer

_MAX_WRONG_SHOWN = 5
# Measuring stops early only past this, so a run ends well inside 180 s.
MAX_MEASURE_FACTOR = 4.0
MAX_MEASURE_S = 120.0

# The reference task: fixed covineq-free scipy work, timed REF_REPEATS times
# after set-up, after every pass and, during untraced passes, every
# REF_EVERY_S from a timer signal, to track how fast the shared machine runs.
_REF_X = np.linspace(1e-3, 1.0 - 1e-3, 20000)
REF_REPEATS = 5
REF_EVERY_S = 1.0


def _reference_task():
    for _ in range(5):
        special.ndtri(_REF_X)
        special.betaincinv(2.0, 3.0, _REF_X[:2000])


def reference_s() -> float:
    """Median time of the reference task, now."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class RefSampler:
    """Times the reference task on demand and, once started, every REF_EVERY_S.

    The timed samples run from a SIGALRM handler, which Python calls in the
    main thread between two bytecodes of the code being measured, so even a
    pass that is one long item gets samples from inside it.  A sample lies
    wholly before or after any ``perf_counter()`` call of the measured code,
    so _run_block can take exactly the samples inside an item out of its
    latency.
    """

    def __init__(self):
        # [perf_counter at the sample's middle, reference time, sample's duration]
        self.samples = []

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        ref = reference_s()
        t1 = time.perf_counter()
        self.samples.append([(t0 + t1) / 2.0, ref, t1 - t0])

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def _run_block(block, sampler):
    """Call every item in turn; return ([start, end, latency] per item, answers).

    With a sampler, it samples the reference task every REF_EVERY_S during
    the block; a latency is the item's wall time less the time those samples
    took.
    """
    timings, answers = [], []
    if sampler is not None:
        sampler.start()
    try:
        for item in block:
            n_samples = len(sampler.samples) if sampler is not None else 0
            t0 = time.perf_counter()
            try:
                answer, exc = item.call(), None
            except Exception as e:  # noqa: BLE001 - every failure is judged and counted
                answer, exc = None, e
            t1 = time.perf_counter()
            spent = 0.0 if sampler is None else sum(
                d for mid, _, d in sampler.samples[n_samples:] if t0 < mid < t1)
            timings.append([t0, t1, t1 - t0 - spent])
            answers.append((answer, exc))
    finally:
        if sampler is not None:
            sampler.stop()
    return timings, answers


def main(argv) -> int:
    name, seed, seconds, trace, mode = argv
    blocks = workloads.WORKLOADS[name](np.random.default_rng(int(seed)))
    block = next(blocks)
    print("READY", flush=True)
    sampler = RefSampler()
    sampler.sample()
    if mode == "setup":
        print(json.dumps({"ref_s": sampler.samples[0][1]}), flush=True)
        return 0

    tracer = Tracer() if trace == "1" else None
    passes, traced_passes = [], []
    timings = []  # [pass number, start, end, latency] per item
    layers, digests = [], set()
    outcomes, known, wrong = Counter(), Counter(), []
    refs = {}
    n_passes = workloads.passes(name, float(seconds))
    budget_s = min(MAX_MEASURE_FACTOR * float(seconds), MAX_MEASURE_S)
    start = time.perf_counter()
    traced = False
    for pass_no in range(n_passes):
        if pass_no:
            # traced and untraced passes alternate after the cold first pass
            traced = tracer is not None and not traced
            if traced:
                tracer.reset()
                tracer.install()
            block = next(blocks)
        if traced:
            (times, answers), dt = tracer.timed_pass(lambda: _run_block(block, None))
            tracer.uninstall()
            traced_passes.append(dt)
            extra = Counter({"runner.cells": 0, "runner.cells_error": 0})
            for item, (answer, _) in zip(block, answers):
                extra.update(item.counts(answer))
            layers.append(tracer.snapshot(extra))
        else:
            times, answers = _run_block(block, sampler)
            passes.append(sum(lat for _, _, lat in times))
        timings.extend([pass_no, *t] for t in times)
        for item, (answer, exc) in zip(block, answers):
            verdict, detail = item.judge(answer, exc, refs)
            outcomes[verdict] += 1
            if verdict == "known":
                known[detail] += 1
            elif verdict == "wrong" and len(wrong) < _MAX_WRONG_SHOWN:
                wrong.append(detail)
            if item.kind == "verify" and answer is not None:
                digests.add(answer[2])
        sampler.sample()
        # on a machine far slower than the nominal one, stop in time rather
        # than be killed; the shortened run then reports fewer attempts
        typical = statistics.median(passes + traced_passes)
        if (time.perf_counter() - start + typical > budget_s
                and (tracer is None or traced_passes)):
            break

    problems = list(wrong)
    if len(digests) > 1:
        problems.append(f"verify report differs between passes: {len(digests)} digests")
    if tracer is not None:
        missing = tracer.coverage(workloads.EXPECTED_SITES[name])
        if missing:
            problems.append(f"traced sites never fired: {missing}")
        if name == "verify_default":
            counts = {json.dumps({k: v for k, v in lay.items()
                                  if not k.endswith("_s")}, sort_keys=True)
                      for lay in layers}
            if len(counts) > 1:
                problems.append("traced verify passes disagree on counts")

    result = {
        "passes": passes,
        "traced_passes": traced_passes,
        "timings": timings,
        "ref_samples": sampler.samples,
        "attempted": sum(outcomes.values()),
        "failed": outcomes["known"] + outcomes["wrong"],
        "known_defects": dict(known),
        "report_sha256": sorted(digests),
        "sites": dict(sorted(tracer.sites.items())) if tracer is not None else {},
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
