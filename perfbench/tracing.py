"""Outside-in layer tracing for the covineq benchmark.

Every span is recorded by a wrapper that replaces a public covineq function
at the place where its callers look it up.  Several modules bind names at
import time (``runner.isoperimetric_constant``, ``runner.to_csv``,
``inequalities.isoperimetric_value``, the package-level re-exports), so each
of those import sites is wrapped on its own; ``SITES`` is the full list and
``Tracer.coverage`` reports which sites never fired, so that a later import
change cannot silently zero a layer.

Self time is a span's duration minus the time covered by its direct child
spans.  The self-time metrics below partition every span under a pass, so
they add up to the traced pass time.

Known gap in the primitive counts: ``Measure.expectation``, ``lp_norm``,
``integration_domain``, ``probe_points`` and ``isoperimetry._tail_diverges``
call ``m.dist`` directly and never go through the ``Measure`` methods, so
``measures.*`` undercounts them (on ``verify_default``: 829 of 37,969 pdf
calls, 741 of 16,869 ppf calls and all 908 isf calls).  Their time lands in the self time of the
enclosing span.  Wrapping scipy's frozen distributions would close the gap
but would measure scipy, not covineq.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

import covineq
from covineq import (config, functions, inequalities, isoperimetry, kernel,
                     measures, quadrature, runner, search)
from covineq.errors import IntegrationError

CHECK_NAMES = tuple(sorted(config.CHECKS))

# The 14 check_* functions live in inequalities; hardy lives in kernel.
_CHECK_SITES = [
    (kernel, "hardy_certificate", "inequalities.hardy")
    if name == "hardy"
    else (inequalities, f"check_{name}", f"inequalities.{name}")
    for name in CHECK_NAMES
]

# (owner, attribute, span name): every place a traced function is looked up.
SITES = [
    (measures.Measure, "pdf", "measures.pdf"),
    (measures.Measure, "quantile", "measures.quantile"),
    (measures.Measure, "cdf", "measures.cdf_sf"),
    (measures.Measure, "sf", "measures.cdf_sf"),
    (quadrature, "integrate", "quadrature.integrate"),
    (quadrature, "cumulative", "quadrature.cumulative"),
    (quadrature.CumulativeIntegral, "left", "quadrature.query"),
    (quadrature.CumulativeIntegral, "right", "quadrature.query"),
    (isoperimetry, "isoperimetric_constant", "isoperimetry.constant"),
    (runner, "isoperimetric_constant", "isoperimetry.constant"),
    (covineq, "isoperimetric_constant", "isoperimetry.constant"),
    (inequalities, "isoperimetric_value", "isoperimetry.value"),
    (search, "golden_min", "search.golden"),
    (search, "golden_max", "search.golden"),
    (kernel, "covariance_kernel", "kernel.covariance"),
    (kernel, "t_transform", "kernel.t_transform"),
    (kernel, "t_norm", "kernel.t_norm"),
    (functions, "centered", "functions.centered"),
    *_CHECK_SITES,
    (inequalities, "orlicz_norm", "inequalities.orlicz_norm"),
    (inequalities, "estimate_best_constant", "inequalities.estimate_best_constant"),
    (inequalities, "sharpness_sweep", "inequalities.sharpness_sweep"),
    (runner, "run", "runner.run"),
    (runner, "to_csv", "certificates.serialize"),
    (config, "parse_config", "config.parse"),
]


def site_label(owner, attr) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__name__}.{attr}"
    return f"{owner.__name__}.{attr}"


# Self-time metrics and the span names they cover; together they partition
# all spans under a pass ("bench.pass" is the benchmark's own loop).
SELF_GROUPS = {
    "measures.pdf.self_s": ("measures.pdf",),
    "measures.quantile.self_s": ("measures.quantile",),
    "measures.cdf_sf.self_s": ("measures.cdf_sf",),
    "quadrature.self_s": ("quadrature.integrate", "quadrature.cumulative",
                          "quadrature.query"),
    "isoperimetry.self_s": ("isoperimetry.constant", "isoperimetry.value"),
    "search.golden.self_s": ("search.golden",),
    "kernel.covariance.self_s": ("kernel.covariance",),
    "kernel.t_transform.self_s": ("kernel.t_transform",),
    "kernel.t_norm.self_s": ("kernel.t_norm",),
    "functions.centered.self_s": ("functions.centered",),
    "inequalities.orlicz_norm.self_s": ("inequalities.orlicz_norm",),
    "inequalities.self_s": tuple(f"inequalities.{n}" for n in CHECK_NAMES)
    + ("inequalities.estimate_best_constant", "inequalities.sharpness_sweep"),
    "runner.run.self_s": ("runner.run",),
    "certificates.serialize_s": ("certificates.serialize",),
    "trace.loop_self_s": ("bench.pass",),
}

_POINTS = {"measures.pdf", "measures.quantile", "quadrature.query"}
_INTEGRATORS = {"quadrature.integrate", "quadrature.cumulative"}


class Tracer:
    """Span stack plus per-pass counters; ``install`` patches every site."""

    def __init__(self):
        self._saved = []
        self._stack = []  # frames: [name, start, time covered by children]
        self.sites = Counter()  # calls per wrapped site, over the whole run
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counts = Counter()
        self._distinct = defaultdict(set)
        self._held = []  # keeps keyed objects alive so ids stay unique

    # ---- patching ---------------------------------------------------------

    def install(self):
        for owner, attr, name in SITES:
            original = owner.__dict__.get(attr)
            if original is None:
                continue  # a site that is gone never fires; coverage reports it
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, site_label(owner, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, site):
        stack, tracer = self._stack, self

        def traced(*args, **kwargs):
            tracer.sites[site] += 1
            if name in _INTEGRATORS:
                args = (tracer._count_integrand(args[0]),) + args[1:]
                if any(f[0] == "inequalities.orlicz_norm" for f in stack):
                    tracer.counts["inequalities.orlicz_norm.quadratures"] += 1
            elif name in _POINTS:
                tracer.counts[name + ".points"] += int(np.size(args[1]))
            elif name == "isoperimetry.constant":
                tracer._key("isoperimetry", args[0])
            elif name == "functions.centered":
                tracer._key("functions.centered", args[0], args[1])
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except IntegrationError:
                if name in _INTEGRATORS:
                    tracer.counts["quadrature.errors"] += 1
                raise
            finally:
                tracer._close(frame)

        return traced

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        st = self.stats[frame[0]]
        st[2] += dur - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        # golden_max calls golden_min: count the outer call only
        if parent is None or parent[0] != frame[0]:
            st[0] += 1
            st[1] += dur

    def _count_integrand(self, f):
        counts = self.counts

        def counted(x):
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.integrand_points"] += int(np.size(x))
            return f(x)

        return counted

    def _key(self, kind, *objs):
        self._held.append(objs)
        self._distinct[kind].add(tuple(id(o) for o in objs))

    # ---- passes -----------------------------------------------------------

    def timed_pass(self, body):
        """Run ``body()`` inside the root span; returns (result, seconds)."""
        frame = ["bench.pass", time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return body(), time.perf_counter() - frame[1]
        finally:
            self._close(frame)

    def snapshot(self, extra_counts) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        st, c = self.stats, self.counts
        calls = {n: v[0] for n, v in st.items()}
        busy = {n: v[1] for n, v in st.items()}

        def ratio(kind, n_calls):
            return len(self._distinct[kind]) / n_calls if n_calls else 1.0

        out = {
            "measures.pdf.calls": calls.get("measures.pdf", 0),
            "measures.pdf.points": c["measures.pdf.points"],
            "measures.quantile.calls": calls.get("measures.quantile", 0),
            "measures.quantile.points": c["measures.quantile.points"],
            "measures.cdf_sf.calls": calls.get("measures.cdf_sf", 0),
            "quadrature.integrate.calls": calls.get("quadrature.integrate", 0),
            "quadrature.cumulative.calls": calls.get("quadrature.cumulative", 0),
            "quadrature.integrand_calls": c["quadrature.integrand_calls"],
            "quadrature.integrand_points": c["quadrature.integrand_points"],
            "quadrature.query_points": c["quadrature.query.points"],
            "quadrature.errors": c["quadrature.errors"],
            "isoperimetry.calls": calls.get("isoperimetry.constant", 0),
            "isoperimetry.distinct_measures": len(self._distinct["isoperimetry"]),
            "isoperimetry.useful_ratio": ratio(
                "isoperimetry", calls.get("isoperimetry.constant", 0)),
            "search.golden.calls": calls.get("search.golden", 0),
            "kernel.covariance.calls": calls.get("kernel.covariance", 0),
            "kernel.t_transform.calls": calls.get("kernel.t_transform", 0),
            "kernel.t_norm.calls": calls.get("kernel.t_norm", 0),
            "functions.centered.calls": calls.get("functions.centered", 0),
            "functions.centered.useful_ratio": ratio(
                "functions.centered", calls.get("functions.centered", 0)),
            "inequalities.orlicz_norm.calls": calls.get("inequalities.orlicz_norm", 0),
            "inequalities.orlicz_norm.quadratures":
                c["inequalities.orlicz_norm.quadratures"],
            "inequalities.estimate_best_constant.busy_s":
                busy.get("inequalities.estimate_best_constant", 0.0),
            "inequalities.sharpness_sweep.busy_s":
                busy.get("inequalities.sharpness_sweep", 0.0),
            "config.parse_s": busy.get("config.parse", 0.0),
        }
        for name in CHECK_NAMES:
            out[f"inequalities.{name}.calls"] = calls.get(f"inequalities.{name}", 0)
            out[f"inequalities.{name}.busy_s"] = busy.get(f"inequalities.{name}", 0.0)
        for metric, names in SELF_GROUPS.items():
            out[metric] = sum(st[n][2] for n in names if n in st)
        out["trace.self_sum_s"] = sum(out[metric] for metric in SELF_GROUPS)
        out.update(extra_counts)
        return out

    def coverage(self, expected) -> list[str]:
        """Expected sites that never fired."""
        return sorted(s for s in expected if self.sites[s] == 0)
