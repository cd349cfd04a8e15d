"""Seeded inputs, library calls and correctness gates of the three workloads.

A workload is an endless stream of blocks; one block is one timed pass, and
a run makes a fixed number of passes (``passes``), so every run attempts the
same number of items.  The seed draws the inputs and their order, except
for the inputs that can meet a known defect: those come from a second
generator with the fixed seed ``DEFECT_POOL_SEED``, so every run meets the
same defect cases and counts the same failures, whatever its seed.  Seeded
draws that shape how much work a pass does (scales, beta shapes, grid
sizes) are spread evenly over their ranges (``EvenDraws``), so the work of a
run varies little from seed to seed.  Each item of a block makes a single
library call and keeps only a small answer, which ``judge`` checks after the pass
against a closed form or an independent reference:

- ``verify_default``: one item per block, the default ``covineq verify``
  suite (4 measures x 3 functions x 15 checks, 196 report rows).  The seed
  only shuffles the order of measures and functions in the config; the
  report is sorted, so it must come out byte-identical on every pass.
- ``iso_sweep``: ``isoperimetric_constant`` on distinct measures (no measure
  repeats, within or across blocks).  Work is in the distribution primitives
  and golden search; quadrature is never called.
- ``extremal``: ``estimate_best_constant`` and ``sharpness_sweep`` items, one
  measure and at most one ``Is`` call each.  Work is in ``cumulative``
  builds with many query points, kinked ramp integrands and golden sups.

``judge(answer, exc, refs)`` (``refs`` memoizes reference values across
items) returns ``("ok", "")``, ``("known", <defect>)`` for an answer
rejected because of a documented defect of the library (counted as failed),
or ``("wrong", <detail>)`` for anything else (counted as failed and making
the run incorrect).  The documented defects are:

- ``false_diverging_tail``: on laplace and exponential measures the heavy-
  tail guard of ``isoperimetric_constant`` sees roundoff "falling" runs in
  the exactly exponential tail and reports Is = 0 at about 5% of scales.
  ``estimate_best_constant`` then raises ZeroDivisionError and
  ``sharpness_sweep`` returns uninformative certificates.
- ``abs_quadrature_floor``: ``sharpness_sweep`` on laplace(0, c) with
  c < 0.1 raises ComputationError ("not monotone") or returns ratios off the
  closed form, because the x^k integrands fall under the fixed 1e-13
  absolute quadrature floor.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
from scipy import optimize, stats

import covineq
from covineq import config, inequalities, measures, runner
from covineq.errors import ComputationError

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Seeds the scales of laplace and exponential measures (false_diverging_tail)
# and of the sharpness sweeps (abs_quadrature_floor).  Which scales meet a
# defect is roundoff luck, so drawing them from the run's seed would make the
# failed count differ from seed to seed; from this pool it is the same in
# every run, and the scales still span the workloads' full ranges.
DEFECT_POOL_SEED = 1711_00668
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class EvenDraws:
    """Draws in [lo, hi): a Weyl sequence (step GOLDEN) from a seeded start.

    Any run of consecutive draws covers the range about evenly, so the mix
    of inputs, and with it the work of a pass, varies less from seed to seed
    than with independent draws, while the seed still moves every value.
    The step is irrational, so no value comes twice.
    """

    def __init__(self, rng, lo, hi):
        self.lo, self.hi = lo, hi
        self.u = float(rng.uniform())

    def __call__(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.lo + (self.hi - self.lo) * self.u


class Item:
    """One library call: ``call`` is timed, ``judge`` and ``counts`` are not."""

    kind = ""

    def counts(self, answer) -> dict:
        """Layer counts read off the answer (only the runner reports any)."""
        return {}


# ---- verify_default ---------------------------------------------------------

# Expected statuses of the default suite: 196 rows.
VERIFY_STATUSES = {"ok": 179, "info": 4, "skip": 13, "fail": 0, "error": 0}
VERIFY_IS = {
    "laplace(0,1)": 1.0,
    "gaussian(0,1)": SQRT_2_OVER_PI,
    "uniform(0,1)": 2.0,
    "exponential(1)": 1.0,
}


class VerifyItem(Item):
    kind = "verify"

    def __init__(self, cfg):
        self.cfg = cfg

    def call(self):
        res = runner.run(self.cfg)
        is_rows = {
            c.params["family"]: c.lhs
            for c in res.certificates
            if c.name == "isoperimetric_constant"
        }
        statuses = Counter(s.split(":")[0] for s in res.statuses)
        digest = hashlib.sha256(res.report.encode()).hexdigest()
        return statuses, is_rows, digest, len(res.statuses)

    def judge(self, answer, exc, refs):
        if exc is not None:
            return "wrong", f"verify raised {exc!r}"
        statuses, is_rows, _, _ = answer
        got = {k: statuses.get(k, 0) for k in VERIFY_STATUSES}
        if got != VERIFY_STATUSES or sum(statuses.values()) != sum(got.values()):
            return "wrong", f"verify statuses {dict(statuses)}"
        for family, expected in VERIFY_IS.items():
            if not math.isclose(is_rows.get(family, math.nan), expected, rel_tol=1e-9):
                return "wrong", f"verify Is({family}) = {is_rows.get(family)}"
        return "ok", ""

    def counts(self, answer):
        if answer is None:
            return {}
        return {"runner.cells": answer[3], "runner.cells_error": answer[0]["error"]}


def verify_blocks(rng):
    base = config.default_config_dict()
    while True:
        cfg = dict(base)
        cfg["measures"] = [str(s) for s in rng.permutation(base["measures"])]
        cfg["functions"] = [str(s) for s in rng.permutation(base["functions"])]
        yield [VerifyItem(config.parse_config(cfg))]


# ---- iso_sweep --------------------------------------------------------------

# family -> (measure at scale s, closed-form Is at scale s)
ANALYTIC = {
    "laplace": (lambda s: measures.laplace(0.0, s), lambda s: 1.0 / s),
    "gaussian": (lambda s: measures.gaussian(0.0, s), lambda s: SQRT_2_OVER_PI / s),
    "uniform": (lambda s: measures.uniform(0.0, s), lambda s: 2.0 / s),
    "exponential": (lambda s: measures.exponential(1.0 / s), lambda s: 1.0 / s),
    "logistic": (lambda s: measures.logistic(0.0, s), lambda s: 0.5 / s),
}
EXPONENTIAL_TAILS = ("laplace", "exponential")
BETA_SHAPES = (0.5, 1.0, 2.0, 3.0, 7.0)
BETA_CLOSED = {(2.0, 2.0): 3.0, (0.5, 0.5): 4.0 / math.pi, (1.0, 1.0): 2.0}
HEAVY = {
    "t3": lambda s: stats.t(3, scale=s),
    "cauchy": lambda s: stats.cauchy(scale=s),
    "lognorm": lambda s: stats.lognorm(1.0, scale=s),
}

# One iso_sweep block: 27 items, about 4% of them tabulated.
ISO_PER_ANALYTIC = 3
ISO_BETA = 8
ISO_TABULATED = 1


def _log_uniform(rng, lo_exp, hi_exp):
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def beta_reference(a, b) -> float:
    """Is of beta(a, b) on [0, 1] straight from scipy, independent of covineq."""
    d = stats.beta(a, b)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    r = d.pdf(d.ppf(t)) / np.minimum(t, 1.0 - t)
    i = int(np.argmin(r))
    res = optimize.minimize_scalar(
        lambda u: float(d.pdf(d.ppf(u)) / min(u, 1.0 - u)),
        bounds=(t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)]),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return float(min(res.fun, r[i]))


class IsoItem(Item):
    """Is of one measure; ``expected`` is a value, ("beta", a, b, s) or "heavy"."""

    kind = "iso"

    def __init__(self, family, measure, expected):
        self.family = family
        self.measure = measure
        self.expected = expected

    def call(self):
        prof = covineq.isoperimetric_constant(self.measure)
        return prof.is_value, prof.diverging_tail

    def judge(self, answer, exc, refs):
        if exc is not None:
            return "wrong", f"Is({self.family}) raised {exc!r}"
        value, diverging = answer
        if self.expected == "heavy":
            if value == 0.0 and diverging:
                return "ok", ""
            return "wrong", f"heavy-tailed {self.family}: Is = {value}"
        expected = self.expected
        if isinstance(expected, tuple):
            _, a, b, s = expected
            if (a, b) not in refs:
                refs[(a, b)] = BETA_CLOSED.get((a, b)) or beta_reference(a, b)
            expected = s * refs[(a, b)]
        if not diverging and math.isclose(value, expected, rel_tol=1e-8):
            return "ok", ""
        if self.family in EXPONENTIAL_TAILS and value == 0.0 and diverging:
            return "known", "false_diverging_tail"
        return "wrong", f"Is({self.family}) = {value!r}, expected {expected!r}"


def _tabulated_item(s, half, kind):
    """Laplace or Gaussian density of scale ``s`` on a symmetric grid.

    The grid has 2·half + 1 nodes, one at the median 0, where the ratio is
    smallest, so the exact Is of the piecewise-linear density is
    2·d(0)/(trapezoid mass).
    """
    n = 2 * half + 1
    if kind == "laplace":
        xs = np.linspace(-30.0 * s, 30.0 * s, n)
        ds = np.exp(-np.abs(xs) / s) / (2.0 * s)
    else:
        xs = np.linspace(-9.0 * s, 9.0 * s, n)
        ds = np.exp(-0.5 * (xs / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    mass = float(np.sum(np.diff(xs) * 0.5 * (ds[:-1] + ds[1:])))
    expected = 2.0 * float(ds[n // 2]) / mass
    return IsoItem(f"tabulated_{kind}", measures.ingest_tabulated(xs, ds), expected)


def iso_blocks(rng):
    pool = np.random.default_rng(DEFECT_POOL_SEED)
    exps = {name: EvenDraws(rng, -9.0, 9.0)
            for name in (*ANALYTIC, "beta", *HEAVY, "tabulated")}
    halves = EvenDraws(rng, 100.0, 400.0)
    # every (a, b) pair in turn, in a seeded order
    shapes = [(a, b) for a in BETA_SHAPES for b in BETA_SHAPES]
    shapes = [shapes[i] for i in rng.permutation(len(shapes))]
    n_beta = 0
    block_no = 0
    while True:
        items = []
        for family, (build, closed) in ANALYTIC.items():
            for _ in range(ISO_PER_ANALYTIC):
                if family in EXPONENTIAL_TAILS:
                    s = _log_uniform(pool, -9.0, 9.0)
                else:
                    s = 10.0 ** exps[family]()
                items.append(IsoItem(family, build(s), closed(s)))
        for _ in range(ISO_BETA):
            a, b = shapes[n_beta % len(shapes)]
            n_beta += 1
            c = 10.0 ** exps["beta"]()
            items.append(
                IsoItem(f"beta({a:g},{b:g})", measures.beta(a, b).rescale(c),
                        ("beta", a, b, c))
            )
        for family, dist in HEAVY.items():
            s = 10.0 ** exps[family]()
            items.append(IsoItem(family, measures.from_scipy(dist(s), family), "heavy"))
        for _ in range(ISO_TABULATED):
            items.append(_tabulated_item(10.0 ** exps["tabulated"](), int(halves()),
                                         ("laplace", "gaussian")[block_no % 2]))
        rng.shuffle(items)
        block_no += 1
        yield items


# ---- extremal ---------------------------------------------------------------

BC_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)
BC_TOL = 5e-3  # the steep-median ramp g reaches 1/Is to about 1.5e-3
SHARP_KS = (1, 3, 5, 7, 9)
SHARP_DECADES = range(-6, 6)  # one scale per decade, 1e-6 to 1e6
SHARP_FLOOR_SCALE = 0.1  # below this the abs quadrature floor breaks sweeps


class BestConstantItem(Item):
    kind = "best_constant"

    def __init__(self, family, scale):
        self.family = family
        self.measure = ANALYTIC[family][0](scale)
        self.inv_is = 1.0 / ANALYTIC[family][1](scale)
        self.deltas = [scale * d for d in BC_DELTAS]

    def call(self):
        m = self.measure
        g = runner.near_extremal_increasing(m)
        est = inequalities.estimate_best_constant(m, g, self.deltas)
        return est.limit_estimate, est.target, est.monotone

    def judge(self, answer, exc, refs):
        if exc is not None:
            if isinstance(exc, ZeroDivisionError) and self.family in EXPONENTIAL_TAILS:
                return "known", "false_diverging_tail"
            return "wrong", f"best-constant {self.family} raised {exc!r}"
        limit, target, monotone = answer
        if (monotone and abs(limit / self.inv_is - 1.0) <= BC_TOL
                and math.isclose(target, self.inv_is, rel_tol=1e-8)):
            return "ok", ""
        return "wrong", f"best-constant {self.family}: limit {limit}, 1/Is {self.inv_is}"


class SharpnessItem(Item):
    kind = "sharpness"

    def __init__(self, scale, p):
        self.scale = scale
        self.p = p
        self.measure = measures.laplace(0.0, scale)

    def call(self):
        certs = inequalities.sharpness_sweep(self.measure, self.p, SHARP_KS)
        return tuple(c.ratio for c in certs), any(c.uninformative for c in certs)

    def judge(self, answer, exc, refs):
        small = self.scale < SHARP_FLOOR_SCALE
        if exc is not None:
            if small and isinstance(exc, ComputationError):
                return "known", "abs_quadrature_floor"
            return "wrong", f"sharpness c={self.scale:g} raised {exc!r}"
        ratios, uninformative = answer
        if uninformative:
            return "known", "false_diverging_tail"
        if self.p == 1:
            expected = [1.0] * len(SHARP_KS)
        else:
            expected = [math.sqrt((2 * k - 1) / (2 * k)) for k in SHARP_KS]
        if all(math.isclose(r, e, rel_tol=1e-8) for r, e in zip(ratios, expected)):
            return "ok", ""
        if small:
            return "known", "abs_quadrature_floor"
        return "wrong", f"sharpness c={self.scale:g} p={self.p}: ratios {ratios}"


def extremal_blocks(rng):
    pool = np.random.default_rng(DEFECT_POOL_SEED)
    exps = {f: EvenDraws(rng, -6.0, 6.0) for f in ANALYTIC}
    while True:
        items = [
            BestConstantItem(f, _log_uniform(pool, -6.0, 6.0) if f in EXPONENTIAL_TAILS
                             else 10.0 ** exps[f]())
            for f in ANALYTIC
        ]
        for d in SHARP_DECADES:
            for p in (1, 2):
                items.append(SharpnessItem(_log_uniform(pool, d, d + 1), p))
        rng.shuffle(items)
        yield items


WORKLOADS = {
    "verify_default": verify_blocks,
    "iso_sweep": iso_blocks,
    "extremal": extremal_blocks,
}

# Wall time of one warm pass on a 2-vCPU shared VM; sizes a run to SECONDS.
NOMINAL_PASS_S = {"verify_default": 8.0, "iso_sweep": 1.1, "extremal": 5.0}
MIN_PASSES = 3  # a cold pass, then at least one untraced and one traced pass


def passes(name, seconds) -> int:
    """Passes per run: a fixed count, so attempted and failed do not hang on speed."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[name]))

# Wrapped sites (see tracing.SITES) that must fire on each workload.
EXPECTED_SITES = {
    "verify_default": (
        "covineq.measures.Measure.pdf", "covineq.measures.Measure.quantile",
        "covineq.measures.Measure.cdf", "covineq.measures.Measure.sf",
        "covineq.quadrature.integrate", "covineq.quadrature.cumulative",
        "covineq.quadrature.CumulativeIntegral.left",
        "covineq.quadrature.CumulativeIntegral.right",
        "covineq.isoperimetry.isoperimetric_constant",
        "covineq.runner.isoperimetric_constant",
        "covineq.inequalities.isoperimetric_value",
        "covineq.search.golden_min", "covineq.search.golden_max",
        "covineq.kernel.covariance_kernel", "covineq.kernel.t_transform",
        "covineq.kernel.t_norm", "covineq.functions.centered",
        "covineq.kernel.hardy_certificate",
        *(f"covineq.inequalities.check_{n}" for n in sorted(config.CHECKS)
          if n != "hardy"),
        "covineq.inequalities.orlicz_norm", "covineq.runner.run",
        "covineq.runner.to_csv", "covineq.config.parse_config",
    ),
    "iso_sweep": (
        "covineq.measures.Measure.pdf", "covineq.measures.Measure.quantile",
        "covineq.isoperimetric_constant", "covineq.search.golden_min",
    ),
    "extremal": (
        "covineq.measures.Measure.pdf", "covineq.measures.Measure.quantile",
        "covineq.measures.Measure.cdf", "covineq.measures.Measure.sf",
        "covineq.quadrature.integrate", "covineq.quadrature.cumulative",
        "covineq.quadrature.CumulativeIntegral.left",
        "covineq.quadrature.CumulativeIntegral.right",
        "covineq.isoperimetry.isoperimetric_constant",
        "covineq.inequalities.isoperimetric_value",
        "covineq.search.golden_max", "covineq.kernel.covariance_kernel",
        "covineq.kernel.t_transform", "covineq.kernel.t_norm",
        "covineq.functions.centered", "covineq.inequalities.check_lp_poincare",
        "covineq.inequalities.estimate_best_constant",
        "covineq.inequalities.sharpness_sweep",
    ),
}
