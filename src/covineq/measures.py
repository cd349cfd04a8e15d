"""One-dimensional probability measures with positive density on an interval.

The six named families (gaussian, laplace, exponential, uniform, logistic,
beta) compute pdf/cdf/sf/ppf/isf in closed form (numpy and scipy.special),
repeating scipy's arithmetic so that every value equals the scipy frozen
distribution's; ``from_scipy`` wraps any frozen scipy-like distribution, and
tabulated densities are ingested as a piecewise-linear pdf with an exact
piecewise-quadratic cdf and its inverse.

Every quadrature in the package is set up by ``Measure.integral`` (∫ f dx,
for the kernel's dx integrals), ``Measure.expectation`` or
``Measure.cumulative`` (against μ); every other integral (lp_norm, the
kernel's tail weights, T_k, the moment and Orlicz checks) is built on them.
They run in x-space, adaptively over [quantile(1e-300), isf(1e-300)] (exact
endpoints where the support is bounded), seeded at the measure's knots and
at its own quantiles ``seed_levels``: ppf and isf at 2^-j for j in
``_SEED_DEPTHS``, so the seed panels carry the mass, not the window.  An
infinite side's window end is the outermost of its seeds, and its seed
panels are the shells whose growth ``quadrature`` reads as divergence.
Upper-tail quantiles always go through the survival function, never
through 1−t.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from operator import mul, truediv
from typing import Any, Callable

import numpy as np
from scipy import special
from scipy.special import _ufuncs

from . import quadrature, search
from .errors import DomainError, IngestionError, UnsupportedMeasureError
from .functions import DifferentiableFunction
from .numerics import active

_TAIL_EPS = 1e-300  # quantile depth standing in for an infinite endpoint
# the seed levels 2^-j of every quadrature, from the median to 2^-513: each
# gap doubles, so the seeds reach the window's depth in 10 levels per side
_SEED_DEPTHS = (1, 3, 5, 9, 17, 33, 65, 129, 257, 513)


def lp_exponent(p) -> float:
    """p as a float: the one exponent rule, a real p ≥ 1 (inf included; NaN,
    booleans and strings not), on which every stricter domain builds."""
    if isinstance(p, (bool, np.bool_)) or not (isinstance(p, numbers.Real) and p >= 1.0):
        raise DomainError(f"p must be >= 1, got {p!r}")
    return float(p)


@dataclass(frozen=True, eq=False, repr=False)
class Measure:
    """A probability measure on an interval with strictly positive density.

    ``dist`` is any frozen scipy-like object exposing pdf/cdf/sf/ppf/isf;
    ``log_concave`` says the density is log-concave, and
    ``potential_second_derivative`` is φ'' for the potential φ = −log f and
    is present exactly when the measure is strictly log-concave.  ``knots``
    are density kinks strictly inside the support (panel seeds for
    quadrature).  Instances are immutable and all methods are pure; each
    also carries a private memo (``memo``) of results derived from it: the
    median, probe grids, the ``Is(μ)`` profile, each ``expectation`` of a
    ``DifferentiableFunction``, each ``lp_norm`` (p = inf included), each
    ``cumulative``, each |Cov(g,h)| of ``kernel.covariance_kernel``, each
    centered function of ``functions.centered`` and the W sup of
    ``check_cov_variant``.  It takes no part in comparison or repr.  Keys
    hold their function objects, compared by identity, so on a long-lived
    measure the memo grows with every distinct function used on it; a key
    on a lambda made afresh for each call is never hit again, which is why
    ``expectation`` and ``lp_norm`` keep no other callable.  Every entry is
    freed with the measure.  The first caller to touch a key pays for its
    build, and every later caller reads it free.
    """

    family: str
    params: dict
    dist: Any
    support: tuple[float, float]
    log_concave: bool = False
    potential_second_derivative: Callable | None = None
    knots: tuple[float, ...] = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ---- pointwise primitives -------------------------------------------

    def pdf(self, x):
        """Density; 0 outside the support (documented, not an error)."""
        return self.dist.pdf(x)

    def cdf(self, x):
        return self.dist.cdf(x)

    def sf(self, x):
        """Survival function 1−F, accurate in the upper tail."""
        return self.dist.sf(x)

    def quantile(self, t):
        t_arr = np.asarray(t, dtype=float)
        if not np.all((t_arr > 0.0) & (t_arr < 1.0)):
            raise DomainError(f"quantile level must lie in (0,1), got {t!r}")
        out = self.dist.ppf(t_arr)
        return float(out) if np.ndim(t) == 0 else np.asarray(out, dtype=float)

    def median(self) -> float:
        """quantile(0.5), memoized on the measure."""
        return self.memo(("median",), lambda: self.quantile(0.5))

    def memo(self, key: tuple, build: Callable[[], Any]):
        """The value kept under ``key`` and the active quadrature tolerance,
        from ``build()`` on the first call.  A build that raises keeps
        nothing, so the next call raises again."""
        key = (*key, active().rel_tol)
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # ---- integration ----------------------------------------------------

    def integration_domain(self) -> tuple[float, float]:
        """Finite window carrying all but ~1e-300 of the mass."""
        a, b = self.support
        lo = a if math.isfinite(a) else float(self.dist.ppf(_TAIL_EPS))
        hi = b if math.isfinite(b) else float(self.dist.isf(_TAIL_EPS))
        return lo, hi

    def seed_levels(self) -> tuple[float, ...]:
        """The quantile seeds of every quadrature: ppf and isf at 2^-j for
        j in ``_SEED_DEPTHS``, and the window's ends (on a bounded side, the
        support's end, which seeds nothing); memoized on the measure."""

        def build():
            t = 2.0 ** -np.asarray(_SEED_DEPTHS, dtype=float)
            ends = self.integration_domain()
            return tuple(np.concatenate([self.dist.ppf(t), self.dist.isf(t), ends]))

        return self.memo(("seeds",), build)

    def integral(self, f, knots=()) -> float:
        """∫ f dx over ``integration_domain()``, panels seeded at the
        measure's knots, its ``seed_levels`` and ``knots``; f carries any
        density it needs."""
        return self._quadrature("integrate", f, knots)

    def expectation(self, g, knots=()) -> float:
        """∫ g dμ to the active tolerances; IntegrationError on divergence.

        Panels are seeded at ``g.knots``, the measure's knots and
        ``seed_levels``, and the extra ``knots``: kinks that g cannot list
        itself, such as a split point.
        Kept in the memo per (g, knots) when g is a ``DifferentiableFunction``;
        any other callable, such as a lambda made per call, is integrated
        afresh.
        """
        knots = tuple(knots)
        if not isinstance(g, DifferentiableFunction):
            return self._against("integrate", g, knots)
        return self.memo(("expectation", g, knots),
                         lambda: self._against("integrate", g, knots))

    def cumulative(self, g, knots=()) -> quadrature.CumulativeIntegral:
        """Prefix/suffix queries x ↦ ∫_{(lo,x)} g dμ and ∫_{(x,hi)} g dμ,
        seeded as in ``expectation``, over the integrand ``weighted``.
        Built once per (g, knots) and kept in the memo: the mass cumulative
        of ``kernel.t_transform`` serves every h with the same knots, a
        centered h₀ included, and T reads it in one pass with h's own."""
        knots = tuple(knots)
        return self.memo(("cumulative", g, knots),
                         lambda: self._against("cumulative", g, knots))

    def _against(self, engine, g, knots):
        return self._quadrature(engine, lambda x: self.weighted(g, x),
                                (*getattr(g, "knots", ()), *knots))

    def weighted(self, g, x, density=None):
        """g(x)·pdf(x), the integrand of ∫ g dμ, as floats; ``density`` is
        pdf(x) (or a fixed multiple of it) where the caller has it."""
        return np.asarray(g(x), dtype=float) * (self.pdf(x) if density is None else density)

    def _quadrature(self, engine, f, knots):
        """``quadrature.<engine>`` of f over the support, seeded at the
        measure's knots and ``seed_levels``, whose outermost seeds cut an
        infinite side at the window's end; looked up on the module at each
        call, so that a wrapper set there sees every one."""
        lo, hi = self.support
        return getattr(quadrature, engine)(
            f, lo, hi, knots=(*knots, *self.knots, *self.seed_levels()))

    def lp_norm(self, g, p, knots=()) -> float:
        """‖g‖_p = (∫|g|^p dμ)^(1/p) for real p ≥ 1; p = inf is ``ess_sup``.

        The moment is taken of g/unit, unit = ``probe_unit(g)``, so it
        neither overflows nor underflows and the scaling back is exact.
        ``knots`` are kinks of g that it cannot list itself, as in
        ``expectation``.  Kept in the memo per (g, p, knots) when g is a
        ``DifferentiableFunction``, as ``expectation`` keeps its moments.
        """
        p, knots = lp_exponent(p), tuple(knots)
        if not isinstance(g, DifferentiableFunction):
            return self._lp_norm(g, p, knots)
        return self.memo(("lp", g, p, knots), lambda: self._lp_norm(g, p, knots))

    def _lp_norm(self, g, p, knots):
        knots = (*getattr(g, "knots", ()), *knots)
        if math.isinf(p):
            return self.ess_sup(g, knots)
        unit = self.probe_unit(g)
        total = self.expectation(
            lambda x: np.abs(np.asarray(g(x), dtype=float) / unit) ** p, knots
        )
        return unit * total ** (1.0 / p)

    def probe_unit(self, g) -> float:
        """The least power of two at or above max|g| on a 64-point probe grid.

        Dividing by it is exact, and it brings g's moments into the float
        range whatever the measure's scale; 1 where that max is 0 or not
        finite.
        """
        with np.errstate(all="ignore"):
            vals = np.asarray(g(self.probe_points(64)), dtype=float)
            top = float(np.max(np.abs(vals)))
        if not (math.isfinite(top) and top > 0.0):
            return 1.0
        mant, exp = math.frexp(top)
        return math.ldexp(1.0, min(exp - 1 if mant == 0.5 else exp, 1023))

    # ---- sup norms -------------------------------------------------------

    def probe_points(self, n: int = 2048) -> np.ndarray:
        """Interior quantile grid plus deep tail probes, sorted and unique;
        memoized on the measure per n, read-only."""

        def build():
            t = np.linspace(0.0, 1.0, n + 2)[1:-1]
            pts = [self.quantile(t)]
            s = 10.0 ** -np.arange(4.0, 14.0)
            pts.append(np.asarray(self.dist.ppf(s), dtype=float))
            pts.append(np.asarray(self.dist.isf(s), dtype=float))
            pts.append(np.asarray(self.knots, dtype=float))
            lo, hi = self.integration_domain()
            out = np.unique(np.concatenate([np.atleast_1d(p) for p in pts]))
            out = out[(out >= lo) & (out <= hi)]
            out.flags.writeable = False
            return out

        return self.memo(("probe", n), build)

    def ess_sup(self, g, extra_knots=()) -> float:
        """Grid supremum of |g|, refined by zoom search around the top points.

        The density is positive on the support, so the essential sup is the
        sup over the interior.  Genuinely unbounded |g| is reported as the
        largest probed value (or inf if a probe overflows) — an
        under-report, documented where it matters.

        ``extra_knots`` are abscissae merged into the probe grid that it
        cannot know about: kinks of g, the median, both sides of a jump.
        Those outside the integration domain are dropped.  g is evaluated
        elementwise on the probe grid and on the search's (16, 3) array.
        """
        pts = self.probe_points()
        extra = np.asarray(tuple(extra_knots), dtype=float)
        if extra.size:
            lo, hi = self.integration_domain()
            extra = extra[(extra >= lo) & (extra <= hi)]
            pts = np.unique(np.concatenate([pts, extra]))
        vals = np.abs(np.asarray(g(pts), dtype=float))
        if not np.all(np.isfinite(vals)):
            return float("inf")
        top = np.argsort(vals)[-3:]
        lo = pts[np.maximum(top - 1, 0)]
        hi = pts[np.minimum(top + 1, len(pts) - 1)]
        _, refined = search.golden_max(lambda x: np.abs(np.asarray(g(x), float)), lo, hi)
        return float(max(np.max(vals), np.max(refined)))

    # ---- transforms ------------------------------------------------------

    def rescale(self, c) -> "Measure":
        """Law of X/c: density x ↦ c·f(cx); same family, scaled parameters."""
        c = float(c)
        if not c > 0.0:
            raise DomainError(f"rescale factor must be positive, got {c}")
        if self.family == "tabulated":
            return ingest_tabulated(self.dist.xs / c, self.dist.ds * c)
        fam = FAMILIES.get(self.family)
        if fam is None:
            raise UnsupportedMeasureError(
                f"rescale not defined for family {self.family!r}"
            )
        params = {**fam.defaults, **self.params}
        return fam.factory(
            **{name: scale(params[name], c) for name, scale in fam.scaling.items()}
        )

    # ---- cosmetics -------------------------------------------------------

    @property
    def label(self) -> str:
        if self.family == "tabulated":
            return f"tabulated({self.params['n']})"
        vals = ",".join(f"{v:g}" for v in self.params.values())
        return f"{self.family}({vals})"

    def __repr__(self):
        return f"Measure({self.label})"


# ---- closed-form location-scale laws ---------------------------------------


@dataclass(frozen=True)
class _Standard:
    """Standard form of a location-scale family: support (a, b) and the
    five functions of y = (x − loc)/scale (or of the level q), copied
    expression for expression from ``scipy/stats/_continuous_distns.py``;
    a shape family binds its shapes into the five functions."""

    a: float
    b: float
    pdf: Callable
    cdf: Callable
    sf: Callable
    ppf: Callable
    isf: Callable


_NORM_PDF_C = np.sqrt(2 * np.pi)


def _laplace_cdf(y):
    with np.errstate(over="ignore"):
        return np.where(y > 0, 1.0 - 0.5 * np.exp(-y), 0.5 * np.exp(y))


def _laplace_ppf(q):
    return np.where(q > 0.5, -np.log(2 * (1 - q)), np.log(2 * q))


def _logistic_pdf(y):
    z = -np.abs(y)
    return np.exp(z - 2.0 * special.log1p(np.exp(z)))


_NORM = _Standard(
    -math.inf, math.inf,
    pdf=lambda y: np.exp(-y**2 / 2.0) / _NORM_PDF_C,
    cdf=special.ndtr,
    sf=lambda y: special.ndtr(-y),
    ppf=special.ndtri,
    isf=lambda q: -special.ndtri(q),
)
_LAPLACE = _Standard(
    -math.inf, math.inf,
    pdf=lambda y: 0.5 * np.exp(-abs(y)),
    cdf=_laplace_cdf,
    sf=lambda y: _laplace_cdf(-y),
    ppf=_laplace_ppf,
    isf=lambda q: -_laplace_ppf(q),
)
_EXPON = _Standard(
    0.0, math.inf,
    pdf=lambda y: np.exp(-y),
    cdf=lambda y: -special.expm1(-y),
    sf=lambda y: np.exp(-y),
    ppf=lambda q: -special.log1p(-q),
    isf=lambda q: -np.log(q),
)
_UNIFORM = _Standard(
    0.0, 1.0,
    pdf=lambda y: 1.0 * (y == y),
    cdf=lambda y: y,
    sf=lambda y: 1.0 - y,
    ppf=lambda q: q,
    isf=lambda q: 1.0 - q,
)
_LOGISTIC = _Standard(
    -math.inf, math.inf,
    pdf=_logistic_pdf,
    cdf=special.expit,
    sf=lambda y: special.expit(-y),
    ppf=special.logit,
    isf=lambda q: -special.logit(q),
)


def _beta_standard(a, b) -> _Standard:
    """Beta(a, b) on [0, 1]; the pdf and ppf are the private ufuncs that
    scipy's ``beta_gen`` calls, pinned by the tests against ``stats.beta``.

    ``_beta_pdf`` raises OverflowError at subnormal y when a < 1 (and so
    does ``stats.beta``); there the pdf is y^(a−1)(1−y)^(b−1)/B(a, b),
    taken in logs, entry by entry for the entries that raised.
    """
    log_beta = special.betaln(a, b)

    def entry(v):
        try:
            return _ufuncs._beta_pdf(v, a, b)
        except OverflowError:
            return np.exp(special.xlogy(a - 1.0, v) + special.xlog1py(b - 1.0, -v) - log_beta)

    def pdf(y):
        with np.errstate(over="ignore"):
            try:
                return _ufuncs._beta_pdf(y, a, b)
            except OverflowError:
                return np.vectorize(entry, otypes=[float])(y)

    return _Standard(
        0.0, 1.0,
        pdf=pdf,
        cdf=lambda y: special.betainc(a, b, y),
        sf=lambda y: special.betaincc(a, b, y),
        ppf=lambda q: _ufuncs._beta_ppf(q, a, b),
        isf=lambda q: special.betainccinv(a, b, q),
    )


def _elementwise(method):
    """Run ``method`` on float input of at least one dimension, as scipy's
    methods do (numpy's scalar and array loops for exp and friends may
    differ in the last bit), and give 0-d input a scalar back."""

    @functools.wraps(method)
    def wrapper(self, v):
        v = np.asarray(v, dtype=float)
        return method(self, v) if v.ndim else method(self, v.reshape(1))[0]

    return wrapper


class _LocScaleDist:
    """Frozen law of loc + scale·Y for a closed-form standard law Y.

    Repeats the arithmetic of scipy's ``rv_continuous`` methods operation
    for operation, so each value is bit-identical to the scipy frozen
    distribution of the same family: ``pdf = _pdf(y)/scale`` on the closed
    support and 0 outside; ``cdf``/``sf`` on the open support with 0 and 1
    past its ends; ``ppf``/``isf = _ppf(q)·scale + loc`` for 0 < q < 1 and
    the support ends at q ∈ {0, 1}; NaN elsewhere; 0-d input gives a scalar.
    What it skips is scipy's per-call argument handling: when every input
    lies inside the support, the standard function runs with no masks.
    That is over 99.8% of the calls a default ``verify`` run makes, and
    sending them through ``_fill`` instead costs that run about 14% of its
    time and 16 MB of peak memory.
    """

    def __init__(self, std: _Standard, loc: float, scale: float):
        self.std = std
        self.loc = loc
        self.scale = scale

    def support(self):
        return self.std.a * self.scale + self.loc, self.std.b * self.scale + self.loc

    @_elementwise
    def pdf(self, x):
        a, b = self.std.a, self.std.b
        y = (x - self.loc) / self.scale
        inside = (a <= y) & (y <= b)
        if inside.all():
            return self.std.pdf(y) / self.scale
        return _fill(self.std.pdf, y, inside, y < a, 0.0, y > b, 0.0) / self.scale

    @_elementwise
    def cdf(self, x):
        return self._open(self.std.cdf, x, 0.0, 1.0)

    @_elementwise
    def sf(self, x):
        return self._open(self.std.sf, x, 1.0, 0.0)

    def _open(self, f, x, below, above):
        a, b = self.std.a, self.std.b
        y = (x - self.loc) / self.scale
        inside = (a < y) & (y < b)
        if inside.all():
            return f(y)
        return _fill(f, y, inside, y <= a, below, y >= b, above)

    @_elementwise
    def ppf(self, q):
        return self._quantile(self.std.ppf, q, self.std.a, self.std.b)

    @_elementwise
    def isf(self, q):
        return self._quantile(self.std.isf, q, self.std.b, self.std.a)

    def _quantile(self, f, q, at0, at1):
        inside = (0.0 < q) & (q < 1.0)
        if inside.all():
            return f(q) * self.scale + self.loc
        return _fill(f, q, inside, q == 0.0, at0, q == 1.0, at1) * self.scale + self.loc


def _fill(f, v, inside, at_lo, lo_value, at_hi, hi_value):
    """f(v) where ``inside``, the given values where ``at_lo``/``at_hi``,
    NaN elsewhere (NaN input included)."""
    out = np.where(at_lo, lo_value, np.where(at_hi, hi_value, np.nan))
    out[inside] = f(v[inside])
    return out


# ---- analytic families ----------------------------------------------------


def _validated(name, value, positive=False):
    value = float(value)
    if not math.isfinite(value) or (positive and not value > 0.0):
        raise DomainError(f"invalid {name}: {value}")
    return value


def gaussian(mean=0.0, sd=1.0) -> Measure:
    mean = _validated("mean", mean)
    sd = _validated("sd", sd, positive=True)
    # sd² underflows to 0 below sd ≈ 1.5e-162, where 1/sd² is past the float range
    inv = math.inf if sd * sd == 0.0 else 1.0 / (sd * sd)
    return Measure(
        family="gaussian",
        params={"mean": mean, "sd": sd},
        dist=_LocScaleDist(_NORM, mean, sd),
        support=(-math.inf, math.inf),
        log_concave=True,
        potential_second_derivative=lambda x: np.full_like(
            np.asarray(x, dtype=float), inv
        ),
    )


def laplace(loc=0.0, scale=1.0) -> Measure:
    loc = _validated("loc", loc)
    scale = _validated("scale", scale, positive=True)
    return Measure(
        family="laplace",
        params={"loc": loc, "scale": scale},
        dist=_LocScaleDist(_LAPLACE, loc, scale),
        support=(-math.inf, math.inf),
        log_concave=True,
        knots=(loc,),
    )


def exponential(rate=1.0) -> Measure:
    rate = _validated("rate", rate, positive=True)
    return Measure(
        family="exponential",
        params={"rate": rate},
        dist=_LocScaleDist(_EXPON, 0.0, 1.0 / rate),
        support=(0.0, math.inf),
        log_concave=True,
    )


def uniform(lo=0.0, hi=1.0) -> Measure:
    lo = _validated("lo", lo)
    hi = _validated("hi", hi)
    if not hi > lo:
        raise DomainError(f"uniform needs lo < hi, got [{lo}, {hi}]")
    return Measure(
        family="uniform",
        params={"lo": lo, "hi": hi},
        dist=_LocScaleDist(_UNIFORM, lo, hi - lo),
        support=(lo, hi),
        log_concave=True,
    )


def logistic(loc=0.0, scale=1.0) -> Measure:
    loc = _validated("loc", loc)
    scale = _validated("scale", scale, positive=True)

    def phi2(x):
        z = (np.asarray(x, dtype=float) - loc) / scale
        with np.errstate(over="ignore"):
            ch = np.cosh(z / 2.0)
            return 1.0 / (2.0 * scale * scale * ch * ch)

    return Measure(
        family="logistic",
        params={"loc": loc, "scale": scale},
        dist=_LocScaleDist(_LOGISTIC, loc, scale),
        support=(-math.inf, math.inf),
        log_concave=True,
        potential_second_derivative=phi2,
    )


def beta(alpha, beta, scale=1.0) -> Measure:
    """Beta(alpha, beta) law stretched onto [0, scale]."""
    alpha = _validated("alpha", alpha, positive=True)
    beta = _validated("beta", beta, positive=True)
    scale = _validated("scale", scale, positive=True)
    log_concave = alpha >= 1.0 and beta >= 1.0
    phi2 = None
    if log_concave and max(alpha, beta) > 1.0:

        def phi2(x):
            u = np.asarray(x, dtype=float) / scale
            with np.errstate(divide="ignore"):
                return ((alpha - 1.0) / u**2 + (beta - 1.0) / (1.0 - u) ** 2) / (
                    scale * scale
                )

    params = {"alpha": alpha, "beta": beta}
    if scale != 1.0:
        params["scale"] = scale
    return Measure(
        family="beta",
        params=params,
        dist=_LocScaleDist(_beta_standard(alpha, beta), 0.0, scale),
        support=(0.0, scale),
        log_concave=log_concave,
        potential_second_derivative=phi2,
    )


# ---- family table ----------------------------------------------------------


def _fixed(v, c):
    return v


@dataclass(frozen=True, eq=False)
class Family:
    """An analytic family: its factory and how each parameter rescales.

    ``scaling`` maps each factory keyword to ``op(value, c)``, its value
    for the law of X/c: location and scale parameters divide by c
    (``truediv``), rates multiply (``mul``), shapes stay (``_fixed``).
    ``defaults`` holds the keywords a spec does not give and a measure's
    ``params`` may omit; the rest are the spec parameters, in order.
    """

    factory: Callable
    scaling: dict
    defaults: dict = field(default_factory=dict)

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(k for k in self.scaling if k not in self.defaults)


FAMILIES = {
    "laplace": Family(laplace, {"loc": truediv, "scale": truediv}),
    "gaussian": Family(gaussian, {"mean": truediv, "sd": truediv}),
    "uniform": Family(uniform, {"lo": truediv, "hi": truediv}),
    "exponential": Family(exponential, {"rate": mul}),
    "logistic": Family(logistic, {"loc": truediv, "scale": truediv}),
    "beta": Family(
        beta, {"alpha": _fixed, "beta": _fixed, "scale": truediv}, {"scale": 1.0}
    ),
}


def from_scipy(
    dist,
    family="custom",
    params=None,
    log_concave=False,
    potential_second_derivative=None,
    knots=(),
) -> Measure:
    """Wrap any frozen scipy-like continuous distribution (duck-typed)."""
    a, b = (float(v) for v in dist.support())
    return Measure(
        family=family,
        params=dict(params or {}),
        dist=dist,
        support=(a, b),
        log_concave=log_concave,
        potential_second_derivative=potential_second_derivative,
        knots=tuple(knots),
    )


# ---- tabulated densities ---------------------------------------------------


class _TabulatedDist:
    """Piecewise-linear pdf; cdf/sf are its exact piecewise-quadratic
    integrals accumulated from their own end (no upper-tail cancellation),
    ppf/isf their exact inverses by ``searchsorted`` and one quadratic root."""

    def __init__(self, xs: np.ndarray, ds: np.ndarray):
        self.xs = xs
        self.ds = ds
        self._slope = np.diff(ds) / np.diff(xs)
        seg = np.diff(xs) * 0.5 * (ds[:-1] + ds[1:])
        total = float(np.sum(seg))
        self._cum = np.concatenate([[0.0], np.cumsum(seg)]) / total
        self._cum[-1] = 1.0
        self._suf = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]) / total
        self._suf[0] = 1.0

    def support(self):
        return float(self.xs[0]), float(self.xs[-1])

    def pdf(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ds,
                         left=0.0, right=0.0)

    def _segment(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        return x, i, x - self.xs[i]

    def _clamped(self, x, val, below, above):
        val = np.where(x <= self.xs[0], below, np.where(x >= self.xs[-1], above, val))
        return np.clip(val, 0.0, 1.0)

    def cdf(self, x):
        x, i, u = self._segment(x)
        val = self._cum[i] + u * (self.ds[i] + 0.5 * self._slope[i] * u)
        return self._clamped(x, val, 0.0, 1.0)

    def sf(self, x):
        x, i, u = self._segment(x)
        dx_here = self.ds[i] + self._slope[i] * u
        rest = (self.xs[i + 1] - x) * 0.5 * (dx_here + self.ds[i + 1])
        return self._clamped(x, self._suf[i + 1] + rest, 1.0, 0.0)

    def ppf(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self._cum, t, side="right") - 1, 0, len(self.xs) - 2)
        return self._root(i, t - self._cum[i], self._cum[i + 1] - t, t <= 0.0, t >= 1.0)

    def isf(self, s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(-self._suf, -s) - 1, 0, len(self.xs) - 2)
        return self._root(i, self._suf[i] - s, s - self._suf[i + 1], s >= 1.0, s <= 0.0)

    def _root(self, i, left, right, at_lo, at_hi):
        """x in segment i with mass ``left`` on [xs[i], x], ``right`` on [x, xs[i+1]],
        from the end with less mass m: u = 2m/(d + √(d² ± 2·slope·m)) then has a
        radicand ≥ d²/2.  ``at_lo``/``at_hi`` levels give the support's ends."""
        near_left = left <= right
        m, d, k = np.where(near_left, (left, self.ds[i], self._slope[i]),
                           (right, self.ds[i + 1], -self._slope[i]))
        with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 at t = 0, 1
            u = 2.0 * m / (d + np.sqrt(d * d + 2.0 * k * m))
        x = np.where(near_left, self.xs[i] + u, self.xs[i + 1] - u)
        return np.where(at_lo, self.xs[0], np.where(at_hi, self.xs[-1], x))


def ingest_tabulated(nodes, values) -> Measure:
    """Normalized measure from (node, density) samples.

    Requires ≥8 strictly increasing finite nodes, nonnegative values,
    strictly positive on the interior; endpoints may carry zero density.
    """
    xs = np.asarray(nodes, dtype=float).ravel()
    ds = np.asarray(values, dtype=float).ravel()
    if xs.shape != ds.shape:
        raise IngestionError(
            f"nodes and values disagree in length: {xs.shape} vs {ds.shape}"
        )
    if len(xs) < 8:
        raise IngestionError(f"need at least 8 nodes, got {len(xs)}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ds))):
        raise IngestionError("nodes and values must all be finite")
    if not np.all(np.diff(xs) > 0):
        raise IngestionError("nodes must be strictly increasing")
    if np.any(ds < 0):
        raise IngestionError("density values must be nonnegative")
    if not np.all(ds[1:-1] > 0):
        raise IngestionError(
            "density must be strictly positive on the interior "
            "(all-zero input included)"
        )
    total = float(np.sum(np.diff(xs) * 0.5 * (ds[:-1] + ds[1:])))
    if not total > 0:
        raise IngestionError("density integrates to zero")
    dist = _TabulatedDist(xs, ds / total)
    return Measure(
        family="tabulated",
        params={"n": len(xs)},
        dist=dist,
        support=(float(xs[0]), float(xs[-1])),
        knots=tuple(float(x) for x in xs[1:-1]),
    )


def load_tabulated(path) -> Measure:
    """Read whitespace-separated `x density` pairs; `#` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read tabulated density {path!r}: {exc}")
    xs, ds = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise IngestionError(
                f"{path}:{lineno}: expected `x density`, got {raw!r}"
            )
        try:
            xs.append(float(parts[0]))
            ds.append(float(parts[1]))
        except ValueError:
            raise IngestionError(
                f"{path}:{lineno}: non-numeric entry in {raw!r}"
            )
    return ingest_tabulated(xs, ds)
