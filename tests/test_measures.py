"""Measure construction, moments, rescaling, and tabulated ingestion."""

import bisect
import math
import os
import subprocess
import sys
import weakref

import mpmath as mp
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import covineq
from covineq import config, functions, inequalities, isoperimetry, kernel, measures
from covineq import quadrature, runner
from covineq.errors import IngestionError, IntegrationError, UnsupportedMeasureError
from covineq.numerics import NumericContext, numeric_context

x = functions.monomial(1)
x2 = functions.monomial(2)


@pytest.mark.parametrize(
    "m, at, cdf_want",
    [
        (measures.laplace(0, 1), 0.0, 0.5),
        (measures.uniform(0, 1), 0.25, 0.25),
        (measures.gaussian(0, 1), 0.0, 0.5),
        (measures.exponential(1), math.log(2), 0.5),
        (measures.logistic(0, 1), 0.0, 0.5),
    ],
)
def test_cdf_oracles(m, at, cdf_want):
    assert abs(m.cdf(at) - cdf_want) < 1e-12
    assert abs(m.sf(at) - (1 - cdf_want)) < 1e-12
    assert abs(m.quantile(cdf_want) - at) < 1e-9


def test_median():
    assert abs(measures.uniform(0, 1).median() - 0.5) < 1e-12
    assert abs(measures.exponential(1).median() - math.log(2)) < 1e-12
    assert abs(measures.laplace(3, 2).median() - 3.0) < 1e-9


def test_median_is_memoized(monkeypatch):
    m = measures.beta(2, 3)
    first = m.median()
    calls = []
    real = measures.Measure.quantile
    monkeypatch.setattr(
        measures.Measure, "quantile",
        lambda self, t: calls.append(t) or real(self, t),
    )
    assert m.median() == first
    assert calls == []
    assert measures.beta(2, 3).median() == first
    assert calls == [0.5]


class TestMemo:
    def test_build_runs_once_per_key_and_tolerance(self):
        m, built = measures.laplace(0, 1), []
        build = lambda: built.append(1) or len(built)  # noqa: E731
        assert m.memo(("k",), build) == m.memo(("k",), build) == 1
        assert m.memo(("other",), build) == 2
        with numeric_context(NumericContext(rel_tol=1e-8)):
            assert m.memo(("k",), build) == 3
        assert measures.laplace(0, 1).memo(("k",), build) == 4
        assert m.memo(("k",), build) == 1

    def test_cumulative_second_call_is_a_hit(self, quadratures):
        m = measures.gaussian(0, 1)
        first = m.cumulative(x, (0.5,))
        assert m.cumulative(x, [0.5]) is first
        assert quadratures == ["cumulative"]

    def test_cumulative_other_function_knots_measure_or_tolerance_is_a_miss(self, quadratures):
        m = measures.gaussian(0, 1)
        first = m.cumulative(x)
        others = [
            m.cumulative(functions.monomial(1)),
            m.cumulative(x, (0.5,)),
            measures.gaussian(0, 1).cumulative(x),
        ]
        with numeric_context(NumericContext(rel_tol=1e-8)):
            others.append(m.cumulative(x))
        assert quadratures == ["cumulative"] * 5
        assert all(c is not first for c in others)
        assert m.cumulative(x) is first and len(quadratures) == 5

    def test_a_build_that_raises_keeps_nothing(self, quadratures):
        m = measures.from_scipy(scipy.stats.cauchy())  # E|X| = ∞: every build below raises
        tries = []

        def failing():
            tries.append(1)
            raise IntegrationError("no value", math.nan, math.inf)

        for _ in range(2):
            with pytest.raises(IntegrationError):
                m.memo(("k",), failing)
        assert len(tries) == 2
        assert m.memo(("k",), lambda: 1.0) == 1.0
        m._memo.clear()
        for build in (
            lambda: m.cumulative(x),
            lambda: functions.centered(x, m),
            lambda: kernel.covariance_kernel(m, x, x),
        ):
            for _ in range(2):
                with pytest.raises(IntegrationError):
                    build()
        assert not {"cumulative", "centered", "covariance"} & {key[0] for key in m._memo}
        # cumulative and covariance's W reach the quadrature on both calls,
        # centered's E[x] too
        assert quadratures == ["cumulative"] * 2 + ["integrate"] * 2 + ["cumulative"] * 2

    def test_warm_moments_are_the_cold_bits_without_quadrature(self, quadratures):
        m = measures.laplace(0, 1)

        def moments():
            return [m.expectation(x2), m.expectation(x, (0.5,)), m.lp_norm(x, 3),
                    m.lp_norm(x, 1.0, (0.5,))]

        cold = moments()
        assert quadratures == ["integrate"] * 4
        assert [v.hex() for v in moments()] == [v.hex() for v in cold]
        assert m.expectation(x, [0.5]) == cold[1] and m.lp_norm(x, 3.0) == cold[2]
        assert len(quadratures) == 4

    def test_expectation_of_a_plain_callable_keeps_nothing(self, quadratures):
        m = measures.laplace(0, 1)
        f = lambda v: np.abs(v)  # noqa: E731
        assert m.expectation(f) == m.expectation(f)
        assert quadratures == ["integrate"] * 2
        assert all(key[0] != "expectation" for key in m._memo)

    def test_lp_norm_of_a_plain_callable_keeps_nothing(self, quadratures):
        m = measures.laplace(0, 1)
        f = lambda v: np.abs(v)  # noqa: E731
        assert m.lp_norm(f, 3.0) == m.lp_norm(f, 3.0)
        assert quadratures == ["integrate"] * 2
        assert all(key[0] != "lp" for key in m._memo)

    def test_warm_sup_norm_reads_no_point(self):
        m, reads = measures.gaussian(0, 1), []

        def ev(v):
            reads.append(np.size(v))
            return np.asarray(v, dtype=float)

        g = functions.DifferentiableFunction(ev, np.ones_like, (), "counted")
        cold = m.lp_norm(g, math.inf)
        n = len(reads)
        assert n > 0 and m.lp_norm(g, math.inf) == cold and len(reads) == n
        m.lp_norm(g, math.inf, (0.5,))  # other knots: another sup
        assert len(reads) > n

    def test_moments_under_another_tolerance_are_recomputed(self, quadratures):
        m = measures.laplace(0, 1)
        cold = [m.expectation(x2), m.lp_norm(x, 3)]
        with numeric_context(NumericContext(rel_tol=1e-8)):
            m.expectation(x2), m.lp_norm(x, 3)
        assert quadratures == ["integrate"] * 4
        assert [m.expectation(x2), m.lp_norm(x, 3)] == cold
        assert len(quadratures) == 4

    def test_a_moment_that_raises_keeps_nothing(self, quadratures):
        m = measures.from_scipy(scipy.stats.cauchy())  # E X² = ∞
        for _ in range(2):
            with pytest.raises(IntegrationError):
                m.lp_norm(x, 2)
            with pytest.raises(IntegrationError):
                m.expectation(x2)
        assert quadratures == ["integrate"] * 4
        assert all(key[0] not in ("lp", "expectation") for key in m._memo)

    def test_one_derivative_per_function(self):
        g = functions.monomial(3)
        d = functions.derivative(g)
        assert functions.derivative(g) is d and d.descriptor == "derivative(monomial(3))"
        assert functions.derivative(functions.monomial(3)) is not d
        # g′ keeps no reference to g: both go when g does, with no collection
        g_ref, d_ref = weakref.ref(g), weakref.ref(d)
        del g, d
        assert g_ref() is None and d_ref() is None

    def test_orlicz_reads_the_derivative_norm_of_cheeger(self, quadratures):
        m, g, young = measures.laplace(0, 1), functions.monomial(3), inequalities.young_power(2)
        inequalities.check_orlicz(measures.laplace(0, 1), g, young, "median_centered")
        # on a fresh measure: Is needs none, ‖g − g(med)‖₂ one and ‖g′‖₂ one
        assert quadratures == ["integrate"] * 2
        inequalities.check_cheeger(m, g)
        quadratures.clear()
        inequalities.check_orlicz(m, g, young, "median_centered")
        assert quadratures == ["integrate"]  # ‖g − g(med)‖₂ only

    def test_median_centered_orlicz_runs_once_per_measure(self, quadratures):
        # g − g(med) is memoized on the measure, so its norm is read again
        m, g, young = measures.laplace(0, 1), functions.monomial(3), inequalities.young_power(2)
        first = inequalities.check_orlicz(m, g, young, "median_centered")
        quadratures.clear()
        again = inequalities.check_orlicz(m, g, young, "median_centered")
        assert quadratures == []
        assert again.lhs == first.lhs and again.rhs == first.rhs

    def test_mean_centered_orlicz_reads_the_poincare_norm(self, quadratures):
        # both centre g on the one memoized h₀ of functions.centered
        m, g = measures.laplace(0, 1), functions.monomial(3)
        poincare = inequalities.check_lp_poincare(m, g, 2.0, "centered_2p")
        quadratures.clear()
        young = inequalities.young_power(2)
        orlicz = inequalities.check_orlicz(m, g, young, "mean_centered")
        assert quadratures == []
        assert orlicz.lhs.hex() == poincare.lhs.hex() == (26.832815729997478).hex()


def test_import_leaves_scipy_stats_out():
    # every named family is closed-form; scipy.stats is loaded only by a
    # caller that brings its own law to from_scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(covineq.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, covineq; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "m, g, want",
    [
        (measures.laplace(0, 1), x2, 2.0),
        (measures.gaussian(0, 1), x2, 1.0),
        (measures.uniform(0, 1), x, 0.5),
        (measures.exponential(1), x, 1.0),
        (measures.exponential(1), x2, 2.0),
    ],
)
def test_expectations(m, g, want):
    assert abs(m.expectation(g) - want) <= 1e-9 * max(1.0, want)


def test_lp_norm_laplace_gamma():
    m = measures.laplace(0, 1)
    for p in (1.0, 2.0, 3.5):
        want = math.gamma(p + 1.0) ** (1.0 / p)
        assert abs(m.lp_norm(x, p) - want) < 1e-8 * want
    # sup norm of a bounded function
    r = functions.ramp(0.0, 0.5)
    assert abs(m.lp_norm(r, math.inf) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "m, g",
    [
        (measures.laplace(0, 1), x2),
        (measures.gaussian(0, 1), x2),
        (measures.uniform(0, 1), x),
        (measures.exponential(1), x),
    ],
    ids=lambda v: getattr(v, "label", None),
)
def test_cumulative_splits_the_expectation(m, g):
    cum = m.cumulative(g)
    assert abs(cum.total - m.expectation(g)) <= 1e-12 * abs(cum.total)
    # a query splits one accepted panel in two; each part is a fresh 15-point
    # rule, exact only to the quadrature tolerance
    ts = m.quantile(np.linspace(0.01, 0.99, 15))
    assert np.allclose(cum.left(ts) + cum.right(ts), cum.total, rtol=1e-9, atol=0)


@pytest.mark.parametrize("c", [-2.0, 0.0, 0.3, 1.5])
def test_expectation_extra_knots(c):
    # E|X − c| = |c| + e^{−|c|} for X ~ laplace(0, 1); the kink at c is a knot
    got = measures.laplace(0, 1).expectation(lambda v: np.abs(v - c), knots=(c,))
    want = abs(c) + math.exp(-abs(c))
    assert abs(got - want) <= 1e-9 * want


def test_ess_sup():
    # bounded: exact sup over the support
    assert abs(measures.uniform(0, 1).ess_sup(x2) - 1.0) < 1e-9
    r = functions.ramp(0.0, 0.5)
    assert abs(measures.laplace(0, 1).ess_sup(r) - 1.0) < 1e-12
    # unbounded: documented under-report = largest probed value
    assert measures.gaussian(0, 1).ess_sup(x2) > 50.0


@given(c=st.floats(min_value=0.3, max_value=5.0))
def test_rescale_is_law_of_x_over_c(c):
    m = measures.laplace(0, 1)
    mc = m.rescale(c)
    # quantiles of X/c are quantiles of X divided by c
    for t in (0.1, 0.5, 0.9):
        assert abs(mc.quantile(t) - m.quantile(t) / c) < 1e-9 * (1 + abs(m.quantile(t)))
    assert mc.family == m.family


def test_rescale_all_families():
    for m in (
        measures.gaussian(0.5, 2),
        measures.uniform(-1, 3),
        measures.exponential(2),
        measures.logistic(1, 1),
        measures.beta(2, 5),
        measures.laplace(1, 3),
        measures.ingest_tabulated(
            np.linspace(-3, 3, 41), np.exp(-np.abs(np.linspace(-3, 3, 41)))
        ),
    ):
        mc = m.rescale(2.0)
        assert abs(mc.quantile(0.75) - m.quantile(0.75) / 2.0) < 1e-9


def test_gaussian_tiny_sd_builds():
    # sd² underflows to 0 here; 1/sd² must read inf, not raise
    sd = 1e-200
    m = measures.gaussian(0, sd)
    assert m.potential_second_derivative(0.0) == math.inf
    want = math.sqrt(2 / math.pi) / sd
    assert isoperimetry.isoperimetric_value(m) == pytest.approx(want, rel=1e-12)


def test_beta_support_and_mass():
    m = measures.beta(2, 5)
    assert m.cdf(0.0) == 0.0 and m.cdf(1.0) == 1.0
    assert abs(m.expectation(x) - 2.0 / 7.0) < 1e-9


def test_from_scipy_labels():
    m = measures.from_scipy(scipy.stats.cauchy(), "cauchy")
    assert m.family == "cauchy"
    assert abs(m.median() - 0.0) < 1e-9
    with pytest.raises(UnsupportedMeasureError):
        m.rescale(2.0)


@pytest.mark.parametrize(
    "m, log_concave, strict",
    [
        (measures.gaussian(0, 1), True, True),
        (measures.laplace(0, 1), True, False),
        (measures.exponential(1), True, False),
        (measures.uniform(0, 1), True, False),
        (measures.logistic(0, 1), True, True),
        (measures.beta(1, 1), True, False),
        (measures.beta(2, 3), True, True),
        (measures.beta(0.5, 2), False, False),
        (measures.ingest_tabulated(np.linspace(-1, 1, 9), np.ones(9)), False, False),
        (measures.from_scipy(scipy.stats.gumbel_r()), False, False),
    ],
    ids=lambda v: v.label if isinstance(v, measures.Measure) else None,
)
def test_log_concavity_flags(m, log_concave, strict):
    # strict log-concavity is the presence of φ''; there is no second flag
    assert m.log_concave is log_concave
    assert (m.potential_second_derivative is not None) is strict


class TestQuadratureSetup:
    """Every quadrature of the package is set up by ``Measure``."""

    @pytest.fixture()
    def callers(self, monkeypatch):
        # the module of each quadrature.integrate/cumulative caller
        seen = []
        for name in ("integrate", "cumulative"):
            real = getattr(quadrature, name)

            def spy(*args, real=real, **kwargs):
                seen.append(sys._getframe(1).f_globals["__name__"])
                return real(*args, **kwargs)

            monkeypatch.setattr(quadrature, name, spy)
        return seen

    def test_only_measures_calls_the_engine(self, callers):
        m = measures.gaussian(0, 1)  # a fresh measure: nothing is memoized
        kernel.covariance_kernel(m, x, functions.monomial(3))
        kernel.tail_identity_left(m, x, 0.3)
        kernel.tail_identity_right(m, x, 0.3)
        kernel.t_transform(m, functions.monomial(2), 0.3)(0.5)
        inequalities.orlicz_norm(m, x, inequalities.young_psi1())
        runner.run(config.parse_config(config.default_config_dict()))
        assert len(callers) > 100 and set(callers) == {"covineq.measures"}

    def test_integral_is_lebesgue_over_the_window(self):
        m = measures.uniform(0, 2)
        assert abs(m.integral(lambda t: np.asarray(t, dtype=float) ** 2) - 8 / 3) < 1e-13
        # a kink the integrand cannot list is a seed, as in expectation
        assert abs(m.integral(lambda t: np.abs(t - 0.7), (0.7,)) - 1.09) < 1e-13


def test_probe_points_sorted_interior():
    m = measures.gaussian(0, 1)
    pts = m.probe_points()
    lo, hi = m.integration_domain()
    assert np.all(np.diff(pts) > 0)
    assert pts[0] >= lo and pts[-1] <= hi


class TestTabulated:
    def test_roundtrip_laplace(self, tab_laplace_file):
        m = measures.load_tabulated(tab_laplace_file)
        assert m.family == "tabulated"
        assert abs(m.cdf(0.0) - 0.5) < 1e-3
        assert abs(m.expectation(x2) - 2.0) < 0.05

    def test_normalizes_total_mass(self):
        xs = np.linspace(0, 1, 11)
        m = measures.ingest_tabulated(xs, 7.0 * np.ones_like(xs))
        assert abs(m.cdf(1.0) - 1.0) < 1e-12
        assert abs(m.expectation(x) - 0.5) < 1e-9

    @pytest.mark.parametrize(
        "xs, ds",
        [
            ([0, 1, 2], [1, 1, 1]),  # too few nodes
            (np.linspace(0, 1, 9), -np.ones(9)),  # negative density
            (np.zeros(9), np.ones(9)),  # non-increasing nodes
            (np.linspace(0, 1, 9), np.zeros(9)),  # zero mass
            (np.linspace(0, 1, 9), [1, 1, 1, 0, 0, 1, 1, 1, 1]),  # interior zero
        ],
    )
    def test_rejects_bad_input(self, xs, ds):
        with pytest.raises(IngestionError):
            measures.ingest_tabulated(xs, ds)

    def test_load_rejects_malformed_line(self, tmp_path):
        p = tmp_path / "bad.tab"
        p.write_text("0 1\n1 2 3\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="bad.tab:2"):
            measures.load_tabulated(str(p))

    def test_load_rejects_undecodable_file(self, tmp_path):
        p = tmp_path / "bad.tab"
        p.write_bytes(b"\xff\xfe0 1\n1 2\n")
        with pytest.raises(IngestionError, match="cannot read tabulated density"):
            measures.load_tabulated(str(p))


# ---- tabulated quantiles against a 50-digit inverse -----------------------


def _random_table(seed):
    """8–60 random nodes over a width up to 60; seeds ≡ 0, 1 mod 3 give the
    left end zero density, seeds ≡ 0, 2 mod 3 the right end."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 61))
    xs = np.sort(rng.uniform(-30.0, 30.0, n))
    ds = rng.uniform(0.1, 1.0, n)
    ds[0] = 0.0 if seed % 3 != 2 else ds[0]
    ds[-1] = 0.0 if seed % 3 != 1 else ds[-1]
    return measures.ingest_tabulated(xs, ds).dist


def _mp_mass_inverse(xs, ds, mass):
    """The x with `mass` to its left under the density ds/∫ds, piecewise
    linear on xs, in mpmath at the working precision."""
    xs = [mp.mpf(float(v)) for v in xs]
    ds = [mp.mpf(float(v)) for v in ds]
    segs = [(xs[i + 1] - xs[i]) * (ds[i] + ds[i + 1]) / 2 for i in range(len(xs) - 1)]
    r = mp.mpf(float(mass)) * sum(segs)
    for i, seg in enumerate(segs):
        if r <= seg or i == len(segs) - 1:
            d, slope = ds[i], (ds[i + 1] - ds[i]) / (xs[i + 1] - xs[i])
            return xs[i] + 2 * r / (d + mp.sqrt(d * d + 2 * slope * r))
        r -= seg


_TAB_LEVELS = np.array(
    [10.0 ** -k for k in range(1, 301)]
    + [1.0 - 10.0 ** -k for k in range(1, 17)]
    + list(np.linspace(0.0, 1.0, 41)[1:-1])
)


@pytest.mark.parametrize("seed", range(6))
def test_tabulated_quantiles_match_mpmath(seed):
    d = _random_table(seed)
    with mp.workdps(50):
        want_ppf = [float(_mp_mass_inverse(d.xs, d.ds, t)) for t in _TAB_LEVELS]
        # isf(s) has mass s to its right: the left inverse of the mirrored table
        want_isf = [-float(_mp_mass_inverse(-d.xs[::-1], d.ds[::-1], s)) for s in _TAB_LEVELS]
    width = d.xs[-1] - d.xs[0]
    for name, want in (("ppf", want_ppf), ("isf", want_isf)):
        err = np.abs(getattr(d, name)(_TAB_LEVELS) - np.array(want)) / width
        assert np.max(err) <= 1e-14, (name, float(np.max(err)))


def test_tabulated_quantile_ends_and_nan():
    d = _random_table(0)  # zero density at both ends: the root reads 0/0 there
    lo, hi = d.support()
    with np.errstate(all="raise"):
        assert list(d.ppf([0.0, 1.0])) == [lo, hi]
        assert list(d.isf([1.0, 0.0])) == [lo, hi]
        assert np.isnan(d.ppf(np.nan)) and np.isnan(d.isf(np.nan))


def _mp_masses_left(xs, ds, pts):
    """The mass left of each point under the density ds/∫ds, piecewise linear
    on xs: the exact piecewise-quadratic integral, in mpmath at the working
    precision."""
    xs = [mp.mpf(float(v)) for v in xs]
    ds = [mp.mpf(float(v)) for v in ds]
    cum = [mp.mpf(0)]
    for i in range(len(xs) - 1):
        cum.append(cum[-1] + (xs[i + 1] - xs[i]) * (ds[i] + ds[i + 1]) / 2)
    out = []
    for v in pts:
        if not math.isfinite(v):
            out.append(mp.mpf(int(v > 0)))
            continue
        x = mp.mpf(float(v))
        i = min(max(bisect.bisect_right(xs, x) - 1, 0), len(xs) - 2)
        h = xs[i + 1] - xs[i]
        u = min(max(x - xs[i], 0), h)
        out.append((cum[i] + u * (ds[i] + (ds[i + 1] - ds[i]) / h * u / 2)) / cum[-1])
    return out


def test_tabulated_cdf_and_sf_match_mpmath(tab_laplace_file):
    d = measures.load_tabulated(tab_laplace_file).dist
    # nodes and three interior points of each of the 200 segments, and
    # points past both ends of the table
    inner = d.xs[:-1, None] + np.array([0.0, 0.1, 0.5, 0.93]) * np.diff(d.xs)[:, None]
    ends = [-math.inf, -1e3, -10.5, -10.0 - 1e-9, 10.0, 10.0 + 1e-9, 10.5, 1e3, math.inf]
    pts = np.sort(np.concatenate([inner.ravel(), ends]))
    with mp.workdps(50):
        left = _mp_masses_left(d.xs, d.ds, pts)
        want_cdf = np.array([float(m) for m in left])
        want_sf = np.array([float(1 - m) for m in left])
    for name, want in (("cdf", want_cdf), ("sf", want_sf)):
        got = getattr(d, name)(pts)
        assert np.all(got[want == 0.0] == 0.0), name
        rel = np.abs(got - want)[want > 0] / want[want > 0]
        assert np.max(rel) <= 1e-15, (name, float(np.max(rel)))
    assert np.max(np.abs(d.cdf(pts) + d.sf(pts) - 1.0)) <= 2.0 ** -51


def test_tabulated_quantiles_do_not_search(monkeypatch):
    d = _random_table(4)
    calls = []
    for name in ("cdf", "sf"):
        real = getattr(measures._TabulatedDist, name)
        monkeypatch.setattr(
            measures._TabulatedDist, name,
            lambda self, x, real=real: calls.append(1) or real(self, x),
        )
    d.ppf(_TAB_LEVELS)
    d.isf(_TAB_LEVELS)
    assert calls == []


@pytest.mark.parametrize("c", [1e-9, 0.37, 1e9])
def test_tabulated_is_scale_law(tab_laplace_file, c):
    m = measures.load_tabulated(tab_laplace_file)
    want = c * isoperimetry.isoperimetric_value(m)
    assert abs(isoperimetry.isoperimetric_value(m.rescale(c)) - want) <= 1e-12 * want


# ---- closed-form primitives against scipy and mpmath ----------------------

_FAMILY_PAIRS = [
    (measures.gaussian(-1.5, 0.7), scipy.stats.norm(-1.5, 0.7)),
    (measures.gaussian(2e3, 3e-2), scipy.stats.norm(2e3, 3e-2)),
    (measures.laplace(-1.5, 0.7), scipy.stats.laplace(-1.5, 0.7)),
    (measures.laplace(2e3, 3e-2), scipy.stats.laplace(2e3, 3e-2)),
    (measures.exponential(0.7), scipy.stats.expon(scale=1.0 / 0.7)),
    (measures.exponential(30.0), scipy.stats.expon(scale=1.0 / 30.0)),
    (measures.uniform(-1.5, 0.7), scipy.stats.uniform(loc=-1.5, scale=0.7 - -1.5)),
    (measures.uniform(2e3, 2e3 + 3e-2), scipy.stats.uniform(loc=2e3, scale=2e3 + 3e-2 - 2e3)),
    (measures.logistic(-1.5, 0.7), scipy.stats.logistic(-1.5, 0.7)),
    (measures.logistic(2e3, 3e-2), scipy.stats.logistic(2e3, 3e-2)),
    (measures.beta(2, 3), scipy.stats.beta(2, 3)),
    (measures.beta(0.5, 0.5), scipy.stats.beta(0.5, 0.5)),
    (measures.beta(0.7, 3, 3.7), scipy.stats.beta(0.7, 3, scale=3.7)),
    (measures.beta(7, 1, 2e3), scipy.stats.beta(7, 1, scale=2e3)),
]


def _x_points(d, rng):
    lo, hi = (float(v) for v in d.support())
    mean, sd = float(d.mean()), float(d.std())
    return np.concatenate([
        mean + 40.0 * sd * rng.standard_normal(400),
        d.ppf(rng.random(400)),
        [np.nan, np.inf, -np.inf, lo, hi, mean - 1e3 * sd, mean + 1e3 * sd, 1e308, -1e308],
    ])


def _q_points(rng):
    return np.concatenate([
        rng.random(400),
        10.0 ** -rng.uniform(0.0, 300.0, 200),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 100),
        [0.0, 1.0, -0.1, 1.1, np.nan, 0.5, 1e-300, 5e-324],
    ])


@pytest.mark.parametrize("m, d", _FAMILY_PAIRS, ids=[m.label for m, _ in _FAMILY_PAIRS])
@pytest.mark.parametrize("name", ["pdf", "cdf", "sf", "ppf", "isf"])
def test_closed_form_matches_scipy(m, d, name):
    rng = np.random.default_rng(20240)
    pts = _q_points(rng) if name in ("ppf", "isf") else _x_points(d, rng)
    with np.errstate(all="ignore"):
        got = getattr(m.dist, name)(pts)
        want = getattr(d, name)(pts)
    for special in (np.isnan, lambda v: v == 0.0, lambda v: v == 1.0, np.isposinf, np.isneginf):
        np.testing.assert_array_equal(special(got), special(want))
    plain = np.isfinite(want) & (want != 0.0) & (want != 1.0)
    np.testing.assert_array_max_ulp(got[plain], want[plain], maxulp=2)
    # 0-d input gives a scalar, as scipy's does
    with np.errstate(all="ignore"):
        one, ref = getattr(m.dist, name)(pts[0]), getattr(d, name)(pts[0])
    assert np.ndim(one) == 0 and type(one) is type(ref)
    np.testing.assert_array_max_ulp(one, ref, maxulp=2)


def test_closed_form_support_matches_scipy():
    for m, d in _FAMILY_PAIRS:
        assert m.dist.support() == tuple(float(v) for v in d.support())


@pytest.mark.parametrize("y", [1e-310, 5e-324])
def test_beta_pdf_at_subnormal_y(y):
    # scipy's _beta_pdf raises OverflowError at these y when a < 1; only the
    # entries that raised take the closed form, the others keep scipy's bits
    m = measures.beta(0.5, 2)
    got = m.pdf(np.array([y, 0.25, 1e-300]))
    with mp.workdps(40):
        want = float(mp.mpf(y) ** -0.5 * (1 - mp.mpf(y)) / mp.beta(0.5, 2))
    assert got[0] == pytest.approx(want, rel=1e-12)
    assert m.pdf(y) == got[0]
    np.testing.assert_array_equal(got[1:], scipy.stats.beta(0.5, 2).pdf([0.25, 1e-300]))


def test_from_scipy_fallback_gives_same_is():
    from covineq.isoperimetry import isoperimetric_constant

    want = isoperimetric_constant(measures.gaussian(0, 1)).is_value
    got = isoperimetric_constant(measures.from_scipy(scipy.stats.norm(0, 1))).is_value
    assert abs(got - want) <= 1e-12 * want


_LEVELS = [10.0 ** -k for k in range(1, 301)]


def _mp_norm_ppf(t):
    """Φ⁻¹(t) for small t by Newton on log Φ (erfinv(1 − 2t) loses t < 1e-50)."""
    t = mp.mpf(t)
    x = mp.mpf(float(scipy.special.ndtri(float(t))))
    for _ in range(100):
        cdf = mp.ncdf(x)
        step = (mp.log(cdf) - mp.log(t)) * cdf / mp.npdf(x)
        x -= step
        if abs(step) < mp.mpf(10) ** -40 * (1 + abs(x)):
            break
    return x


# standard law: (measure, [(primitive, points, 50-digit reference)])
_TAIL_REFERENCES = {
    "gaussian": (
        measures.gaussian(0, 1),
        [
            ("ppf", _LEVELS, _mp_norm_ppf),
            ("isf", _LEVELS, lambda t: -_mp_norm_ppf(t)),
            ("cdf", -np.linspace(0.0, 37.0, 75), lambda x: mp.ncdf(mp.mpf(x))),
            ("sf", np.linspace(0.0, 37.0, 75), lambda x: mp.ncdf(-mp.mpf(x))),
        ],
    ),
    "laplace": (
        measures.laplace(0, 1),
        [
            ("ppf", _LEVELS, lambda t: mp.log(2 * mp.mpf(t))),
            ("isf", _LEVELS, lambda t: -mp.log(2 * mp.mpf(t))),
            ("cdf", -np.linspace(0.0, 690.0, 70), lambda x: mp.exp(mp.mpf(x)) / 2),
            ("sf", np.linspace(0.0, 690.0, 70), lambda x: mp.exp(-mp.mpf(x)) / 2),
        ],
    ),
    "exponential": (
        measures.exponential(1),
        [
            ("ppf", _LEVELS, lambda t: -mp.log1p(-mp.mpf(t))),
            ("isf", _LEVELS, lambda t: -mp.log(mp.mpf(t))),
            ("cdf", np.array(_LEVELS), lambda x: -mp.expm1(-mp.mpf(x))),
            ("sf", np.linspace(0.0, 690.0, 70), lambda x: mp.exp(-mp.mpf(x))),
        ],
    ),
    "uniform": (
        measures.uniform(0, 1),
        [
            ("ppf", _LEVELS, lambda t: mp.mpf(t)),
            ("isf", _LEVELS, lambda t: 1 - mp.mpf(t)),
            ("cdf", np.array(_LEVELS), lambda x: mp.mpf(x)),
            ("sf", 1.0 - np.array(_LEVELS[:16]), lambda x: 1 - mp.mpf(x)),
        ],
    ),
    "logistic": (
        measures.logistic(0, 1),
        [
            ("ppf", _LEVELS, lambda t: mp.log(mp.mpf(t) / (1 - mp.mpf(t)))),
            ("isf", _LEVELS, lambda t: mp.log((1 - mp.mpf(t)) / mp.mpf(t))),
            ("cdf", -np.linspace(0.0, 690.0, 70), lambda x: 1 / (1 + mp.exp(-mp.mpf(x)))),
            ("sf", np.linspace(0.0, 690.0, 70), lambda x: 1 / (1 + mp.exp(mp.mpf(x)))),
        ],
    ),
}


@pytest.mark.parametrize("family", sorted(_TAIL_REFERENCES))
def test_closed_form_tails_match_mpmath(family):
    m, cases = _TAIL_REFERENCES[family]
    for name, pts, ref in cases:
        got = getattr(m.dist, name)(np.asarray(pts, dtype=float))
        with mp.workdps(50):
            want = np.array([float(ref(float(p))) for p in pts])
        assert np.all(np.isfinite(got)) and np.all(want != 0.0), (family, name)
        rel = np.abs(got - want) / np.abs(want)
        assert np.max(rel) <= 1e-12, (family, name, float(np.max(rel)))
