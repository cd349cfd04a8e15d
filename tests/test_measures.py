"""Measure construction, moments, rescaling, and tabulated ingestion."""

import bisect
import dataclasses
import math
import os
import subprocess
import sys
import warnings
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
from covineq import quadrature, runner, search
from covineq.errors import (DomainError, IngestionError, IntegrationError,
                            UnsupportedMeasureError)
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


@pytest.mark.parametrize("make, fragment", [
    (lambda: measures.gaussian(0, math.inf), "invalid sd"),
    (lambda: measures.uniform(1, 0), "uniform needs lo < hi"),
    (lambda: measures.laplace(0, 1).rescale(0), "rescale factor must be positive"),
    (lambda: measures.gaussian(0, 1).quantile(1.0), "quantile level must lie in"),
])
def test_out_of_domain_arguments_are_domain_errors(make, fragment):
    with pytest.raises(DomainError, match=fragment):
        make()


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
        first = m.cumulative(x)
        assert m.cumulative(x) is first
        assert quadratures == ["cumulative"]

    def test_cumulative_other_function_measure_or_tolerance_is_a_miss(self, quadratures):
        m = measures.gaussian(0, 1)
        first = m.cumulative(x)
        others = [
            m.cumulative(functions.monomial(1)),
            measures.gaussian(0, 1).cumulative(x),
        ]
        with numeric_context(NumericContext(rel_tol=1e-8)):
            others.append(m.cumulative(x))
        assert quadratures == ["cumulative"] * 4
        assert all(c is not first for c in others)
        assert m.cumulative(x) is first and len(quadratures) == 4

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
        d = g.prime
        assert g.prime is d and d.descriptor == "derivative(monomial(3))"
        assert functions.monomial(3).prime is not d
        # g′ keeps no reference to g: both go when g does, with no collection
        g_ref, d_ref = weakref.ref(g), weakref.ref(d)
        del g, d
        assert g_ref() is None and d_ref() is None

    def test_a_shift_reads_the_derivative_norm_of_its_base(self, quadratures):
        m, g = measures.laplace(0, 1), functions.monomial(1)
        g0 = functions.centered(g, m)  # one quadrature, E g
        want = m.lp_norm(g.prime, 2)
        assert quadratures == ["integrate"] * 2
        assert m.lp_norm(g0.prime, 2) == want
        assert m.lp_norm(functions.shifted(g, 3.0).prime, 2) == want
        assert quadratures == ["integrate"] * 2

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

    def test_psi1_bracket_reads_the_memoized_l1_norm(self, quadratures):
        # ψ1's lower bracket end ‖g‖₁ is the lp_norm entry at p = 1
        m, g = measures.laplace(0, 1), functions.monomial(3)
        inequalities.orlicz_norm(m, g, inequalities.young_psi1())
        quadratures.clear()
        m.lp_norm(g, 1.0)
        assert quadratures == []

    def test_sandwich_reads_the_memoized_l1_norm_of_centered(self, quadratures):
        # E|g − Eg| is the lp_norm entry of functions.centered(g, m) at p = 1
        m, g = measures.laplace(0, 1), functions.monomial(3)
        cert = inequalities.check_mean_median_sandwich(m, g)
        quadratures.clear()
        assert m.lp_norm(functions.centered(g, m), 1.0) == cert.lhs
        assert quadratures == []

    def test_grammar_x_is_the_moment_checks_x(self):
        m = measures.laplace(0, 1)
        assert functions.parse_expression("x").bind(m) is functions.IDENTITY


def _scipy_stats_loaded_after(code):
    """The scipy.stats modules loaded once ``code`` ran in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(covineq.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code += "; import sys; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_leaves_scipy_stats_out():
    # every named family is closed-form; scipy.stats is loaded only by a
    # caller that brings its own law to from_scipy
    assert _scipy_stats_loaded_after("import covineq") == "[]"


def test_duck_typed_from_scipy_leaves_scipy_stats_out():
    # from_scipy looks for a scipy law only where scipy.stats is loaded
    code = ("from covineq import isoperimetry, measures; "
            "isoperimetry.isoperimetric_constant(measures.from_scipy(measures.beta(2, 7).dist))")
    assert _scipy_stats_loaded_after(code) == "[]"


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
    # +inf on a probe (laplace(0,1)'s knot 0) reads inf
    pole = lambda v: np.where(np.asarray(v, dtype=float) == 0.0, np.inf, 1.0)
    assert measures.laplace(0, 1).ess_sup(pole) == math.inf


class TestEssSupEndProbe:
    """A grid maximum at an end probe is returned as it stands; only an
    interior one is zoomed by ``search.golden_max``."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        real = search.golden_max

        def spy(f, lo, hi):
            calls.append(np.size(lo))
            return real(f, lo, hi)

        monkeypatch.setattr(search, "golden_max", spy)
        return calls

    def test_last_probe_maximum_is_not_searched(self, searches):
        m = measures.gaussian(0, 1)
        pts = m.probe_points()
        assert m.ess_sup(x2) == np.abs(x2(pts))[-1]
        assert searches == []

    def test_interior_maximum_is_zoomed(self, searches):
        # sup |x e^{−x²}| = e^{−1/2}/√2 at x = ±1/√2
        got = measures.gaussian(0, 1).ess_sup(lambda v: v * np.exp(-v * v))
        assert abs(got - math.exp(-0.5) / math.sqrt(2.0)) < 1e-12
        assert searches == [3]

    def test_ramp_reads_one(self, searches):
        assert measures.laplace(0, 1).ess_sup(functions.ramp(0.0, 0.5)) == 1.0

    def test_maximum_at_an_extra_knot_inside_the_grid(self, searches):
        # a spike narrower than the grid spacing: the grid alone misses it
        c = 0.123456789

        def spike(v):
            return np.maximum(0.0, 1.0 - 1e6 * np.abs(np.asarray(v, dtype=float) - c))

        m = measures.laplace(0, 1)
        assert m.ess_sup(spike) < 0.5
        assert m.ess_sup(spike, extra_knots=(c,)) == 1.0
        assert searches == [3]


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


@pytest.mark.parametrize("make", [
    lambda: measures.laplace(0, 1), lambda: measures.exponential(2),
    lambda: measures.beta(2, 3), lambda: measures.from_scipy(scipy.stats.cauchy()),
])
def test_the_window_is_the_ladders_ends(make, monkeypatch):
    # the window is read off the memoized ladder: no further dist call
    m = make()
    ladder = m.seed_levels()
    for name in ("ppf", "isf"):
        monkeypatch.setattr(m.dist, name, lambda *a: pytest.fail("dist call"))
    assert m.integration_domain() == (float(ladder[0]), float(ladder[-1]))
    # a bounded side's end is the support's; an infinite one's is finite
    for end, edge in zip(m.support, m.integration_domain()):
        assert edge == end if math.isfinite(end) else math.isfinite(edge)


def test_probe_points_sorted_interior():
    m = measures.gaussian(0, 1)
    pts = m.probe_points()
    lo, hi = m.integration_domain()
    assert np.all(np.diff(pts) > 0)
    assert pts[0] >= lo and pts[-1] <= hi


def _tail_calls(m, monkeypatch):
    """Spy on m.dist.ppf/isf: the (name, levels) of each call made at tail
    levels only, a 1-D array of entries of ``measures.TAIL_LEVELS``."""
    every = np.concatenate(list(measures.TAIL_LEVELS.values()))
    calls = []
    for name in ("ppf", "isf"):
        def spy(q, real=getattr(m.dist, name), name=name):
            q_arr = np.asarray(q, dtype=float)
            if q_arr.ndim == 1 and np.all(np.isin(q_arr, every)):
                calls.append((name, tuple(q_arr)))
            return real(q)
        monkeypatch.setattr(m.dist, name, spy)
    return calls


_LADDER_MEASURES = [
    lambda: measures.laplace(0, 1), lambda: measures.exponential(2),
    lambda: measures.beta(2, 3),
    lambda: measures.ingest_tabulated(np.linspace(-1, 1, 9), np.linspace(1, 2, 9)),
    lambda: measures.from_scipy(scipy.stats.cauchy()),
]


@pytest.mark.parametrize("make", _LADDER_MEASURES)
def test_each_tail_level_set_is_read_once_per_measure(make, monkeypatch):
    # quadratures, both probe grids and Is profiles at two grid sizes all
    # read the one memoized tail: dist sees each level set once per side
    m = make()
    calls = _tail_calls(m, monkeypatch)
    for _ in range(2):
        m.expectation(functions.constant(1.0))
        m.integral(m.pdf)
        m.expectation(lambda v: np.exp(-np.asarray(v, dtype=float) ** 2))
        m.probe_points(64), m.probe_points(2048)
        m.ess_sup(lambda v: 1.0 / (1.0 + np.asarray(v, dtype=float) ** 2))
        isoperimetry.isoperimetric_constant(m)
        isoperimetry.isoperimetric_constant(m, grid_size=256)
    for name, end in zip(("ppf", "isf"), m.support):
        want = [tuple(t[(t != measures._TAIL_EPS) | math.isinf(end)])
                for t in measures.TAIL_LEVELS.values()]
        assert sorted(q for n, q in calls if n == name) == sorted(want), name


@pytest.mark.parametrize("make", _LADDER_MEASURES)
def test_a_bounded_side_reads_its_end_at_the_window_depth(make, monkeypatch):
    m = make()
    calls = _tail_calls(m, monkeypatch)
    assert measures.TAIL_LEVELS["seeds"][-1] == measures._TAIL_EPS
    rows = m.tail("seeds")
    assert m.tail("seeds") is rows and [n for n, _ in calls] == ["ppf", "isf"]
    for (name, q), row, end in zip(calls, rows, m.support):
        # dist is called at the window's depth on an infinite side only
        assert (measures._TAIL_EPS in q) == math.isinf(end), name
        assert row[-1] == end if math.isfinite(end) else math.isfinite(row[-1])
        assert not row.flags.writeable


@pytest.mark.parametrize("family", [measures.gaussian, measures.laplace, measures.logistic])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_a_symmetric_laws_upper_tail_is_its_lower_tail_negated(family, scale):
    m = family(0.0, scale)
    for name in measures.TAIL_LEVELS:
        lower, upper = m.tail(name)
        assert np.array_equal(upper, -lower), name  # 0.0 at the median, either sign


@pytest.mark.xfail(strict=True, reason="scipy's _beta_ppf returns a wrong deep quantile "
                                       "for a < 1 (ROADMAP item 5)")
def test_beta_half_two_deep_probe_is_its_series_quantile():
    # F(x) = x^a/(a·B(a, b))·(1 + O(x)) at 0, so Q(q) = (q·a·B(a, b))^{1/a}
    # to far below 1e-12 relative at q = 1e-10, where x ≈ 4.4e-21
    levels = measures.TAIL_LEVELS["probes"]
    lower, _ = measures.beta(0.5, 2).tail("probes")
    got = float(lower[np.flatnonzero(levels == 1e-10)[0]])
    assert abs(got / 4.444444444444446e-21 - 1.0) <= 1e-12


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
            (np.arange(8.0), np.ones(9)),  # length mismatch
            (np.arange(9.0), [1, 1, 1, np.nan, 1, 1, 1, 1, 1]),  # NaN value
            (np.arange(8) * 1e-10, np.full(8, 5e-324)),  # mass underflows to 0
        ],
    )
    def test_rejects_bad_input(self, xs, ds):
        with pytest.raises(IngestionError):
            measures.ingest_tabulated(xs, ds)

    def test_load_rejects_non_numeric_entry(self, tmp_path):
        p = tmp_path / "bad.tab"
        p.write_text("0.5 abc\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="bad.tab:1: non-numeric entry"):
            measures.load_tabulated(str(p))

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


# ---- frozen scipy laws through the closed-form adapter -------------------


class _Forward:
    """A duck-typed proxy of a frozen law: ``from_scipy`` keeps it, so each
    value comes from the law's public methods."""

    def __init__(self, dist):
        self._dist = dist

    def __getattr__(self, name):
        return getattr(self._dist, name)


_ADAPTED = {
    "t3": lambda loc, s: scipy.stats.t(3, loc, s),
    "cauchy": lambda loc, s: scipy.stats.cauchy(loc, s),
    "lognorm": lambda loc, s: scipy.stats.lognorm(1.0, loc, s),
    "gamma": lambda loc, s: scipy.stats.gamma(0.5, loc, s),
    "weibull_min": lambda loc, s: scipy.stats.weibull_min(0.7, loc, s),
    "pareto": lambda loc, s: scipy.stats.pareto(2, loc, s),
    "gumbel_r": lambda loc, s: scipy.stats.gumbel_r(loc, s),
    "genextreme": lambda loc, s: scipy.stats.genextreme(0.3, loc, s),
    "truncnorm": lambda loc, s: scipy.stats.truncnorm(-1.0, 2.0, loc, s),
    "norm": lambda loc, s: scipy.stats.norm(loc, s),
}
_PLACEMENTS = [(0.0, 1.0), (1e-9, 1e-9), (-3.7, 1e-9), (2e3, 3e-2), (1e9, 1e9), (-1e9, 7.0)]


def _law_points(d, rng):
    """Interior points, deep quantiles, the support's ends and their float
    neighbours outside, ±inf, ±1e308 and NaN."""
    lo, hi = (float(v) for v in d.support())
    med = float(d.median())
    iqr = float(d.ppf(0.75) - d.ppf(0.25))
    levels = 10.0 ** -np.arange(1.0, 320.0)
    return np.concatenate([
        med + 40.0 * iqr * rng.standard_normal(300), d.ppf(rng.random(300)),
        d.ppf(levels), d.isf(levels),
        [np.nan, np.inf, -np.inf, lo, hi, np.nextafter(lo, -np.inf),
         np.nextafter(hi, np.inf), med, 1e308, -1e308],
    ])


@pytest.mark.parametrize("loc, scale", _PLACEMENTS)
@pytest.mark.parametrize("law", sorted(_ADAPTED))
def test_scipy_law_takes_the_adapter_bit_for_bit(law, loc, scale):
    d = _ADAPTED[law](loc, scale)
    m = measures.from_scipy(d)
    assert isinstance(m.dist, measures._LocScaleDist)
    rng = np.random.default_rng(20241)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        xs = _law_points(d, rng)
        qs = np.concatenate([_q_points(rng), 10.0 ** -np.arange(1.0, 320.0)])
        for name in ("pdf", "cdf", "sf", "ppf", "isf"):
            pts = qs if name in ("ppf", "isf") else xs
            got, want = getattr(m.dist, name)(pts), getattr(d, name)(pts)
            # NaN, 0, 1 and ±inf at the same places, every other value equal
            np.testing.assert_array_equal(got, want, err_msg=name)
            # every point inside the support: the adapter's unmasked path
            inside = pts[np.isfinite(want) & (want > 0.0) & (want < 1.0)]
            np.testing.assert_array_equal(getattr(m.dist, name)(inside),
                                          getattr(d, name)(inside), err_msg=name)
            # 0-d input gives scipy's scalar type
            for one in pts[[0, -3]]:
                got, want = getattr(m.dist, name)(one), getattr(d, name)(one)
                assert type(got) is type(want)
                np.testing.assert_array_equal(got, want, err_msg=name)
    assert m.support == tuple(float(v) for v in d.support())


@pytest.mark.parametrize("loc, scale", _PLACEMENTS)
@pytest.mark.parametrize("law", sorted(_ADAPTED))
def test_adapted_is_profile_is_the_frozen_laws(law, loc, scale):
    d = _ADAPTED[law](loc, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = isoperimetry.isoperimetric_constant(measures.from_scipy(d))
        want = isoperimetry.isoperimetric_constant(measures.from_scipy(_Forward(d)))
    for field in dataclasses.fields(got):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


@pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (3.0, 1e-3)])
def test_adapter_hands_the_shapes_over_as_scipy_does(loc, scale):
    # gausshyper's _pdf rounds differently with shapes of the input's shape
    # (scipy's unmasked path) and with size-1 shapes (its masked path): a
    # NaN or a point outside the support next to the same points moves
    # scipy's last bits, and the adapter's with them
    d = scipy.stats.gausshyper(1.5, 2.5, 0.5, 0.7, loc=loc, scale=scale)
    m = measures.from_scipy(d)
    assert isinstance(m.dist, measures._LocScaleDist)
    xs = loc + scale * np.random.default_rng(5).random(200)  # inside [0, 1]·scale + loc
    for pts in (xs, np.append(xs, np.nan), np.append(xs, loc + 2.0 * scale)):
        np.testing.assert_array_equal(m.pdf(pts), d.pdf(pts))


def test_adapter_calls_no_private_function_on_no_entries():
    # kstwo's _pdf raises on an empty array: scipy calls it only where some
    # entry lies inside the support, and so does the adapter
    d = scipy.stats.kstwo(10)
    m = measures.from_scipy(d)
    assert isinstance(m.dist, measures._LocScaleDist)
    for pts in (-1.0, [-1.0, 2.0]):
        np.testing.assert_array_equal(m.pdf(pts), d.pdf(pts))


def _own_pdf():
    d = scipy.stats.t(3)
    d.pdf = lambda v: scipy.stats.t(3).pdf(v)
    return d


@pytest.mark.parametrize("make", [
    lambda: scipy.stats.levy(), lambda: scipy.stats.invgauss(0.5),
    lambda: scipy.stats.t(-1), lambda: scipy.stats.poisson(3), _own_pdf,
    lambda: _Forward(scipy.stats.t(3)),
    lambda: measures.gaussian(0, 1).dist, lambda: measures.beta(2, 7).dist,
], ids=["levy", "invgauss", "t(-1)", "poisson", "own-pdf", "proxy", "unflagged", "beta(2,7)"])
def test_other_laws_keep_their_object(make):
    # levy's and invgauss's pdf mask is the open support, and their _pdf is
    # NaN at 0; t(-1) fails _argcheck; a discrete law, a law with its own pdf
    # and duck-typed objects (the tests' unflagged helper among them) are
    # not frozen rv_continuous laws with scipy's own methods
    d = make()
    m = measures.from_scipy(d)
    assert m.dist is d
    pts = np.array([0.5, 1.5, 3.0])
    with np.errstate(all="ignore"):
        for name in ("cdf", "sf"):  # a discrete law has no pdf
            np.testing.assert_array_equal(getattr(m, name)(pts), getattr(d, name)(pts))


@pytest.mark.parametrize("make", [
    lambda: scipy.stats.t(3), lambda: scipy.stats.cauchy(), lambda: scipy.stats.lognorm(1.0),
], ids=["t3", "cauchy", "lognorm"])
def test_adapted_is_makes_no_frozen_call(make, monkeypatch):
    # the gain is the frozen object's argument handling, skipped: an Is of
    # the adapted law calls none of its public methods, where the same Is
    # through a forwarding proxy calls them dozens of times
    d = make()
    adapted, proxied = measures.from_scipy(d), measures.from_scipy(_Forward(d))
    calls = []
    for name in ("pdf", "cdf", "sf", "ppf", "isf"):
        def spy(v, real=getattr(d, name), name=name):
            calls.append(name)
            return real(v)
        monkeypatch.setattr(d, name, spy)
    isoperimetry.isoperimetric_constant(adapted)
    assert calls == []
    isoperimetry.isoperimetric_constant(proxied)
    assert calls.count("pdf") > 10 and calls.count("ppf") > 10


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
