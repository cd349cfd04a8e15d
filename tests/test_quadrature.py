"""Adaptive quadrature: oracles, error control, cumulative queries."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from covineq import functions, measures, numerics, quadrature, runner
from covineq.config import parse_config
from covineq.errors import IntegrationError
from covineq.numerics import NumericContext, numeric_context


def gauss_pdf(x):
    return np.exp(-0.5 * np.asarray(x, float) ** 2) / math.sqrt(2 * math.pi)


def test_total_mass_gaussian():
    v = quadrature.integrate(gauss_pdf, -40.0, 40.0)
    assert abs(v - 1.0) < 1e-12


def test_kink_with_knot_is_exact():
    v = quadrature.integrate(lambda x: np.abs(x), -1.0, 2.0, knots=(0.0,))
    assert abs(v - 2.5) < 1e-13


def test_endpoint_singularity_integrable():
    # int_0^1 t^(-1/2) = 2; singular at the left endpoint
    v = quadrature.integrate(lambda t: np.asarray(t, float) ** -0.5, 0.0, 1.0)
    assert abs(v - 2.0) < 1e-8


def test_divergent_integrand_raises():
    with pytest.raises(IntegrationError):
        quadrature.integrate(lambda t: 1.0 / np.asarray(t, float), 0.0, 1.0)


def test_nonfinite_integrand_raises():
    with pytest.raises(IntegrationError):
        quadrature.integrate(
            lambda t: np.full_like(np.asarray(t, float), np.nan), 0.0, 1.0
        )


class TestPanelRule:
    """The K21/G10 pair that scores each panel of ``_adapt``."""

    @pytest.mark.parametrize("k", range(32))
    def test_pair_exact_to_its_degrees(self, k):
        # on (−1, 1), K21 integrates x^k exactly for k ≤ 31 and G10 for k ≤ 19
        value, err, mass = quadrature._panel_batch(lambda t: t**k, [-1.0], [1.0])
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(value[0] - exact) <= 1e-15
        if k % 2 == 0:  # |f| = f, and the mass is the value
            assert mass[0] == value[0]
        if k <= 19:
            g10 = quadrature._GK_NODES[1::2] ** k @ quadrature._GK_WEIGHTS[1::2, 1]
            assert abs(g10 - exact) <= 1e-15 and err[0] <= 2e-15

    def test_gauss_half_is_legendre_10(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert np.max(np.abs(quadrature._GK_NODES[1::2] - nodes)) <= 1e-15
        assert np.max(np.abs(quadrature._GK_WEIGHTS[1::2, 1] - weights)) <= 1e-15
        # and G10 reads no Kronrod-only node
        assert not quadrature._GK_WEIGHTS[0::2, 1].any()

    def test_nonfinite_value_poisons_only_its_panel(self):
        f = lambda t: np.where(t < 0.0, np.nan, 1.0)  # noqa: E731
        value, err, mass = quadrature._panel_batch(f, [-1.0, 0.0], [0.0, 2.0])
        assert value[0] == 0.0 and err[0] == mass[0] == math.inf
        assert abs(value[1] - 2.0) <= 1e-15 and err[1] <= 1e-15


def sin2(x):
    return np.sin(40.0 * np.asarray(x, float)) ** 2


@pytest.mark.parametrize("rounds", [0, 1, 2])
def test_spent_round_budget_raises(monkeypatch, rounds):
    # ∫_0^10 sin²(40x) dx = 5 − sin(800)/160 needs more than two rounds past
    # the seed; the bound the error carries covers the estimate's true error
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", rounds)
    with pytest.raises(IntegrationError) as info:
        quadrature.integrate(sin2, 0.0, 10.0)
    exc = info.value
    exact = 5.0 - math.sin(800.0) / 160.0
    assert math.isfinite(exc.estimate) and abs(exc.estimate - exact) <= exc.error_bound
    assert exc.error_bound > numerics.active().rel_tol * exc.estimate


def test_spent_round_budget_on_passing_panels_returns(monkeypatch):
    # every seed panel passes in round 0: the spent budget still goes to the
    # global error test, which the kept panels meet
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", 0)
    c = np.array([3.0, -2.0, 1.0])
    v = quadrature.integrate(lambda x: np.polyval(c, np.asarray(x, float)), -1.0, 2.0)
    anti = np.polyint(c)
    assert abs(v - (np.polyval(anti, 2.0) - np.polyval(anti, -1.0))) < 1e-13


@pytest.mark.parametrize("panels", [50, 120])
def test_spent_panel_budget_raises(monkeypatch, panels):
    # ∫_0^20 sin²(40x) dx converges on 166 panels, past either budget
    monkeypatch.setattr(quadrature, "_MAX_PANELS", panels)
    with pytest.raises(IntegrationError) as info:
        quadrature.integrate(sin2, 0.0, 20.0)
    assert info.value.error_bound > numerics.active().rel_tol * info.value.estimate


def test_width_underflow_within_budget_returns():
    # ∫_1^2 (x−1)^(1/4) dx = 4/5: the boundary stub at 1 splits until its
    # split point no longer falls strictly inside it (the float spacing at
    # 1), while its mass is still far above the 2^-57 floor of a cumulative's
    # lighter side; it is kept without passing, and its error counts against
    # the budget, which it meets
    cum = quadrature.cumulative(lambda x: np.abs(np.asarray(x, float) - 1.0) ** 0.25, 1.0, 2.0)
    a, b = cum.partition.edges[:2]
    assert a == 1.0 and not a + (b - a) / 8.0 > a
    assert abs(cum.total - 0.8) < 1e-15
    assert cum.error_bound <= numerics.active().rel_tol * cum.total


def test_width_underflow_with_infinite_error_raises():
    # the stub at 0 of t^(-19/20) keeps a mass 20·w^(1/20) above the floor at
    # every float width w, so a cumulative drives it to width underflow,
    # where its nodes land on the pole: the stub is kept with err = inf and
    # raises
    with pytest.raises(IntegrationError) as info:
        quadrature.cumulative(lambda t: np.asarray(t, float) ** -0.95, 0.0, 1.0)
    assert info.value.error_bound == math.inf
    assert abs(info.value.estimate - 20.0) < 1e-12


def test_beta_half_two_first_moment_cumulative_builds():
    # h = x damps the pole of the density at 0
    cum = measures.beta(0.5, 2).cumulative(functions.monomial(1))
    assert abs(cum.total - 0.2) < 1e-15
    assert cum.error_bound <= numerics.active().rel_tol * cum.total


def test_beta_half_two_mass_cumulative_builds():
    # the stub at 0, on the pole, has only its own mass on its lighter side;
    # it is exempt once that is below the floor, before its nodes reach 0
    cum = measures.beta(0.5, 2).cumulative(np.ones_like)
    assert abs(cum.total - 1.0) < 1e-12
    assert cum.error_bound <= numerics.active().rel_tol * cum.total


def test_infinite_end_is_cut_at_the_outermost_knot():
    v = quadrature.integrate(gauss_pdf, -math.inf, math.inf, knots=(-40.0, 0.0, 40.0))
    assert abs(v - 1.0) < 1e-12
    with pytest.raises(IntegrationError):
        quadrature.integrate(gauss_pdf, -math.inf, 1.0)


class TestQuantileSeeds:
    """Every quadrature of a measure is seeded at its own quantiles."""

    def test_laplace_absolute_moments(self):
        # E|X|^k = k!; a level schedule that stops short of the window's
        # depth (2^-1 ... 2^-57) reads E|X|^5 3e-13 low
        m = measures.laplace(0, 1)
        for k in range(1, 19):
            v = m.expectation(lambda t: np.abs(t) ** k)
            assert abs(v / math.factorial(k) - 1.0) <= 4.4e-16, k

    def test_levels_and_moments_scale_with_the_measure(self):
        unit = np.array(measures.laplace(0, 1).seed_levels())
        for c in (1e-70, 1.0, 1e70, 1e290):
            m = measures.laplace(0, c)
            assert np.array_equal(np.array(m.seed_levels()), c * unit)
            assert abs(m.expectation(lambda t: (t / c) ** 2) - 2.0) <= 4.4e-16

    def test_gaussian_variance_scores_its_seed_panels_only(self, monkeypatch):
        # 20 seed panels, all passing in the first round
        scored, real = [], quadrature._panel_batch
        monkeypatch.setattr(quadrature, "_panel_batch",
                            lambda f, a, b: scored.append(len(a)) or real(f, a, b))
        v = measures.gaussian(0, 1).expectation(functions.monomial(2))
        assert abs(v - 1.0) <= 4.4e-16 and sum(scored) <= 20

    def test_levels_are_built_at_the_first_quadrature(self):
        m = measures.gaussian(0, 1)
        assert not any(key[0] == "seeds" for key in m._memo)
        m.expectation(functions.monomial(2))
        assert any(key[0] == "seeds" for key in m._memo)


class TestHeavyTails:
    """The seed shells toward an infinite end must shrink."""

    cauchy = measures.from_scipy(stats.cauchy(), "cauchy")

    def test_cauchy_mass(self):
        v = self.cauchy.expectation(np.ones_like)
        assert abs(v - 1.0) <= numerics.active().rel_tol

    @pytest.mark.parametrize("g", [np.abs, np.square], ids=["abs", "square"])
    def test_cauchy_moments_raise(self, g):
        with pytest.raises(IntegrationError, match="diverges|did not converge"):
            self.cauchy.expectation(g)

    def test_pareto_second_moment(self):
        v = measures.from_scipy(stats.pareto(3)).expectation(np.square)
        assert abs(v - 3.0) <= 1e-12 * 3.0

    @pytest.mark.parametrize("k", [2, 19])
    def test_lognormal_moments(self, k):
        # E X^19 = e^180.5 peaks near level 2^-270, in the shell inward of the
        # window piece; that piece still carries mass, so the shells shrink
        m = measures.from_scipy(stats.lognorm(1))
        assert abs(m.expectation(lambda t: t**k) / math.exp(k * k / 2) - 1.0) <= 1e-12


@given(
    coeffs=st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=6
    )
)
def test_polynomials_match_antiderivative(coeffs):
    c = np.asarray(coeffs, float)
    lo, hi = -1.0, 2.0
    v = quadrature.integrate(lambda x: np.polyval(c, np.asarray(x, float)), lo, hi)
    anti = np.polyint(c)
    want = float(np.polyval(anti, hi) - np.polyval(anti, lo))
    assert abs(v - want) <= 1e-9 * (1.0 + abs(want))


class TestCumulative:
    def test_prefix_suffix_consistency(self):
        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        for t in (-3.0, -1.0, 0.0, 0.5, 2.0):
            assert abs(cum.left(t) + cum.right(t) - cum.total) < 1e-12

    def test_matches_cdf(self):
        from scipy.stats import norm

        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        ts = np.array([-5.0, -2.0, -0.5, 0.0, 1.0, 3.0])
        got = cum.left(ts)
        want = norm.cdf(ts)
        assert np.max(np.abs(got - want) / want) < 1e-9

    def test_deep_boundary_prefix_relative_accuracy(self):
        # prefix mass far into the left tail must be relatively accurate,
        # not just small against the total
        from scipy.stats import norm

        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        t = norm.ppf(1e-8)
        got = cum.left(t)
        assert abs(got - 1e-8) < 1e-6 * 1e-8

    def test_vectorized_queries(self):
        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        ts = np.linspace(-2, 2, 9)
        lefts = cum.left(ts)
        assert lefts.shape == ts.shape
        assert np.all(np.diff(lefts) > 0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_query_does_not_depend_on_batch(self, side):
        # each partial panel is summed on its own: a point's value is the
        # same bits whatever else is queried with it
        cum = measures.exponential(1).cumulative(lambda x: np.asarray(x, float))
        query = getattr(cum, side)
        for t in np.linspace(27.6, 29.9, 11):
            alone = query(np.array([t]))[0]
            assert query(np.array([t, 1.0]))[0] == alone
            assert query(np.linspace(0.0, 40.0, 1001).tolist() + [t])[-1] == alone

    def test_queries_clip_to_domain(self):
        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        assert abs(cum.left(-1000.0)) == 0.0
        assert abs(cum.left(1000.0) - cum.total) < 1e-15


def test_subnormal_integrand():
    # ∫_0^1 (x/10^6.2)^50 dx = 10^-310/51; the budget scales with ∫|f|
    v = measures.uniform(0, 1).expectation(lambda x: (x / 10**6.2) ** 50)
    assert abs(v - 1e-310 / 51) < 1e-9 * 1e-310 / 51


LOOSE = NumericContext(rel_tol=1e-2)


def test_numeric_context_scopes_tolerances():
    tight = quadrature.integrate(gauss_pdf, -40.0, 40.0)
    with numeric_context(LOOSE):
        assert numerics.active() is LOOSE
        loose = quadrature.integrate(gauss_pdf, -40.0, 40.0)
        with numeric_context(NumericContext(rel_tol=1e-3)):
            assert numerics.active().rel_tol == 1e-3
        assert numerics.active() is LOOSE
    assert numerics.active() == NumericContext()
    assert loose != tight and abs(loose - 1.0) < 1e-2


def test_numeric_context_restored_when_block_raises():
    with pytest.raises(RuntimeError):
        with numeric_context(LOOSE):
            raise RuntimeError("boom")
    assert numerics.active() == NumericContext()


def test_numeric_context_is_per_thread():
    expected = quadrature.integrate(gauss_pdf, -40.0, 40.0)
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def hold_loose():
        with numeric_context(LOOSE):
            seen["loose"] = quadrature.integrate(gauss_pdf, -40.0, 40.0)
            entered.set()
            release.wait(timeout=60)

    worker = threading.Thread(target=hold_loose)
    worker.start()
    try:
        assert entered.wait(timeout=60)
        got = quadrature.integrate(gauss_pdf, -40.0, 40.0)
    finally:
        release.set()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert got == expected
    assert seen["loose"] != expected


def test_runner_restores_default_context():
    cfg = parse_config({
        "measures": ["laplace:0,1"],
        "functions": ["x"],
        "checks": ["cheeger"],
        "quad_rel_tol": 1e-8,
        "debug_rhs_scale": 0.1,
    })
    assert cfg.numerics == NumericContext(rel_tol=1e-8, rhs_scale=0.1)
    assert runner.run(cfg).exit_code == runner.EXIT_CERT_FAILURE
    assert numerics.active() == NumericContext()
