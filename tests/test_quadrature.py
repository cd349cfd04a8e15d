"""Adaptive quadrature: oracles, error control, cumulative queries."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    # the seed partition of (0, 10) has 100 panels
    monkeypatch.setattr(quadrature, "_MAX_PANELS", panels)
    with pytest.raises(IntegrationError) as info:
        quadrature.integrate(sin2, 0.0, 10.0)
    assert info.value.error_bound > numerics.active().rel_tol * info.value.estimate


def test_width_underflow_within_budget_returns():
    # ∫_0^1 x^(-1/4) dx = 4/3: the boundary stub at 0 splits until its split
    # point no longer falls strictly inside it, and is kept without passing;
    # its error counts against the budget, which it meets
    cum = measures.uniform(0, 1).cumulative(functions.power(-0.25))
    a, b = cum.partition.edges[:2]
    assert a == 0.0 and not a + (b - a) / 8.0 > a
    assert abs(cum.total - 4.0 / 3.0) < 1e-15
    assert cum.error_bound <= numerics.active().rel_tol * cum.total


def test_width_underflow_with_infinite_error_raises():
    # a cumulative drives the stub at 0 of t^(-1/2) to width underflow, where
    # its nodes land on the pole: the stub is kept with err = inf and raises
    with pytest.raises(IntegrationError) as info:
        quadrature.cumulative(lambda t: np.asarray(t, float) ** -0.5, 0.0, 1.0)
    assert info.value.error_bound == math.inf
    assert abs(info.value.estimate - 2.0) < 1e-12


def test_beta_half_two_first_moment_cumulative_builds():
    # the counterpart of the strict xfail below, not a give-up case: h = x
    # damps the pole at 0, so the stub at 0 passes (at width 1.5e-213) and
    # the same window builds; width underflow is the x^(-1/4) test above
    cum = measures.beta(0.5, 2).cumulative(functions.monomial(1))
    assert abs(cum.total - 0.2) < 1e-15
    assert cum.error_bound <= numerics.active().rel_tol * cum.total


@pytest.mark.xfail(
    strict=True,
    reason="the boundary stub at 0 is split until its nodes land on 0, where "
    "the beta(0.5, 2) density is +inf, so it keeps err = inf",
)
def test_beta_half_two_mass_cumulative_builds():
    cum = measures.beta(0.5, 2).cumulative(np.ones_like)
    assert abs(cum.total - 1.0) < 1e-12


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
