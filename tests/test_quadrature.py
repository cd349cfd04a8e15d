"""Adaptive quadrature: oracles, error control, cumulative queries."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covineq import measures, numerics, quadrature, runner
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
