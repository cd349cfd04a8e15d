"""Young functions, Orlicz (Luxemburg) norms, and the Orlicz certificate."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from covineq import functions as fn
from covineq import inequalities as ineq
from covineq import measures
from covineq.errors import DivergentNormError, DomainError

x = fn.monomial(1)
x2 = fn.monomial(2)
x3 = fn.monomial(3)


class TestYoungFunctions:
    def test_power_normalization_constant(self):
        assert ineq.young_power(2).cn == 2.0
        assert ineq.young_power(3).cn == 3.0

    def test_psi1_normalization_is_infinite(self):
        assert math.isinf(ineq.young_psi1().cn)


class TestOrliczNorm:
    def test_power_two_is_l2_norm(self, lap):
        assert abs(ineq.orlicz_norm(lap, x, ineq.young_power(2)) - math.sqrt(2)) < 1e-7

    def test_constant_function(self, lap):
        n = ineq.orlicz_norm(lap, fn.constant(3.0), ineq.young_power(2))
        assert abs(n - 3.0) < 3e-8
        # the lower end of ψ1's bracket, ‖g‖₁/ln 2, already has E[exp(3/λ) − 1] = 1
        assert ineq.orlicz_norm(lap, fn.constant(3.0), ineq.young_psi1()) == 3.0 / math.log(2)

    def test_psi1_exponential_closed_form(self, expo):
        # E[exp(x/λ)] = 2 at λ = 2 for the unit exponential
        assert abs(ineq.orlicz_norm(expo, x, ineq.young_psi1()) - 2.0) < 1e-7

    @given(
        p=st.floats(min_value=1.2, max_value=4.0),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_power_norm_agrees_with_lp_norm(self, lap, p, k):
        g = fn.monomial(k)
        want = lap.lp_norm(g, p)
        got = ineq.orlicz_norm(lap, g, ineq.young_power(p))
        assert abs(got - want) < 1e-6 * want

    @pytest.mark.parametrize("sd", [1e-10, 1e9])
    def test_norm_outside_initial_bracket(self, sd):
        # ‖x‖ under |x|^2 is the sd; the bracket starts as [1e-8, 1e8]
        got = ineq.orlicz_norm(measures.gaussian(0, sd), x, ineq.young_power(2))
        assert abs(got - sd) < 1e-7 * sd

    def test_modular_infinite_at_every_lambda_diverges(self):
        cauchy = measures.from_scipy(stats.cauchy(), "cauchy")
        with pytest.raises(DivergentNormError):
            ineq.orlicz_norm(cauchy, x, ineq.young_power(2))

    @pytest.mark.parametrize(
        "m, p, want",
        [
            # E[(x/λ)^50] = (1e9/λ)^50/51 underflows to 0 at λ = 1e16
            (measures.uniform(0, 1e9), 50, 1e9 * 51 ** (-1 / 50)),
            # E[(x/λ)^30] = 29!!·(1e-20/λ)^30 underflows to 0 at λ = 1e-8
            (measures.gaussian(0, 1e-20), 30, 1e-20 * math.prod(range(1, 30, 2)) ** (1 / 30)),
        ],
        ids=["uniform-1e9-p50", "gaussian-1e-20-p30"],
    )
    def test_norm_where_modular_underflows_to_zero(self, m, p, want):
        got = ineq.orlicz_norm(m, x, ineq.young_power(p))
        assert abs(got - want) < 1e-7 * want

    def test_modular_infinite_below_norm_slides_up(self):
        # E[exp(|x|/λ) − 1] is infinite for λ <= 1e9 and 1e9/(λ − 1e9) above
        got = ineq.orlicz_norm(measures.laplace(0, 1e9), x, ineq.young_psi1())
        assert abs(got - 2e9) < 1e-7 * 2e9

    def test_psi1_bracket_slides_past_the_probe_grid(self):
        # g is 0 on every probe point (the deepest is isf(1e-13) ≈ 7.35), so
        # the bracket starts empty and slides; the norm solves
        # ∫₈⁹ expm1(1e6(x−8)/λ)φ(x)dx + expm1(1e6/λ)·Φ(−9) = 1 (mpmath, 40 digits)
        g = fn.piecewise_linear([8.0, 9.0], [0.0, 1e6])
        got = ineq.orlicz_norm(measures.gaussian(0, 1), g, ineq.young_psi1())
        want = 23044.987083571404872
        assert abs(got - want) < 1e-12 * want

    @pytest.mark.parametrize(
        "young, probe",
        [(ineq.young_power(2), lambda m: m.probe_points(64)[40]),
         (ineq.young_psi1(), lambda m: m.probe_points()[1000])],
        ids=["power", "psi1"],
    )
    def test_spike_on_a_probe_point_is_mass_lost(self, young, probe):
        # g is 1 on a 2e-9 wide spike at a probe point of the grid that
        # orlicz_norm takes its sup on, so sup|g| = 1, and 0 elsewhere: no
        # quadrature node lands on the spike, so ‖g‖ reads 0 and is refused
        m = measures.laplace(0, 1)
        p0 = probe(m)

        def g(v):
            return np.where(np.abs(np.asarray(v, dtype=float) - p0) < 1e-9, 1.0, 0.0)

        with pytest.raises(DivergentNormError, match="the quadrature lost the mass"):
            ineq.orlicz_norm(m, g, young)

    def test_modular_above_one_at_every_lambda_slides_past_the_float_range(self, lap):
        # a stub N ≡ 2 keeps E[N(g/λ)] at 2 for every λ, so the bracket slides
        # up 1e8-fold at a time until λ would pass the largest float
        two = ineq.YoungFunction(
            lambda v: np.full(np.shape(v), 2.0), math.inf, math.log(2.0), "two"
        )
        with pytest.raises(DivergentNormError, match="stays above 1 for lambda up to"):
            ineq.orlicz_norm(lap, x, two)

    def test_modular_lost_by_quadrature_diverges(self):
        # E|x| is infinite under Cauchy: the quadrature raises IntegrationError
        # (its shells grow toward -inf), which orlicz_norm turns into
        # DivergentNormError
        cauchy = measures.from_scipy(stats.cauchy(), "cauchy")
        with pytest.raises(DivergentNormError):
            ineq.orlicz_norm(cauchy, x, ineq.young_power(1))

    @pytest.mark.parametrize(
        "m",
        [
            pytest.param(m, id=m.label, marks=pytest.mark.xfail(
                strict=True,
                reason="E exp(X²/λ) = ∞ for every λ, but the modular is read on "
                "the quadrature window, so the norm comes out near its end, isf(1e-300)",
            ))
            for m in (measures.laplace(0, 1), measures.exponential(1))
        ],
    )
    def test_psi1_of_x2_diverges_beyond_gaussian_tails(self, m):
        with pytest.raises(DivergentNormError):
            ineq.orlicz_norm(m, x2, ineq.young_psi1())

    def test_psi1_of_x2_on_gaussian(self, gau):
        # E exp(X²/λ) = (1 − 2/λ)^{−1/2} = 2 at λ = 8/3
        assert abs(ineq.orlicz_norm(gau, x2, ineq.young_psi1()) - 8 / 3) < 1e-12


class TestExactNorms:
    @pytest.fixture()
    def expectations(self, monkeypatch):
        calls = []
        real = measures.Measure.expectation

        def spy(self, g, knots=()):
            calls.append(g)
            return real(self, g, knots)

        monkeypatch.setattr(measures.Measure, "expectation", spy)
        return calls

    def test_power_norm_is_one_quadrature(self, quadratures):
        # a fresh measure: the memo of a shared one may hold ‖x‖₂ already
        n = ineq.orlicz_norm(measures.laplace(0, 1), x, ineq.young_power(2))
        assert quadratures == ["integrate"]
        assert abs(n - math.sqrt(2)) < 1e-13

    def test_power_function_is_marked(self):
        assert ineq.young_power(2.5).power == 2.5
        assert ineq.young_psi1().power is None

    def test_psi1_laplace_closed_form(self, lap):
        # E[exp(|X|/λ)] = λ/(λ − 1) = 2 at λ = 2
        assert abs(ineq.orlicz_norm(lap, fn.centered(x, lap), ineq.young_psi1()) - 2.0) < 1e-12

    def test_psi1_exponential_centered(self, expo):
        # the root of E[exp(|X − 1|/λ)] = 2 from mpmath at 30 digits; the
        # earlier geometric bisection gave 1.5313468496269993
        got = ineq.orlicz_norm(expo, fn.centered(x, expo), ineq.young_psi1())
        assert abs(got - 1.5313468496269993) < 1e-8 * got
        assert abs(got - 1.5313468378543573) < 1e-13 * got

    def test_power_norm_probes_only_the_lp_grid(self, lap):
        # the guards of the |x|^p branch read g on probe_points(64), which
        # lp_norm probes for its unit, not on the 2,048-point grid
        points = []

        def ev(v):
            v = np.asarray(v, dtype=float)
            points.append(v.size)
            return v

        g = fn.DifferentiableFunction(ev, np.ones_like, (), "counted")
        want = lap.lp_norm(g, 2.0)
        points.clear()
        assert ineq.orlicz_norm(lap, g, ineq.young_power(2)) == want
        # the norm itself is the memo's entry
        assert sum(points) == lap.probe_points(64).size

    def test_power_norm_of_g_not_finite_on_probe_grid(self, lap):
        with pytest.raises(DivergentNormError, match="not finite"):
            ineq.orlicz_norm(lap, lambda v: np.exp(np.asarray(v) ** 2), ineq.young_power(2))

    def test_psi1_costs_few_quadratures(self, lap, expectations):
        g = fn.centered(x, lap)
        expectations.clear()
        ineq.orlicz_norm(lap, g, ineq.young_psi1())
        assert len(expectations) <= 15


class TestOrliczCertificate:
    def test_median_centered_oracle(self, lap):
        c = ineq.check_orlicz(lap, x, ineq.young_power(2), "median_centered")
        assert abs(c.lhs - math.sqrt(2)) < 1e-6
        assert abs(c.rhs - 2.0) < 1e-6
        assert c.passed

    def test_mean_centered_doubles_constant(self, lap):
        c = ineq.check_orlicz(lap, x, ineq.young_power(2), "mean_centered")
        assert abs(c.rhs - 4.0) < 1e-6 and c.passed

    def test_nonlinear_f(self, lap):
        assert ineq.check_orlicz(lap, x2, ineq.young_power(2), "median_centered").passed

    def test_constant_f_trivial(self, lap):
        c = ineq.check_orlicz(lap, fn.constant(1.0), ineq.young_power(2), "median_centered")
        assert c.lhs == 0.0 and c.passed

    def test_psi1_rejected_for_certificate(self, lap):
        # the multiplicative constant blows up when the normalization is infinite
        with pytest.raises(DomainError):
            ineq.check_orlicz(lap, x, ineq.young_psi1(), "median_centered")

    def test_bad_centering_keyword(self, lap):
        with pytest.raises(DomainError):
            ineq.check_orlicz(lap, x, ineq.young_power(2), "both")
