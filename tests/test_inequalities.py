"""Covariance and Poincaré certificates: oracles, witnesses, hypotheses."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize, stats

from covineq import functions as fn
from covineq import inequalities as ineq
from covineq import kernel, measures
from covineq.certificates import certify
from covineq.errors import (
    DomainError,
    HypothesisViolatedError,
    IntegrationError,
    UnsupportedMeasureError,
)
from covineq.numerics import NumericContext, numeric_context

x = fn.monomial(1)
x2 = fn.monomial(2)
x3 = fn.monomial(3)


class TestCovarianceChecks:
    def test_l1_linf_ramp_approaches_equality(self, lap):
        c = ineq.check_cov_l1_linf(lap, x, fn.ramp(0.0, 1e-3))
        assert c.passed and abs(c.ratio - 1.0) < 2e-3

    def test_l1_linf_constant_g_trivial(self, lap):
        c = ineq.check_cov_l1_linf(lap, fn.constant(3.0), x)
        assert c.lhs == 0.0 and c.passed

    def test_lp_lq_T_closed_form_lhs(self, lap, uni):
        c = ineq.check_cov_lp_lq_T(lap, x, x, 2)
        assert abs(c.lhs - 2.0) < 1e-6 and c.passed
        c = ineq.check_cov_lp_lq_T(uni, x, x, 2)
        assert abs(c.lhs - 1.0 / 12.0) < 1e-9 and c.passed

    @pytest.mark.parametrize("centre", [False, True], ids=["x", "centered(x)"])
    def test_laplace_t_norm_closed_form(self, lap, centre):
        # T_0 x = x − 1 below 0 and x + 1 above on laplace(0,1), so
        # ‖T_0 x‖₂² = E(|X| + 1)² = 5, the hardy lhs and (Is = ‖g′‖₂ = 1) the
        # cov_lp_lq_T rhs; h = x is centred already
        h = fn.centered(x, lap) if centre else x
        assert kernel.hardy_certificate(lap, h, 0.0, 2.0).lhs == pytest.approx(
            math.sqrt(5.0), rel=1e-12, abs=0.0)
        assert ineq.check_cov_lp_lq_T(lap, h, h, 2).rhs == pytest.approx(
            math.sqrt(5.0), rel=1e-12, abs=0.0)

    def test_laplace_cheeger_variance_of_square(self, lap):
        # Var(X²) = E X⁴ − (E X²)² = 24 − 4 on laplace(0,1)
        c = ineq.check_cheeger(lap, fn.monomial(2))
        assert c.lhs == pytest.approx(20.0, rel=1e-12, abs=0.0)

    def test_lp_lq_laplace_rhs(self, lap):
        c = ineq.check_cov_lp_lq(lap, x, x, 2)
        assert abs(c.lhs - 2.0) < 1e-6
        assert abs(c.rhs - 2.0 * math.sqrt(2.0)) < 1e-6
        assert abs(c.ratio - math.sqrt(0.5)) < 1e-6

    def test_lp_lq_p_one_uses_sup_form(self, lap, uni):
        c = ineq.check_cov_lp_lq(lap, x, x, 1)
        assert c.passed and c.params["q"] == math.inf
        # constant 1: Is(uniform(0,1)) = 2 and sup|x − 1/2| = 1/2
        c = ineq.check_cov_lp_lq(uni, x, x, 1)
        assert c.params["q"] == math.inf
        assert abs(c.lhs - 1.0 / 12.0) < 1e-9
        assert abs(c.rhs - 0.25) < 1e-12
        assert abs(c.ratio - 1.0 / 3.0) < 1e-12

    @given(p=st.floats(min_value=1.1, max_value=6.0))
    def test_transform_bound_dominates_holder_bound(self, p):
        # the transform rhs is sharper than the q/(q-1)-inflated rhs for
        # every admissible p; certified here on a fixed witness pair
        gau = measures.gaussian(0, 1)
        c17 = ineq.check_cov_lp_lq_T(gau, x, x3, p)
        c18 = ineq.check_cov_lp_lq(gau, x, x3, p)
        assert c17.rhs <= c18.rhs * (1.0 + 1e-9)

    def test_cheeger_oracles(self, lap, uni):
        c = ineq.check_cheeger(lap, x)
        assert abs(c.lhs - 2.0) < 1e-6 and abs(c.rhs - 4.0) < 1e-6
        c = ineq.check_cheeger(uni, x)
        assert abs(c.lhs - 1.0 / 12.0) < 1e-9 and abs(c.rhs - 1.0) < 1e-6

    def test_cheeger_constant_g(self, lap):
        c = ineq.check_cheeger(lap, fn.constant(2.0))
        assert c.lhs == 0.0 and c.rhs == 0.0 and c.passed

    def test_cov_final_ratio_quarter(self, lap):
        c = ineq.check_cov_final(lap, x, x, 2)
        assert abs(c.ratio - 0.25) < 1e-6

    def test_cov_final_p_one_rejected(self, lap):
        with pytest.raises(DomainError):
            ineq.check_cov_final(lap, x, x, 1)

    def test_brascamp_lieb_gaussian_witness(self, gau):
        c = ineq.check_brascamp_lieb(gau, x, x)
        assert abs(c.ratio - 1.0) < 1e-6

    def test_brascamp_lieb_scales_with_variance(self):
        g2 = measures.gaussian(0, math.sqrt(2))
        c = ineq.check_brascamp_lieb(g2, x, x)
        assert abs(c.lhs - 2.0) < 1e-5 and abs(c.rhs - 2.0) < 1e-6

    def test_brascamp_lieb_needs_curvature(self, lap):
        with pytest.raises(UnsupportedMeasureError):
            ineq.check_brascamp_lieb(lap, x, x)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "m, h, exact",
        [
            # rhs = ‖h′‖₁·sup|W|/f; on the probe grid the sup sits at the
            # deepest tail probe t = isf(1e-13) wherever |W|/f grows
            (measures.gaussian(0, 1), x, lambda t: 1.0),  # W = f
            (measures.gaussian(0, 1), x2,  # W = x·f
             lambda t: 2 * math.sqrt(2 / math.pi) * t),
            (measures.laplace(0, 1), x2,  # W = (x² + 2x)·f above 0
             lambda t: 2 * (t * t + 2 * t)),
            (measures.exponential(1), x, lambda t: t),  # W = x·f
        ],
        ids=["gaussian-x", "gaussian-x2", "laplace-x2", "exponential-x"],
    )
    def test_cov_variant_gaussian_witness(self, m, h, exact, side):
        c = ineq.check_cov_variant(m, h, h, side)
        want = exact(float(m.dist.isf(1e-13)))
        assert abs(c.rhs - want) <= 1e-13 * want
        other = "right" if side == "left" else "left"
        assert c.rhs == ineq.check_cov_variant(m, h, h, other).rhs

    def test_cov_variant_bad_side(self, lap):
        with pytest.raises(DomainError):
            ineq.check_cov_variant(lap, x, x, "up")

    def test_cov_variant_sides_read_one_sup(self, monkeypatch):
        sups = []
        real = measures.Measure.ess_sup

        def spy(self, g, extra_knots=()):
            sups.append(self)
            return real(self, g, extra_knots)

        monkeypatch.setattr(measures.Measure, "ess_sup", spy)
        m = measures.gaussian(0, 1)
        left = ineq.check_cov_variant(m, x, x2, "left")
        right = ineq.check_cov_variant(m, x, x2, "right")
        assert len(sups) == 1
        assert (left.lhs, left.rhs, left.ratio) == (right.lhs, right.rhs, right.ratio)
        # the sup is W's alone: another g reads it too
        ineq.check_cov_variant(m, x3, x2, "left")
        assert len(sups) == 1
        ineq.check_cov_variant(m, x, fn.monomial(2), "left")
        ineq.check_cov_variant(measures.gaussian(0, 1), x, x2, "left")
        with numeric_context(NumericContext(rel_tol=1e-8)):
            ineq.check_cov_variant(m, x, x2, "right")
        assert len(sups) == 4


class TestLpPoincare:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_raw_p_odd_monomials_attain_equality(self, lap, k):
        c = ineq.check_lp_poincare(lap, fn.monomial(k), 1, "raw_p")
        assert abs(c.ratio - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "k, want",
        [(1, math.sqrt(0.5)), (3, math.sqrt(5 / 6)), (5, math.sqrt(9 / 10))],
    )
    def test_centered_p_closed_form_ratios(self, lap, k, want):
        c = ineq.check_lp_poincare(lap, fn.monomial(k), 2, "centered_p")
        assert abs(c.ratio - want) < 1e-5

    def test_unconditional_variant_needs_no_hypothesis(self, gau, expo):
        assert ineq.check_lp_poincare(gau, x2, 2, "centered_2p").passed
        assert ineq.check_lp_poincare(expo, x2, 2, "centered_2p").passed

    def test_raw_2p_odd_p(self, lap):
        c = ineq.check_lp_poincare(lap, x3, 3, "raw_2p")
        assert c.passed

    def test_raw_variants_require_odd_integer_p(self, lap):
        with pytest.raises(HypothesisViolatedError):
            ineq.check_lp_poincare(lap, x3, 2, "raw_p")

    def test_raw_requires_vanishing_signed_moment(self, expo):
        with pytest.raises(HypothesisViolatedError):
            ineq.check_lp_poincare(expo, x, 1, "raw_p")

    def test_centered_p_requires_sign_symmetry(self, expo):
        with pytest.raises(HypothesisViolatedError):
            ineq.check_lp_poincare(expo, x, 3, "centered_p")

    def test_variant_and_exponent_validation(self, lap):
        with pytest.raises(DomainError):
            ineq.check_lp_poincare(lap, x, 2, "centered")
        with pytest.raises(DomainError):
            ineq.check_lp_poincare(lap, x, 0.5, "centered_2p")

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize(
        "m_name", ["laplace", "gaussian", "uniform", "exponential"]
    )
    def test_soundness_battery(self, standard_measures, m_name, p):
        # every certificate whose hypotheses hold must pass
        m = {s.family: s for s in standard_measures}[m_name]
        for u in (x, x2, fn.ramp(float(m.median()), 0.3)):
            for variant in ineq.POINCARE_VARIANTS:
                try:
                    c = ineq.check_lp_poincare(m, u, p, variant)
                except HypothesisViolatedError:
                    continue
                assert c.passed, (m.label, u.descriptor, p, variant, c.describe())


class TestSandwich:
    def test_exponential_oracles(self, expo):
        c = ineq.check_mean_median_sandwich(expo, x)
        assert abs(c.side_conditions["median_abs_dev"] - math.log(2)) < 1e-6
        assert abs(c.lhs - 2.0 / math.e) < 1e-6 and c.passed

    def test_symmetric_centerings_agree(self, gau):
        c = ineq.check_mean_median_sandwich(gau, x)
        assert abs(c.lhs - c.side_conditions["median_abs_dev"]) < 1e-9

    def test_non_monotone_pushforward(self, lap):
        assert ineq.check_mean_median_sandwich(lap, x2).passed

    def test_pushforward_median_of_square(self, lap, gau):
        # P(X² ≤ c) = 1 − e^{−√c} on laplace(0,1); X² is chi2(1) on gaussian
        med, knots = ineq._pushforward_median(lap, x2)
        want = math.log(2) ** 2
        assert abs(med - want) <= 1e-14 * want
        assert np.allclose(knots, [-math.log(2), math.log(2)], rtol=1e-15)
        med, _ = ineq._pushforward_median(gau, x2)
        want = stats.chi2(1).median()
        assert abs(med - want) <= 1e-14 * want

    def test_pushforward_median_from_crossings(self, lap):
        # g falls on [−1, 0] and rises on [0, 2]; for c < 1, g ≤ c on
        # [−c/2, 2c], so the median solves e^{−2c} + e^{−c/2} = 1
        g = fn.piecewise_linear([-1.0, 0.0, 2.0], [2.0, 0.0, 1.0])
        want = optimize.brentq(
            lambda c: math.exp(-2 * c) + math.exp(-c / 2) - 1, 0.1, 0.9, xtol=1e-16
        )
        med, knots = ineq._pushforward_median(lap, g)
        assert abs(med - want) <= 1e-14 * want
        assert np.allclose(knots, [-want / 2, 2 * want], rtol=1e-14)

    def test_constant_g(self, lap):
        c = ineq.check_mean_median_sandwich(lap, fn.constant(5.0))
        assert c.lhs == 0.0 and c.passed

    def test_zero_g(self, lap):
        c = ineq.check_mean_median_sandwich(lap, fn.constant(0.0))
        assert c.lhs == c.rhs == 0.0 and c.passed

    def test_tiny_spread_is_not_collapsed(self):
        # the floor is relative to |E g|: a g of spread 1e-13 keeps it
        c = ineq.check_mean_median_sandwich(measures.gaussian(0, 1e-13), x)
        assert c.lhs > 0.0 and abs(c.ratio - 0.5) < 1e-9


class TestBestConstant:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_isoperimetric_constant_gives_infinite_target(self):
        # Is(lognorm(1)) = 0; the target 1/Is follows the certificates'
        # convention, and the ratios stay finite
        lognorm = measures.from_scipy(stats.lognorm(1), "lognorm")
        est = ineq.estimate_best_constant(lognorm, x, [1e-1, 1e-2])
        assert est.target == math.inf
        assert np.allclose(est.ratios, (1.12188, 1.12553), rtol=1e-5, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_integrable_g_raises(self):
        # E|X| = ∞ under Cauchy: Cov(x, h) diverges, and no ratio is returned
        cauchy = measures.from_scipy(stats.cauchy(), "cauchy")
        with pytest.raises(IntegrationError):
            ineq.estimate_best_constant(cauchy, x, [1e-1, 1e-2])

    def test_vacuous_ratio_with_zero_denominator_is_nan(self, lap, monkeypatch):
        # Is = 0 makes the bound vacuous; a zero ||T h0||_inf must not divide
        monkeypatch.setattr(ineq, "_inv_is", lambda m: math.inf)
        monkeypatch.setattr(kernel, "t_norm", lambda *args: 0.0)
        est = ineq.estimate_best_constant(lap, x, [1e-1, 1e-2])
        assert all(math.isnan(r) for r in est.ratios)


class TestVacuityRule:
    """A certificate whose rhs, after the rhs scale, is not finite is
    uninformative; every other certificate is informative."""

    def test_certify_flags_exactly_the_non_finite_rhs(self):
        assert certify("c", lhs=1.0, rhs=math.inf).uninformative
        assert certify("c", lhs=1.0, rhs=math.nan).uninformative
        assert not certify("c", lhs=1.0, rhs=2.0).uninformative
        with numeric_context(NumericContext(rhs_scale=0.5)):
            assert not certify("c", lhs=1.0, rhs=2.0).uninformative
            assert certify("c", lhs=1.0, rhs=math.inf).uninformative

    def test_rule_reads_the_scaled_rhs(self):
        # a finite rhs that the rhs scale overflows bounds nothing
        with numeric_context(NumericContext(rhs_scale=4.0)):
            c = certify("c", lhs=1.0, rhs=1e308)
        assert c.rhs == math.inf and c.uninformative

    def test_infinite_rhs_with_positive_is_is_flagged(self, monkeypatch):
        # Is(gaussian) > 0; the overflowed sup alone makes the rhs infinite
        gau = measures.gaussian(0, 1)
        monkeypatch.setattr(measures.Measure, "ess_sup", lambda *a, **k: math.inf)
        c = ineq.check_brascamp_lieb(gau, x, x)
        assert c.rhs == math.inf and c.uninformative

    @pytest.mark.parametrize("is_value", [0.0, 5e-324])
    def test_moment_comparison_without_is_is_flagged(self, is_value, monkeypatch):
        # Is = 0, or an Is so small that the rhs constant overflows
        lap = measures.laplace(0, 1)
        monkeypatch.setattr(ineq, "isoperimetric_value", lambda m: is_value)
        c = ineq.check_moment_comparison(lap, 2.0)
        assert c.rhs == math.inf and c.uninformative and c.passed


class TestOneArgumentRule:
    """Every exponent goes through ``measures.lp_exponent`` and every
    enumerated key through ``_one_of``, whoever calls the check."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda lap, gau: lap.lp_norm(x, "2"),
            lambda lap, gau: ineq.check_moment_growth(lap, "2"),
            lambda lap, gau: kernel.hardy_certificate(lap, x, 0.0, "2"),
            lambda lap, gau: ineq.check_logconcave_moments(gau, "3"),
        ],
        ids=["lp_norm", "moment_growth", "hardy", "logconcave_moments"],
    )
    def test_a_string_exponent_is_refused(self, lap, gau, call):
        with pytest.raises(DomainError, match="^p must be >= 1, got '"):
            call(lap, gau)

    def test_a_boolean_exponent_is_reported_as_given(self, lap):
        with pytest.raises(DomainError, match="^p must be >= 1, got True$"):
            kernel.hardy_certificate(lap, x, 0.0, True)

    @pytest.mark.parametrize("ps", [[math.inf], [2, math.inf]])
    def test_cp_sequence_refuses_an_infinite_p(self, ps):
        with pytest.raises(DomainError, match="finite"):
            ineq.cp_sequence(ps)
