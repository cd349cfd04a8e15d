"""Covariance and Poincaré certificates: oracles, witnesses, hypotheses."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize, stats

from covineq import functions as fn
from covineq import inequalities as ineq
from covineq import config as cfg
from covineq import kernel, measures, runner
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


def _t_norm_truth(family, p):
    """‖T_m x‖_p at the median m of exponential(1), gaussian(0,1) or
    uniform(0,1), from T in closed form, in 30-digit mpmath."""
    with mpmath.workdps(30):
        if family == "exponential":
            ends, dens = (0, mpmath.log(2), mpmath.inf), lambda t: mpmath.exp(-t)
            sides = (lambda t: (1 - (1 + t) * mpmath.exp(-t)) / -mpmath.expm1(-t),
                     lambda t: t + 1)
        elif family == "gaussian":
            ends, dens = (-mpmath.inf, 0, mpmath.inf), mpmath.npdf
            sides = (lambda t: -mpmath.npdf(t) / mpmath.ncdf(t),
                     lambda t: mpmath.npdf(t) / mpmath.ncdf(-t))
        else:
            ends, dens = (0, mpmath.mpf(1) / 2, 1), lambda t: 1
            sides = (lambda t: t / 2, lambda t: (1 + t) / 2)
        q = mpmath.mpf(p)
        moment = sum(mpmath.quad(lambda t, T=T: abs(T(t)) ** q * dens(t), [a, b])
                     for T, a, b in zip(sides, ends[:-1], ends[1:]))
        return float(moment ** (1 / q))


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

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("family", ["exponential", "gaussian", "uniform"])
    def test_t_norm_closed_form(self, family, p):
        # T_m x at the median m in closed form: E[X | X ≤ t] below m and
        # E[X | X > t] above; ‖T_m x‖_p from it by 30-digit quadrature
        m = {"exponential": measures.exponential(1), "gaussian": measures.gaussian(0, 1),
             "uniform": measures.uniform(0, 1)}[family]
        assert kernel.hardy_certificate(m, x, m.median(), p).lhs == pytest.approx(
            _t_norm_truth(family, p), rel=1e-12, abs=0.0)

    def test_uniform_t_norm_truth_is_exact(self):
        # ∫_0^½ (t/2)² dt + ∫_½^1 ((1 + t)/2)² dt = 1/96 + 37/96
        assert _t_norm_truth("uniform", 2.0) == pytest.approx(math.sqrt(19 / 48),
                                                              rel=1e-15, abs=0.0)

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

    def test_raw_p_requires_vanishing_mean_sign(self, expo):
        # E[X − 1] = 0 on exponential(1), but E[sign(X − 1)] = 2/e − 1
        with pytest.raises(HypothesisViolatedError, match="E\\[sign") as info:
            ineq.check_lp_poincare(expo, fn.shifted(x, -1.0), 1, "raw_p")
        assert info.value.value == pytest.approx(2.0 / math.e - 1.0, rel=1e-9)

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


def _order(v):
    i = int(np.float64(v).view(np.int64))
    return i if i >= 0 else -(1 << 63) - i


def _unorder(i):
    return float(np.int64(i if i >= 0 else -(1 << 63) - i).view(np.float64))


def _bisected_median(m, g):
    """The nested bisection ``_pushforward_median`` replaced, as the reference:
    (median, crossings, calls of g, whether every crossing it returns sits
    at adjacent floats).  Each crossing of g = c is bisected from its probe
    bracket for at most 60 steps, and c over the ordered floats to the
    smallest c with P(g(X) ≤ c) ≥ 1/2."""
    calls = [0]

    def g_of(x):
        calls[0] += 1
        return np.asarray(g(x), dtype=float)

    pts = m.probe_points()
    vals = g_of(pts)
    d = np.diff(vals)
    if np.all(d >= 0.0) or np.all(d <= 0.0):
        med = m.median()
        return float(g_of(med)), (med,), calls[0], True

    def crossings(c):
        below = vals <= c
        flip = np.flatnonzero(below[:-1] != below[1:])
        a, b, rising = pts[flip], pts[flip + 1], below[flip]
        for _ in range(60):
            mid = a + 0.5 * (b - a)
            if np.all((mid == a) | (mid == b)):
                break
            same = (g_of(mid) <= c) == rising
            a, b = np.where(same, mid, a), np.where(same, b, mid)
        mid = a + 0.5 * (b - a)
        return mid, rising, below, bool(np.all((mid == a) | (mid == b)))

    def mass_below(c):
        xs, rising, below, _ = crossings(c)
        cdf = np.asarray(m.cdf(xs), dtype=float)
        total = float(np.sum(cdf[rising]) - np.sum(cdf[~rising]))
        return total + (1.0 if below[-1] else 0.0)

    lo, hi = float(np.min(vals)), float(np.max(vals))
    if mass_below(lo) >= 0.5:
        med = lo
    else:
        i_lo, i_hi = _order(lo), _order(hi)
        while i_hi - i_lo > 1:
            i_mid = (i_lo + i_hi) // 2
            if mass_below(_unorder(i_mid)) >= 0.5:
                i_hi = i_mid
            else:
                i_lo = i_mid
        med = _unorder(i_hi)
    xs, _, _, adjacent = crossings(med)
    return med, tuple(xs.tolist()), calls[0], adjacent


def _counted(g):
    """g with its calls of g and g′ counted."""
    n = {"g": 0, "prime": 0}

    def ev(x):
        n["g"] += 1
        return g.eval(x)

    def dv(x):
        n["prime"] += 1
        return g.deriv(x)

    return fn.DifferentiableFunction(ev, dv, g.knots, g.descriptor), n


SANDWICH_MEASURES = ("laplace:0,1", "gaussian:0,1", "logistic:0,2", "exponential:1", "beta:2,3")
SANDWICH_FUNCTIONS = ("x^2", "ramp(0,0.5)*ramp(2,0.5)", "x*(x^2-1)", "x*ramp(0,0.5)",
                      "abspow(1.5)-0.3", "x^4-1", "x^3*(x^2-1)+0.1", "x^3*(x^2-4)")
# g is 0.1 in floats for |x| < 1.9e-6, so P(g(X) ≤ c) jumps at c = 0.1 across
# a plateau narrower than the probe spacing: the level search takes 44 and
# 52 levels, each with a near-triple crossing at 0 that takes about 90
# rounds of g and g′
_TRIPLE_PLATEAU = {
    ("gaussian:0,1", "x^3*(x^2-1)+0.1"): "4,362 calls of g and 4,229 of g′, "
    "one point each, against the bisection's 3,373 calls of g",
    ("logistic:0,2", "x^3*(x^2-1)+0.1"): "5,052 calls of g and 4,895 of g′, "
    "one point each, against the bisection's 3,448 calls of g",
}


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

    @pytest.mark.parametrize("expr", SANDWICH_FUNCTIONS)
    @pytest.mark.parametrize("spec", SANDWICH_MEASURES)
    def test_pushforward_median_against_bisection(self, spec, expr, request):
        # the Newton search stops at the adjacent pair the bisection stops
        # at, so where every reference crossing reached adjacent floats the
        # median and crossings are the same bits; it never calls g and g′
        # more often than the bisection calls g, except on a float plateau
        # at the median (_TRIPLE_PLATEAU), where the medians still agree
        if (spec, expr) in _TRIPLE_PLATEAU:
            request.applymarker(pytest.mark.xfail(
                strict=True, reason="the median search's worst case: "
                + _TRIPLE_PLATEAU[spec, expr]))
        m = cfg.parse_measure_spec(spec)
        g = fn.parse_expression(expr).bind(m)
        ref_g, _ = _counted(g)
        med_ref, xs_ref, ref_calls, adjacent = _bisected_median(m, ref_g)
        new_g, n = _counted(g)
        med, xs = ineq._pushforward_median(m, new_g)
        if adjacent:
            assert [v.hex() for v in (med, *xs)] == [v.hex() for v in (med_ref, *xs_ref)]
        assert n["g"] + n["prime"] <= ref_calls

    @pytest.mark.parametrize("expr", SANDWICH_FUNCTIONS)
    @pytest.mark.parametrize("spec", SANDWICH_MEASURES)
    def test_crossings_reach_adjacent_floats(self, spec, expr):
        # g ≤ med changes between each crossing and a neighbouring float; the
        # bisection's 60-step cap stopped short of that on a bracket around 0
        # (x*(x^2-1) on gaussian(0,1) crossed at 1.3914529937012342e-16, the
        # adjacent pair being at 1.391458212335883e-16)
        # (a g monotone on the probe grid returns the median of X instead)
        m = cfg.parse_measure_spec(spec)
        g = fn.parse_expression(expr).bind(m)
        med, xs = ineq._pushforward_median(m, g)
        d = np.diff(g(m.probe_points()))
        if np.all(d >= 0.0) or np.all(d <= 0.0):
            assert xs == (m.median(),)
            return
        for x in xs:
            near = np.array([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])
            below = np.asarray(g(near), dtype=float) <= med
            assert below[0] != below[1] or below[1] != below[2], (x, med)

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


def _default_truth(name, family, p, field):
    """A default ``verify`` row's ``field`` (its lhs, or a side condition of
    the sandwich with g = x²) in closed form or 30-digit mpmath."""
    mp = mpmath
    with mp.workdps(30):
        if name == "psi1_bound":  # the ψ1 norm of X − EX: E e^{|X − EX|/λ} = 2
            modular, start = {
                "laplace(0,1)": (lambda lam: 1 / (1 - 1 / lam), 1.5),
                "gaussian(0,1)": (lambda lam: 2 * mp.exp(1 / (2 * lam**2)) * mp.ncdf(1 / lam),
                                  1.5),
                "uniform(0,1)": (lambda lam: 2 * lam * mp.expm1(1 / (2 * lam)), 0.5),
            }[family]
            return float(mp.findroot(lambda lam: modular(lam) - 2, start))
        if name == "moment_growth":  # ‖X − EX‖_p
            q = mp.mpf(p)
            moment = {
                "laplace(0,1)": lambda: mp.gamma(q + 1),
                "gaussian(0,1)": lambda: 2 ** (q / 2) * mp.gamma((q + 1) / 2) / mp.sqrt(mp.pi),
                "uniform(0,1)": lambda: 2**-q / (q + 1),
                "exponential(1)": lambda: mp.quad(
                    lambda t: abs(t - 1) ** q * mp.exp(-t), [0, 1, mp.inf]),
            }[family]()
            return float(moment ** (1 / q))
        if name == "cheeger":  # Var X²
            return {"gaussian(0,1)": 2.0, "uniform(0,1)": 4 / 45,
                    "exponential(1)": 20.0}[family]
        # the sandwich: E|X² − c|, c the median or the mean of X², over |X|
        density = {"laplace(0,1)": lambda t: mp.exp(-t),
                   "gaussian(0,1)": lambda t: 2 * mp.npdf(t)}[family]
        c = {("laplace(0,1)", "median_abs_dev"): mp.log(2) ** 2,
             ("gaussian(0,1)", "median_abs_dev"): 2 * mp.erfinv(mp.mpf(1) / 2) ** 2,
             ("gaussian(0,1)", "mean_abs_dev"): mp.mpf(1)}[family, field]
        return float(mp.quad(lambda t: abs(t * t - c) * density(t), [0, mp.sqrt(c), mp.inf]))


class TestDefaultReportTruth:
    """Rows of the default ``verify`` against closed forms and mpmath, to
    10·rel_tol relative (ROADMAP item 12)."""

    @pytest.fixture(scope="class")
    def rows(self):
        res = runner.run(cfg.parse_config(cfg.default_config_dict()))
        return {(c.name, c.params["family"], c.params.get("g"), c.params.get("p")): c
                for c in res.certificates}

    @pytest.mark.parametrize("name, family, g, p, field", [
        *(("psi1_bound", f, None, None, "lhs")
          for f in ("laplace(0,1)", "gaussian(0,1)", "uniform(0,1)")),
        *(("moment_growth", f, None, p, "lhs")
          for f in ("laplace(0,1)", "gaussian(0,1)", "uniform(0,1)", "exponential(1)")
          for p in (1.0, 2.0, 3.0)),
        *(("cheeger", f, "monomial(2)", 2.0, "lhs")
          for f in ("gaussian(0,1)", "uniform(0,1)", "exponential(1)")),
        ("mean_median_sandwich", "laplace(0,1)", "monomial(2)", None, "median_abs_dev"),
        ("mean_median_sandwich", "gaussian(0,1)", "monomial(2)", None, "median_abs_dev"),
        ("mean_median_sandwich", "gaussian(0,1)", "monomial(2)", None, "mean_abs_dev"),
    ])
    def test_row_matches_truth(self, rows, name, family, g, p, field):
        row = rows[name, family, g, p]
        value = row.lhs if field == "lhs" else row.side_conditions[field]
        assert row.status == "ok"
        assert value == pytest.approx(_default_truth(name, family, p, field),
                                      rel=1e-8, abs=0.0)
