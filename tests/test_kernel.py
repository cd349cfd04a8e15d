"""Kernel representation, tail identities, the moving-point transform, Hardy."""

import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given
from hypothesis import strategies as st_h

from covineq import functions as fn
from covineq import kernel, measures, quadrature
from covineq.errors import DomainError
from covineq.numerics import NumericContext, numeric_context

x = fn.monomial(1)
x2 = fn.monomial(2)
x3 = fn.monomial(3)
one = fn.constant(1.0)


class TestKernelEval:
    def test_uniform_closed_form(self):
        u = measures.uniform(0, 1)
        assert abs(kernel.kernel_eval(u, 0.5, 0.5) - 0.25) < 1e-15
        assert abs(kernel.kernel_eval(u, 0.3, 0.7) - 0.09) < 1e-15

    @given(
        t1=st_h.floats(min_value=0.001, max_value=0.999),
        t2=st_h.floats(min_value=0.001, max_value=0.999),
    )
    def test_symmetric_nonnegative(self, t1, t2):
        m = measures.gaussian(0, 1)
        a, b = m.quantile(t1), m.quantile(t2)
        k1, k2 = kernel.kernel_eval(m, a, b), kernel.kernel_eval(m, b, a)
        assert k1 >= 0.0
        assert abs(k1 - k2) < 1e-14


class TestCovariance:
    @pytest.mark.parametrize(
        "m, g, h, want, tol",
        [
            (measures.gaussian(0, 1), x, x, 1.0, 1e-6),
            (measures.laplace(0, 1), x, x, 2.0, 1e-6),
            (measures.gaussian(0, 1), x, x3, 3.0, 1e-6),
            (measures.uniform(0, 1), x, x2, 1.0 / 12.0, 1e-9),
        ],
    )
    def test_kernel_matches_closed_form(self, m, g, h, want, tol):
        assert abs(kernel.covariance_kernel(m, g, h) - want) <= tol
        assert abs(kernel.covariance_direct(m, g, h) - want) <= max(tol, 1e-7)

    def test_representation_agreement_battery(self):
        pairs = [
            (measures.gaussian(0, 1), x, x2),
            (measures.laplace(0, 1), x, x3),
            (measures.uniform(0, 1), x2, x3),
            (measures.exponential(1), x, x2),
            (measures.logistic(0, 1), x, x),
            (measures.beta(2, 5), x2, x),
            (measures.laplace(0, 1), fn.ramp(0.0, 0.1), x),
            (measures.gaussian(0, 1), fn.abs_power(1.5), x),
        ]
        for m, g, h in pairs:
            cd = kernel.covariance_direct(m, g, h)
            ck = kernel.covariance_kernel(m, g, h)
            assert abs(ck - cd) <= 1e-6 * (1.0 + abs(cd)), (m.label, g.descriptor)

    def test_constant_factor_gives_exact_zero(self):
        assert kernel.covariance_kernel(measures.laplace(0, 1), one, x) == 0.0


class TestCovarianceMemo:
    def test_second_call_makes_no_quadrature(self, quadratures):
        m = measures.laplace(0, 1)
        first = kernel.covariance_kernel(m, x, x3)
        built = len(quadratures)
        assert built > 0
        assert kernel.covariance_kernel(m, x, x3) == first
        assert len(quadratures) == built

    def test_other_functions_measure_or_tolerance_is_a_miss(self, quadratures):
        m = measures.laplace(0, 1)
        kernel.covariance_kernel(m, x, x3)
        built = len(quadratures)
        for args in ((m, fn.monomial(1), x3), (m, x, fn.monomial(3)),
                     (measures.laplace(0, 1), x, x3)):
            kernel.covariance_kernel(*args)
            assert len(quadratures) > built
            built = len(quadratures)
        with numeric_context(NumericContext(rel_tol=1e-8)):
            kernel.covariance_kernel(m, x, x3)
        assert len(quadratures) > built
        built = len(quadratures)
        kernel.covariance_kernel(m, x, x3)
        assert len(quadratures) == built


class TestTailWeights:
    def test_uniform_identity_closed_form(self):
        w = kernel.tail_weight(measures.uniform(0, 1), x)
        t = np.linspace(0.0, 1.0, 21)
        want = t / 2 - t**2 / 2
        assert np.allclose(w(t), want, rtol=0, atol=1e-12)

    def test_each_side_queried_only_on_its_points(self, monkeypatch):
        queried, integrand = [], []
        for name in ("left", "right"):
            query = getattr(quadrature.CumulativeIntegral, name)

            def spy(self, t, query=query):
                queried.append(np.size(t))
                return query(self, t)

            monkeypatch.setattr(quadrature.CumulativeIntegral, name, spy)
        integrate = quadrature.integrate

        def counted(f, *args, **kwargs):
            def f_counted(t):
                integrand.append(np.size(t))
                return f(t)

            return integrate(f_counted, *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counted)
        m = measures.gaussian(0, 1)
        # W at each integrand point comes from one cumulative side, not both
        kernel.covariance_kernel(m, x, x2)
        assert sum(integrand) > 0 and sum(queried) == sum(integrand)
        # T_k h: one side of the numerator and one of the mass per point
        T = kernel.t_transform(m, x, 0.3)
        queried.clear()
        xs = np.linspace(-3.0, 3.0, 101)
        T(xs)
        assert sum(queried) == 2 * len(xs)


class TestTailIdentities:
    def test_uniform_midpoint_oracle(self):
        u = measures.uniform(0, 1)
        for which in (kernel.tail_identity_left, kernel.tail_identity_right):
            l, r = which(u, x, 0.5)
            assert abs(l - 0.125) < 1e-9 and abs(r - 0.125) < 1e-9

    def test_gaussian_density_value(self):
        l, r = kernel.tail_identity_right(measures.gaussian(0, 1), x, 0.0)
        phi0 = st.norm.pdf(0.0)
        assert abs(l - phi0) < 1e-9 and abs(r - phi0) < 1e-9

    def test_constant_h_both_sides_vanish(self):
        l, r = kernel.tail_identity_left(measures.gaussian(0, 1), one, 0.3)
        assert abs(l) < 1e-12 and abs(r) < 1e-12

    @pytest.mark.parametrize(
        "m",
        [measures.uniform(0, 1), measures.gaussian(0, 1), measures.laplace(0, 1),
         measures.exponential(1), measures.logistic(0, 1)],
        ids=lambda m: m.label,
    )
    def test_identities_hold_across_quantiles(self, m):
        for h in (x, x2):
            for z in m.quantile(np.linspace(0.025, 0.975, 20)):
                for which in (kernel.tail_identity_left, kernel.tail_identity_right):
                    l, r = which(m, h, float(z))
                    scale = max(abs(l), abs(r), 1e-12)
                    assert abs(l - r) <= 1e-6 * scale


class TestTransform:
    def test_constant_h_is_exactly_one_everywhere(self):
        lap = measures.laplace(0, 1)
        T = kernel.t_transform(lap, one, 0.0)
        probe = np.concatenate(
            [lap.quantile(np.linspace(0.001, 0.999, 99)), [-600.0, 600.0]]
        )
        assert np.all(T(probe) == 1.0)

    def test_uniform_linear_h(self):
        Tu = kernel.t_transform(measures.uniform(0, 1), x, 1.0)
        xs = np.linspace(0.05, 0.95, 19)
        assert np.max(np.abs(Tu(xs) - xs / 2.0)) < 1e-9

    def test_laplace_median_knee(self):
        Tm = kernel.t_transform(measures.laplace(0, 1), x, 0.0)
        for pt, want in [(-2.0, -3.0), (-0.5, -1.5), (0.5, 1.5), (2.0, 3.0)]:
            assert abs(Tm(pt) - want) < 1e-9

    def test_underflowed_tail_mass_gives_h(self):
        # on beta(2,3), F(x) and ∫_0^x t dF(t) both underflow below ~1e-162
        b = measures.beta(2, 3)
        T = kernel.t_transform(b, x, b.median())
        lo, hi = b.integration_domain()
        vals = T(np.array([lo, 1e-170, hi]))
        assert np.all(np.isfinite(vals))
        assert vals[1] == 1e-170 and vals[2] == np.nextafter(hi, lo)

    def test_mass_cumulative_shared_with_centered_h(self, quadratures):
        m = measures.laplace(0, 1)
        h = fn.ramp(0.3, 0.2)
        kernel.t_transform(m, h, 0.0)
        kernel.t_transform(m, fn.centered(h, m), 0.0)
        # h, h₀ = h − E[h] and the mass 1: three cumulatives, not four
        assert quadratures.count("cumulative") == 3
        with numeric_context(NumericContext(rel_tol=1e-8)):
            kernel.t_transform(m, h, 0.0)
        kernel.t_transform(measures.laplace(0, 1), h, 0.0)
        assert quadratures.count("cumulative") == 7
        # another h with other knots needs its own mass as well
        kernel.t_transform(m, fn.ramp(0.5, 0.2), 0.0)
        assert quadratures.count("cumulative") == 9

    def test_t_norm_oracles(self):
        lap = measures.laplace(0, 1)
        assert abs(kernel.t_norm(lap, x, 0.0, 2.0) - math.sqrt(5.0)) < 1e-7
        for p in (1.0, 2.0, math.inf):
            assert abs(kernel.t_norm(lap, one, 0.0, p) - 1.0) < 1e-9

    def test_t_norm_bounded_h_never_exceeds_sup(self):
        r = fn.ramp(0.3, 0.2)
        for m in (measures.gaussian(0, 1), measures.laplace(0, 1),
                  measures.uniform(0, 1)):
            assert kernel.t_norm(m, r, m.median(), math.inf) <= 1.0 + 1e-9


class TestHardy:
    def test_uniform_power_sharp_ratio(self):
        u = measures.uniform(0, 1)
        c = kernel.hardy_certificate(u, fn.power(-0.25), 1.0, 2.0)
        assert c.passed and abs(c.ratio - 2.0 / 3.0) < 1e-6

    def test_uniform_constant_ratio_half(self):
        u = measures.uniform(0, 1)
        c = kernel.hardy_certificate(u, one, 1.0, 2.0)
        assert c.passed and abs(c.ratio - 0.5) < 1e-9

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize(
        "m",
        [measures.laplace(0, 1), measures.gaussian(0, 1), measures.uniform(0, 1),
         measures.exponential(1)],
        ids=lambda m: m.label,
    )
    def test_no_violations_across_families(self, m, p):
        for h in (x, x2, fn.ramp(float(m.median()), 0.5)):
            c = kernel.hardy_certificate(m, h, float(m.median()), p)
            assert c.passed, c.describe()

    def test_beta_with_underflowing_tail(self):
        b = measures.beta(2, 3)
        c = kernel.hardy_certificate(b, x, b.median(), 2.0)
        assert c.passed and abs(c.ratio - 0.5613) < 1e-4

    def test_p_one_rejected(self):
        with pytest.raises(DomainError):
            kernel.hardy_certificate(measures.laplace(0, 1), x, 0.0, 1.0)

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_t_norm_rejects_p_before_building(self, monkeypatch, p):
        builds = []
        real = quadrature.cumulative
        monkeypatch.setattr(
            quadrature, "cumulative", lambda *a, **kw: builds.append(1) or real(*a, **kw)
        )
        with pytest.raises(DomainError, match="p >= 1"):
            kernel.t_norm(measures.laplace(0, 1), x, 0.0, p)
        assert builds == []
