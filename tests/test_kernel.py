"""Kernel representation, tail identities, the moving-point transform, Hardy."""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given
from hypothesis import strategies as st_h

from covineq import functions as fn
from covineq import config, kernel, measures, quadrature
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
        queried, integrand, density = [], [], []
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
        # T_k h: each point's side evaluates the density on the 15 nodes of
        # that point only, once for the numerator and the mass together
        T = kernel.t_transform(m, x, 0.3)
        pdf = measures.Measure.pdf
        monkeypatch.setattr(measures.Measure, "pdf",
                            lambda self, t: density.append(np.size(t)) or pdf(self, t))
        xs = np.linspace(-3.0, 3.0, 101) + 1e-3  # none on a panel edge
        T(xs)
        assert sum(density) == 15 * len(xs) and len(density) == 2


def _two_query_t(m, h, k):
    """T_k h read as two queries and a division: ∫ h dF and ∫ dF, each
    from its own cumulative's left/right, and h(x) where the mass is 0."""
    integral, mass = m.cumulative(h), m.cumulative(np.ones_like, h.knots)
    lo, hi = m.integration_domain()

    def T(xs):
        xc = np.clip(xs, np.nextafter(lo, hi), np.nextafter(hi, lo))
        num = kernel._split(xc, k, integral.left, integral.right)
        den = kernel._split(xc, k, mass.left, mass.right)
        out = np.divide(num, den, out=np.empty_like(xc), where=den > 0.0)
        out[~(den > 0.0)] = h(xc[~(den > 0.0)])
        return out

    return T


def _t_probes(m, k):
    """The probe grid, 3,000 quantiles, ladders into both window ends, the
    window ends themselves and both sides of k."""
    lo, hi = m.integration_domain()
    ladder = (hi - lo) * 2.0 ** -np.arange(1, 53)
    levels = np.random.default_rng(11).uniform(size=3000)
    return np.concatenate([m.probe_points(), m.quantile(levels), lo + ladder,
                           hi - ladder, [lo, hi, k, np.nextafter(k, hi)]])


def _default_pairs():
    cfg = config.parse_config(config.default_config_dict())
    for m in cfg.measures:
        for expr in cfg.functions:
            h = expr.bind(m)
            yield m, h
            yield m, fn.centered(h, m)


def _extremal_pairs():
    for m in (measures.gaussian(0, 1), measures.laplace(0, 1), measures.exponential(1),
              measures.uniform(0, 1), measures.logistic(0, 1)):
        for d in (1e-1, 1e-2, 1e-3, 1e-4):
            yield m, fn.centered(fn.ramp(m.median(), d), m)


class TestOnePassRead:
    """T reads its numerator and its mass in one pass, bit for bit the two
    reads of ``_two_query_t``."""

    def _assert_same_bits(self, m, h, k):
        probes = _t_probes(m, k)
        new = kernel.t_transform(m, h, k)(probes)
        old = _two_query_t(m, h, k)(probes)
        assert new.tobytes() == old.tobytes(), (m.label, h.descriptor, k)

    def test_default_pairs(self):
        pairs = list(_default_pairs())
        assert len(pairs) == 24
        for m, h in pairs:
            self._assert_same_bits(m, h, m.median())

    def test_extremal_ramps(self):
        for m, h in _extremal_pairs():
            self._assert_same_bits(m, h, m.median())

    @pytest.mark.parametrize("h", [fn.power(0.5), fn.abs_power(1.5)],
                             ids=lambda h: h.descriptor)
    @pytest.mark.parametrize("k", [-1.0, 0.0, 2.0])
    def test_pair_with_partitions_that_differ(self, h, k):
        # on laplace(0, 4) the two partitions differ on both sides of each k
        m = measures.laplace(0, 4)
        integral, mass = m.cumulative(h), m.cumulative(np.ones_like, h.knots)
        probes = np.clip(_t_probes(m, k), *m.integration_domain())
        for side, t in (("left", probes[probes <= k]), ("right", probes[probes > k])):
            _, a, b = integral.split(t, side)
            _, ma, mb = mass.split(t, side)
            own = (ma != a) | (mb != b)
            assert 0 < own.sum() < len(t)  # the mass reads both ways on each side
        self._assert_same_bits(m, h, k)


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
        # on beta(2,3), F(x) and ∫_0^x t dF(t) both underflow below ~1e-162;
        # read divided by one power of two, T(x) is E[X | X ≤ x] ≈ 2x/3
        b = measures.beta(2, 3)
        T = kernel.t_transform(b, x, b.median())
        lo, hi = b.integration_domain()
        vals = T(np.array([lo, 1e-170, hi]))
        assert np.all(np.isfinite(vals))
        assert vals[1] == pytest.approx(2e-170 / 3, rel=1e-12)
        assert vals[2] == np.nextafter(hi, lo)

    def test_underflowing_tail_reads_match_mpmath(self):
        # ∫_0^x t dF and F(x) of beta(2,3) leave the normal range from x ≈
        # 1e-103 and 1e-154 on; E[X | X ≤ x] in closed form, in mpmath
        b = measures.beta(2, 3)
        T = kernel.t_transform(b, x, b.median())
        for e in range(100, 301, 5):
            with mpmath.workdps(50):
                z = mpmath.mpf(10.0**-e)
                num = z**3 / 3 - z**4 / 2 + z**5 / 5  # ∫_0^z t·t(1−t)² dt
                den = z**2 / 2 - 2 * z**3 / 3 + z**4 / 4
                want = float(num / den)
            assert T(10.0**-e) == pytest.approx(want, rel=1e-12), e

    def test_exact_zero_over_half_the_mass_is_not_an_underflow(self, monkeypatch):
        # h = 1 on [0, ∞) and 0 below: at the median every node of the prefix
        # ∫ h dF has h = 0, so the read is exactly 0.0 over a mass of 1/2
        # while h(0) = 1.  That 0 is the true value, read in place, and no
        # rescaled reread is made
        lap = measures.laplace(0, 1)
        step = fn.DifferentiableFunction(
            lambda t: (np.asarray(t, dtype=float) >= 0.0).astype(float),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)), (0.0,), "step(0)")
        num = lap.cumulative(step).left(0.0)
        den = lap.cumulative(np.ones_like, step.knots).left(0.0)
        assert num == 0.0 and den == pytest.approx(0.5, rel=1e-12) and step(0.0) == 1.0
        calls, reread = [], kernel._rescaled_tails
        monkeypatch.setattr(kernel, "_rescaled_tails",
                            lambda *args: calls.append(args) or reread(*args))
        assert kernel.t_transform(lap, step, 0.0)(0.0) == num / den
        assert calls == []

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

    @pytest.mark.parametrize(
        "m",
        [measures.laplace(0, 1), measures.gaussian(0, 1), measures.exponential(1),
         measures.uniform(0, 1)],
        ids=lambda m: m.label,
    )
    def test_sup_norm_reads_both_sides_over_one_window(self, m):
        # T_k h averages h out to the window's ends, past the deepest probe;
        # an rhs probed only to isf(1e-13) read below the lhs for unbounded h
        lo, hi = m.integration_domain()
        for h in (x, fn.centered(x, m), x2):
            c = kernel.hardy_certificate(m, h, m.median(), math.inf)
            assert c.status == "ok", c.describe()
            assert c.rhs == max(abs(h(lo)), abs(h(hi)))

    def test_p_one_rejected(self):
        with pytest.raises(DomainError):
            kernel.hardy_certificate(measures.laplace(0, 1), x, 0.0, 1.0)

    @pytest.mark.parametrize("p", [0.5, math.nan, True])
    def test_t_norm_rejects_p_before_building(self, monkeypatch, p):
        builds = []
        real = quadrature.cumulative
        monkeypatch.setattr(
            quadrature, "cumulative", lambda *a, **kw: builds.append(1) or real(*a, **kw)
        )
        with pytest.raises(DomainError, match="p must be >= 1"):
            kernel.t_norm(measures.laplace(0, 1), x, 0.0, p)
        assert builds == []
