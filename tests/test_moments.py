"""Moment growth, Ψ₁ integrability, consecutive-moment comparison, C_p."""

import math
import types

import mpmath
import numpy as np
import pytest
import scipy.stats

from covineq import functions as fn
from covineq import inequalities as ineq
from covineq import measures
from covineq.errors import (
    ComputationError,
    DomainError,
    HypothesisViolatedError,
    UnsupportedMeasureError,
)


class TestMomentGrowth:
    def test_laplace_p2(self, lap):
        c = ineq.check_moment_growth(lap, 2)
        assert abs(c.lhs - math.sqrt(2)) < 1e-6
        assert abs(c.rhs - 4.0) < 1e-6 and c.passed

    def test_gaussian_p1(self, gau):
        c = ineq.check_moment_growth(gau, 1)
        assert abs(c.lhs - math.sqrt(2 / math.pi)) < 1e-6
        assert abs(c.rhs - 2 / 0.7978845608028654) < 1e-4

    def test_uniform_p2(self, uni):
        c = ineq.check_moment_growth(uni, 2)
        assert abs(c.lhs - 1 / math.sqrt(12)) < 1e-8 and c.passed

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_soundness(self, standard_measures, p):
        for m in standard_measures:
            assert ineq.check_moment_growth(m, p).passed, (m.label, p)


class TestPsi1Bound:
    @pytest.mark.parametrize(
        "m_name, want_rhs",
        [("laplace", 4.0), ("uniform", 2.0), ("exponential", 4.0)],
    )
    def test_oracles(self, standard_measures, m_name, want_rhs):
        m = {s.family: s for s in standard_measures}[m_name]
        c = ineq.check_psi1_bound(m)
        assert c.passed and abs(c.rhs - want_rhs) < 1e-6


class TestMomentComparison:
    def test_laplace_p2_oracle(self, lap):
        c = ineq.check_moment_comparison(lap, 2)
        assert abs(c.lhs - 6 ** (1 / 3)) < 1e-5
        assert abs(c.rhs - 2.0) < 1e-5

    def test_gaussian_p2(self, gau):
        c = ineq.check_moment_comparison(gau, 2)
        assert abs(c.lhs - (2 * math.sqrt(2 / math.pi)) ** (1 / 3)) < 1e-5
        assert c.passed

    def test_p_one_rejected(self, lap):
        with pytest.raises(DomainError):
            ineq.check_moment_comparison(lap, 1)

    @pytest.mark.parametrize("p", [True, np.True_])
    def test_boolean_p_rejected(self, lap, p):
        # config rejects "p": [true]; the API must not read True as p = 1
        for call in (
            lambda: ineq.check_moment_growth(lap, p),
            lambda: ineq.check_moment_comparison(lap, p),
            lambda: ineq.young_power(p),
            lambda: lap.lp_norm(fn.monomial(1), p),
        ):
            with pytest.raises(DomainError):
                call()

    def test_uncentered_measure_rejected(self, expo):
        with pytest.raises(HypothesisViolatedError):
            ineq.check_moment_comparison(expo, 2)

    def test_centering_is_relative_to_scale(self):
        # the computed mean of logistic(0, 1e8) is ~1e-8, far below its scale
        c = ineq.check_moment_comparison(measures.logistic(0, 1e8), 2)
        assert c.passed and c.side_conditions["norm_p"] > 1e8


class TestLogconcaveMoments:
    def test_laplace_third_moment_witness(self, lap):
        c = ineq.check_logconcave_moments(lap, 2)
        assert abs(c.side_conditions["third_abs_moment"] - 6.0) < 1e-4
        assert abs(
            c.side_conditions["third_moment_bound"] - 4 * math.sqrt(3) * 2**1.5
        ) < 1e-4
        assert c.passed

    def test_gaussian_passes(self, gau):
        assert ineq.check_logconcave_moments(gau, 2).passed

    def test_heavy_tail_rejected(self):
        cauchy = measures.from_scipy(scipy.stats.cauchy(), "cauchy")
        with pytest.raises(UnsupportedMeasureError):
            ineq.check_logconcave_moments(cauchy, 2)

    def test_scale_free_centering(self):
        assert ineq.check_logconcave_moments(measures.logistic(0, 1e8), 2).passed
        # mean 1e-10 is 100 standard deviations away from 0
        with pytest.raises(HypothesisViolatedError):
            ineq.check_logconcave_moments(measures.gaussian(1e-10, 1e-12), 2)

    def test_small_p_rejected(self, lap):
        with pytest.raises(DomainError):
            ineq.check_logconcave_moments(lap, 1.5)


class TestCpSequence:
    def test_values_and_monotonicity(self):
        cs = ineq.cp_sequence([2, 3, 5, 10, 100, 1000])
        assert abs(cs[0] - 2 ** (5 / 3) / 3 ** (5 / 6)) < 1e-12
        assert abs(cs[0] - 1.27091) < 1e-5
        assert all(b < a for a, b in zip(cs, cs[1:]))
        assert 1.0 < cs[-1] < 1.01

    def test_p_one_rejected(self):
        with pytest.raises(DomainError):
            ineq.cp_sequence([1, 2])

    @pytest.mark.parametrize("ps", [[1e18], [1.5e17, 1.6e17], [1e10, 1e10 + 1]])
    def test_rounding_at_large_p_is_no_broken_evaluation(self, ps):
        # C_p − 1 ≈ (ln(√3·p) − 1)/p: close neighbours round to one float,
        # and at p = 1e18 the true value rounds to 1
        cs = ineq.cp_sequence(ps)
        with mpmath.workdps(40):
            want = [float((p / (p + 1)) * (mpmath.sqrt(3) * p**2 / (p - 1)) ** (1 / (p + 1)))
                    for p in map(mpmath.mpf, ps)]
        assert all(abs(c - w) <= 4.4e-16 for c, w in zip(cs, want))
        assert cs == sorted(cs, reverse=True) and min(cs) >= 1.0

    @pytest.mark.parametrize(
        "sqrt, ps, match",
        [(lambda v: math.nan, [2, 3], "failed to decrease between p=2.0 and p=3.0"),
         (lambda v: 0.0, [2], "dropped below 1")],
        ids=["not-decreasing", "not-above-one"],
    )
    def test_broken_evaluation_raises(self, monkeypatch, sqrt, ps, match):
        # C_p is closed-form, so only a broken evaluation (here √3) reaches
        # its two checks: NaN values do not decrease, and 0 is not above 1
        broken = types.SimpleNamespace(**{**vars(math), "sqrt": sqrt})
        monkeypatch.setattr(ineq, "math", broken)
        with pytest.raises(ComputationError, match=match):
            ineq.cp_sequence(ps)
