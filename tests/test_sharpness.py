"""Best-constant extraction via shrinking ramps and the monomial sharpness sweep."""

import math

import pytest

from covineq import functions as fn
from covineq import inequalities as ineq
from covineq import kernel, runner
from covineq.certificates import certify
from covineq.errors import ComputationError, DomainError

x = fn.monomial(1)

DELTAS = [1e-1, 1e-2, 1e-3]


class TestBestConstant:
    @pytest.mark.parametrize(
        "m_name, want, tol",
        [
            ("laplace", 1.0, 0.02),
            ("uniform", 0.25, 0.01),
            ("gaussian", math.sqrt(2 / math.pi), 0.01),
        ],
    )
    def test_identity_g_limits(self, standard_measures, m_name, want, tol):
        m = {s.family: s for s in standard_measures}[m_name]
        est = ineq.estimate_best_constant(m, x, DELTAS)
        assert est.monotone
        assert abs(est.limit_estimate - want) < tol

    def test_ratios_never_exceed_target(self, standard_measures):
        for m in standard_measures:
            est = ineq.estimate_best_constant(m, x, DELTAS)
            assert all(r <= est.target * (1 + 1e-6) for r in est.ratios), m.label
            assert all(
                b >= a * (1 - 1e-12) for a, b in zip(est.ratios, est.ratios[1:])
            ), m.label

    def test_steep_ramp_recovers_uniform_constant(self, uni):
        # a nearly-extremal g concentrates its derivative at the median and
        # pushes the ratio to the true best constant 1/Is = 1/2
        steep = fn.piecewise_linear(
            [0.0, 0.49, 0.51, 1.0], [0.0, 0.49, 100.51, 101.0]
        )
        est = ineq.estimate_best_constant(uni, steep, DELTAS)
        assert est.monotone and abs(est.limit_estimate - 0.5) < 0.01

    def test_default_probe_matches_target_on_flat_profile(self, lap):
        est = ineq.estimate_best_constant(
            lap, runner.near_extremal_increasing(lap), DELTAS
        )
        assert abs(est.limit_estimate - est.target) < 0.02 * est.target

    def test_deltas_must_decrease(self, lap):
        with pytest.raises(DomainError):
            ineq.estimate_best_constant(lap, x, [1e-2, 1e-1])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1e-2])
    def test_deltas_must_be_positive_and_finite(self, lap, bad):
        with pytest.raises(DomainError):
            ineq.estimate_best_constant(lap, x, [bad])

    def test_g_must_increase(self, lap):
        with pytest.raises(DomainError):
            ineq.estimate_best_constant(lap, fn.monomial(2), DELTAS)

    def test_non_finite_factor_raises(self, lap, monkeypatch):
        # an overflowed transform sup would read as the ratio 0
        monkeypatch.setattr(kernel, "t_norm", lambda *args: math.inf)
        with pytest.raises(ComputationError, match=r"delta=0\.1.*T h0\|\|_inf = inf"):
            ineq.estimate_best_constant(lap, x, DELTAS)


class TestSharpnessSweep:
    def test_p1_odd_monomials_exact(self, lap):
        certs = ineq.sharpness_sweep(lap, 1, [1, 3, 5])
        assert all(abs(c.ratio - 1.0) < 1e-6 for c in certs)

    def test_p2_closed_form_ratios(self, lap):
        certs = ineq.sharpness_sweep(lap, 2, [1, 3, 5])
        want = [math.sqrt(0.5), math.sqrt(5 / 6), math.sqrt(9 / 10)]
        assert all(abs(c.ratio - w) < 1e-4 for c, w in zip(certs, want))
        assert [c.ratio for c in certs] == sorted(c.ratio for c in certs)

    def test_ratios_bounded_by_one(self, lap):
        certs = ineq.sharpness_sweep(lap, 2, [1, 3, 5, 7])
        assert all(c.ratio <= 1 + 1e-7 for c in certs)

    def test_decreasing_degrees_rejected(self, lap):
        with pytest.raises(DomainError, match="strictly increasing"):
            ineq.sharpness_sweep(lap, 2, [3, 1])

    def test_even_degree_rejected(self, lap):
        with pytest.raises(DomainError):
            ineq.sharpness_sweep(lap, 2, [2, 4])

    @pytest.mark.parametrize("k", [1.5, 0.0, -1.0, math.nan, math.inf])
    def test_degree_not_a_finite_odd_integer_rejected(self, lap, k):
        with pytest.raises(DomainError):
            ineq.sharpness_sweep(lap, 2, [k])

    def test_integral_float_degrees_accepted(self, lap):
        assert ([c.ratio for c in ineq.sharpness_sweep(lap, 2, [1.0, 3.0])]
                == [c.ratio for c in ineq.sharpness_sweep(lap, 2, [1, 3])])

    def test_falling_ratios_raise_on_laplace(self, lap, monkeypatch):
        # on Laplace the ratios must not fall as k grows; a stub check whose
        # ratio falls from 0.9 to 0.5 is refused
        ratios = iter([0.9, 0.5])
        monkeypatch.setattr(
            ineq, "check_lp_poincare",
            lambda m, u, p, variant: certify("lp_poincare", lhs=next(ratios), rhs=1.0, params={}),
        )
        with pytest.raises(ComputationError, match="not monotone for laplace"):
            ineq.sharpness_sweep(lap, 2, [1, 3])
