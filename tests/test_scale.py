"""Scale laws: Is(law of X/c) = c·Is(X), and certificate ratios free of units.

Each inequality is unchanged when μ becomes the law of X/c and the test
function g becomes g(c·), so every certificate ratio must be too.  The
quadrature budget is relative to ∫|f|, which makes this hold to rounding.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from covineq import functions as fn
from covineq import inequalities as ineq
from covineq import kernel, measures
from covineq.errors import HypothesisViolatedError
from covineq.isoperimetry import isoperimetric_value

# one measure per analytic family, off its standard parameters
FAMILY_MEASURES = {
    "laplace": measures.laplace(0.5, 2.0),
    "gaussian": measures.gaussian(-1.0, 0.5),
    "uniform": measures.uniform(-1.0, 3.0),
    "exponential": measures.exponential(2.0),
    "logistic": measures.logistic(0.3, 1.5),
    "beta": measures.beta(2.0, 3.0),
}

SCALES = (1e-10, 1e10)


def test_every_family_has_a_measure():
    assert set(FAMILY_MEASURES) == set(measures.FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILY_MEASURES))
@given(log_c=st.floats(min_value=-10.0, max_value=10.0))
@example(log_c=-10.0)
@example(log_c=10.0)
def test_is_scale_law(family, log_c):
    m = FAMILY_MEASURES[family]
    c = 10.0**log_c
    want = c * isoperimetric_value(m)
    assert abs(isoperimetric_value(m.rescale(c)) - want) <= 1e-12 * want


def _dilated(g, c):
    """y ↦ g(c·y), the test function that goes with the law of X/c."""
    return fn.DifferentiableFunction(
        lambda y: g(c * np.asarray(y, dtype=float)),
        lambda y: c * np.asarray(g.deriv(c * np.asarray(y, dtype=float)), dtype=float),
        tuple(k / c for k in g.knots),
        g.descriptor,
    )


def _ratios(m, name, g):
    """Ratio of every default grid point of a check, or the error it raised."""
    entry = ineq.CHECKS[name]
    out = []
    for values in itertools.product(*entry.defaults.values()):
        point = dict(zip(entry.defaults, values))
        args = (m, g) if entry.needs_function else (m,)
        try:
            out.append(entry.call(*args, **point).ratio)
        except Exception as exc:  # noqa: BLE001 - the same skip at every scale
            out.append(type(exc).__name__)
    return out


def _assert_scale_free(m, name):
    g = fn.monomial(2)
    want = _ratios(m, name, g)
    for c in SCALES:
        got = _ratios(m.rescale(c), name, _dilated(g, c))
        for w, r in zip(want, got):
            if isinstance(w, str) or isinstance(r, str):
                assert r == w, (c, want, got)
            else:
                assert abs(r - w) <= 1e-12 * abs(w), (c, want, got)


RATIO_MEASURES = [measures.laplace(0, 1), measures.logistic(0, 1), measures.beta(2, 3)]


@pytest.mark.parametrize("m", RATIO_MEASURES, ids=lambda m: m.label)
@pytest.mark.parametrize("name", sorted(ineq.CHECKS))
def test_certificate_ratio_is_scale_free(m, name):
    _assert_scale_free(m, name)


@pytest.mark.parametrize("c", SCALES)
def test_orlicz_power_norm_is_scale_free(c):
    # the |x|^2 norm is one quadrature, so it rescales to rounding
    m, g, N = measures.gaussian(0, 1), fn.monomial(1), ineq.young_power(2)
    want = ineq.check_orlicz(m, g, N, "median_centered").ratio
    got = ineq.check_orlicz(m.rescale(c), _dilated(g, c), N, "median_centered").ratio
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("c", [1e-60, 1e60])
def test_lp_norm_is_scale_free(c):
    # E X^6 = 15c^6 under- or overflows at these c; the norm must not
    got = measures.gaussian(0, c).lp_norm(fn.monomial(1), 6)
    assert abs(got - c * 15 ** (1 / 6)) <= 1e-12 * c * 15 ** (1 / 6)


# ratios that read 0.0 when the moments under- or overflowed
EXTREME_CASES = {
    "hardy": lambda c: kernel.hardy_certificate(
        measures.laplace(0, c), fn.monomial(1), 0.0, 5
    ),
    "moment_growth": lambda c: ineq.check_moment_growth(measures.gaussian(0, c), 6),
    "lp_poincare_raw_2p": lambda c: ineq.check_lp_poincare(
        measures.laplace(0, c), fn.monomial(1), 5, "raw_2p"
    ),
}


@pytest.mark.parametrize("c", [1e-70, 1e70])
@pytest.mark.parametrize("name", sorted(EXTREME_CASES))
def test_ratio_at_extreme_scale(name, c):
    want = EXTREME_CASES[name](1.0).ratio
    assert abs(EXTREME_CASES[name](c).ratio - want) <= 1e-12 * want


def _sign_moment(m):
    with pytest.raises(HypothesisViolatedError) as info:
        ineq.check_lp_poincare(m, fn.monomial(1), 6, "centered_p")
    return info.value.value


@pytest.mark.parametrize("rate", [1e-70, 1e70])
def test_centered_p_hypothesis_at_extreme_scale(rate):
    # E[sign(X−EX)|X−EX|^5]/E|X−EX|^5 on the exponential law is one number
    want = _sign_moment(measures.exponential(1.0))
    assert abs(_sign_moment(measures.exponential(rate)) - want) <= 1e-12 * want


def test_cov_variant_ratio_is_scale_free():
    _assert_scale_free(measures.gaussian(0, 1), "cov_variant")


def test_sharpness_at_small_scale():
    # centered L2 Poincaré on laplace: ratio √((2k−1)/(2k)) at every scale
    ks = [1, 3, 5, 7, 9]
    certs = ineq.sharpness_sweep(measures.laplace(0, 0.01), 2, ks)
    for c, k in zip(certs, ks):
        assert abs(c.ratio - math.sqrt((2 * k - 1) / (2 * k))) < 1e-14


def test_cheeger_at_small_scale():
    c = ineq.check_cheeger(measures.gaussian(0, 1e-4), fn.monomial(3))
    assert abs(c.ratio - 15 / (54 * math.pi)) < 1e-15
