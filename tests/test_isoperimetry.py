"""Isoperimetric profile and constant against closed forms."""

import math
import time

import numpy as np
import pytest
import scipy.stats as st

from covineq import isoperimetry as iso
from covineq import measures
from covineq.errors import DomainError

CLOSED_FORMS = [
    (measures.laplace(0, 1), 1.0, 1e-6),
    (measures.uniform(0, 1), 2.0, 1e-6),
    (measures.gaussian(0, 1), 2 * st.norm.pdf(0.0), 1e-5),
    (measures.exponential(1), 1.0, 1e-6),
    (measures.logistic(0, 1), 0.5, 1e-6),
    (measures.beta(2, 2), 3.0, 1e-5),
]


@pytest.mark.parametrize("m, want, tol", CLOSED_FORMS, ids=lambda v: getattr(v, "label", v))
def test_closed_form_constants(m, want, tol):
    t0 = time.perf_counter()
    prof = iso.isoperimetric_constant(m)
    assert time.perf_counter() - t0 < 1.0
    assert abs(prof.is_value - want) <= tol * want
    assert not prof.diverging_tail
    # refined minimum can only improve on the grid minimum
    assert prof.is_value <= np.min(prof.ratios) + 1e-15


def test_pointwise_ratio_oracles():
    assert abs(iso.isoperimetric_ratio(measures.laplace(0, 1), 0.0) - 1.0) < 1e-12
    assert abs(iso.isoperimetric_ratio(measures.uniform(0, 1), 0.5) - 2.0) < 1e-12
    u = measures.uniform(0, 1)
    with pytest.raises(DomainError):
        iso.isoperimetric_ratio(u, 1.5)
    with pytest.raises(DomainError):
        iso.isoperimetric_ratio(u, 0.0)  # boundary is outside the open support


def test_symmetric_families_minimize_at_median():
    for m in (measures.laplace(0, 1), measures.gaussian(0, 1),
              measures.uniform(0, 1), measures.logistic(0, 1)):
        prof = iso.isoperimetric_constant(m)
        assert abs(prof.argmin_t - 0.5) <= 1.0 / 1025 + 1e-12


@pytest.mark.parametrize("c", [0.5, 2.0, math.sqrt(2.0)])
def test_scaling_covariance(c):
    base = iso.isoperimetric_value(measures.laplace(0, 1))
    scaled = iso.isoperimetric_value(measures.laplace(0, 1).rescale(c))
    assert abs(scaled - c * base) <= 1e-6 * c * base


def test_grid_convergence():
    for m in (measures.laplace(0, 1), measures.exponential(1)):
        a = iso.isoperimetric_constant(m, grid_size=512).is_value
        b = iso.isoperimetric_constant(m, grid_size=1024).is_value
        assert abs(a - b) / b < 1e-6


def test_heavy_tail_flags_divergence():
    cauchy = measures.from_scipy(st.cauchy(), "cauchy")
    prof = iso.isoperimetric_constant(cauchy)
    assert prof.diverging_tail and prof.is_value == 0.0


# exactly exponential tails whose roundoff-level wobbles once counted as a
# diverging tail and reported Is = 0
@pytest.mark.parametrize(
    "m, s",
    [
        (measures.laplace(0, 9.639215124742453e-05), 9.639215124742453e-05),
        (measures.laplace(0, 198850913.18921158), 198850913.18921158),
        (measures.exponential(1 / 95564.38255659299), 95564.38255659299),
    ],
    ids=lambda v: getattr(v, "label", v),
)
def test_exponential_tail_not_diverging(m, s):
    prof = iso.isoperimetric_constant(m)
    assert not prof.diverging_tail
    assert abs(prof.is_value * s - 1.0) <= 1e-9


def test_tabulated_approximates_smooth_family(tab_laplace_file):
    m = measures.load_tabulated(tab_laplace_file)
    prof = iso.isoperimetric_constant(m)
    assert abs(prof.is_value - 1.0) < 0.05
    assert not prof.diverging_tail


def test_beta_profile_positive():
    prof = iso.isoperimetric_constant(measures.beta(2, 5))
    assert prof.is_value > 0 and not prof.diverging_tail


def test_grid_size_validated():
    with pytest.raises(DomainError):
        iso.isoperimetric_constant(measures.laplace(0, 1), grid_size=32)


def test_profile_csv_shape():
    prof = iso.isoperimetric_constant(measures.uniform(0, 1))
    lines = prof.to_csv().strip().split("\n")
    assert lines[0] == "t,x,ratio"
    assert len(lines) == 1025
