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


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize(
    "make",
    [
        lambda s: measures.laplace(0, s),
        lambda s: measures.exponential(1.0 / s),
        lambda s: measures.gaussian(0, s),
        lambda s: measures.logistic(0, s),
    ],
    ids=["laplace", "exponential", "gaussian", "logistic"],
)
def test_argmin_is_the_median_level_at_every_scale(make, s):
    # laplace's ratio profile is flat on (0, 1) and exponential's on [1/2, 1);
    # the reported argmin is the median level there, not wherever the search
    # stopped, so it does not move with the scale
    assert iso.isoperimetric_constant(make(s)).argmin_t == 0.5


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


class TestProfileMemo:
    @pytest.fixture()
    def golden_calls(self, monkeypatch):
        calls = []
        real = iso.search.golden_min

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(iso.search, "golden_min", spy)
        return calls

    def test_second_call_is_a_hit(self, golden_calls):
        m = measures.gaussian(0, 1)
        first = iso.isoperimetric_constant(m)
        assert len(golden_calls) == 1
        assert iso.isoperimetric_constant(m) is first
        assert iso.isoperimetric_value(m) == first.is_value
        assert len(golden_calls) == 1

    def test_settings_are_separate_entries(self, golden_calls):
        m = measures.laplace(0, 1)
        base = iso.isoperimetric_constant(m)
        other_grid = iso.isoperimetric_constant(m, grid_size=512)
        assert other_grid is not base
        assert len(other_grid.grid) == 512
        assert len(golden_calls) == 2
        assert iso.isoperimetric_constant(m, grid_size=512) is other_grid
        assert len(golden_calls) == 2

    def test_fresh_and_rescaled_measures_start_cold(self, golden_calls):
        m = measures.laplace(0, 1)
        prof = iso.isoperimetric_constant(m)
        twin = measures.laplace(0, 1)
        assert iso.isoperimetric_constant(twin) is not prof
        scaled = iso.isoperimetric_constant(m.rescale(2.0))
        assert abs(scaled.is_value - 2.0 * prof.is_value) <= 1e-6 * scaled.is_value
        assert len(golden_calls) == 3

    def test_shared_profile_is_read_only(self):
        prof = iso.isoperimetric_constant(measures.uniform(0, 1))
        with pytest.raises(ValueError):
            prof.ratios[0] = 0.0
        assert not (prof.grid.flags.writeable or prof.xs.flags.writeable)

    def test_grid_size_checked_before_lookup(self):
        m = measures.laplace(0, 1)
        iso.isoperimetric_constant(m, grid_size=64)
        with pytest.raises(DomainError):
            iso.isoperimetric_constant(m, grid_size=32)
