"""Isoperimetric profile and constant against closed forms."""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given
from hypothesis import strategies as hst

from covineq import isoperimetry as iso
from covineq import measures
from covineq.errors import ComputationError, DomainError


def unflagged(m):
    """The law of ``m`` with no log-concave flag: its Is takes the search."""
    return measures.from_scipy(m.dist, log_concave=False)


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


def test_non_finite_ratio_raises(monkeypatch):
    # a density that reads NaN past x = 1 (F(1) = 0.816 on laplace(0,1)) is
    # refused at the first grid level there, not minimized over
    m = measures.laplace(0, 1)
    real = m.dist.pdf
    monkeypatch.setattr(m.dist, "pdf", lambda v: np.where(np.asarray(v) > 1.0, np.nan, real(v)))
    with pytest.raises(ComputationError, match=r"failed at t=0\.816.* \(x=1\.00"):
        iso.isoperimetric_constant(m)


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
    # the same law unflagged takes the search and its plateau tie-break
    prof = iso.isoperimetric_constant(unflagged(make(s)))
    assert prof.argmin_t == 0.5 and not prof.diverging_tail


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


# gamma(a < 1)'s upper-tail ratio f/S is its hazard, which falls to the rate
# 1, not to 0; the heavy-tail guard reads three falls as divergence and
# reports 0 (ROADMAP item 6 reads the tail's limit and flips this)
@pytest.mark.xfail(strict=True, reason="the heavy-tail guard reports Is = 0 "
                   "for a ratio that falls to a positive limit")
@pytest.mark.parametrize("a", [0.5, 0.8])
def test_gamma_below_one_is_its_hazard_limit(a):
    prof = iso.isoperimetric_constant(measures.from_scipy(st.gamma(a)))
    assert not prof.diverging_tail
    assert abs(prof.is_value - 1.0) <= 1e-6


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
def test_exponential_tail_not_diverging(m, s, monkeypatch):
    # the closed form reads no tail; the same law unflagged reaches the
    # heavy-tail guard, which must see no fall in the wobble
    guards = []
    real = iso._tail_diverges

    def spy(law, interior_min):
        guards.append(law)
        return real(law, interior_min)

    monkeypatch.setattr(iso, "_tail_diverges", spy)
    for law in (m, unflagged(m)):
        prof = iso.isoperimetric_constant(law)
        assert not prof.diverging_tail
        assert abs(prof.is_value * s - 1.0) <= 1e-9
    assert len(guards) == 1


def test_tabulated_approximates_smooth_family(tab_laplace_file):
    m = measures.load_tabulated(tab_laplace_file)
    prof = iso.isoperimetric_constant(m)
    assert abs(prof.is_value - 1.0) < 0.05
    assert not prof.diverging_tail


def test_beta_profile_positive():
    prof = iso.isoperimetric_constant(measures.beta(2, 5))
    assert prof.is_value > 0 and not prof.diverging_tail


@pytest.mark.parametrize("a, b", [(2, 7), (7, 2)])
def test_beta_profile_reads_no_seed_level(a, b):
    # the search path reads the tail probes only, not the seed levels:
    # scipy's _beta_ppf warns at the seed level 2^-513 for these shapes (the
    # flagged law takes the closed form, which reads no tail level at all)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = iso.isoperimetric_constant(unflagged(measures.beta(a, b)))
    assert prof.is_value > 0 and not prof.diverging_tail


# the log-concave families at scale s and location loc; beta's shapes a, b ≥ 1
# keep it log-concave; exponential and beta have no location parameter
LOG_CONCAVE = {
    "gaussian": lambda s, a, b, loc: measures.gaussian(loc, s),
    "laplace": lambda s, a, b, loc: measures.laplace(loc, s),
    "exponential": lambda s, a, b, loc: measures.exponential(1.0 / s),
    "uniform": lambda s, a, b, loc: measures.uniform(loc, loc + s),
    "logistic": lambda s, a, b, loc: measures.logistic(loc, s),
    "beta": lambda s, a, b, loc: measures.beta(a, b, s),
}
EPS = np.finfo(float).eps


@given(family=hst.sampled_from(sorted(LOG_CONCAVE)), log_s=hst.floats(-9.0, 9.0),
       a=hst.floats(1.0, 8.0), b=hst.floats(1.0, 8.0), r=hst.floats(-1e9, 1e9))
@example(family="beta", log_s=-9.0, a=1.0, b=8.0, r=0.0)
@example(family="beta", log_s=9.0, a=8.0, b=1.0, r=0.0)
@example(family="beta", log_s=0.0, a=1.0, b=1.0, r=0.0)
@example(family="exponential", log_s=9.0, a=1.0, b=1.0, r=0.0)
@example(family="laplace", log_s=0.0, a=1.0, b=1.0, r=1e9)
@example(family="laplace", log_s=-9.0, a=1.0, b=1.0, r=-1e9)
def test_log_concave_is_is_twice_the_median_density(family, log_s, a, b, r):
    # Is = 2·f(median) for log-concave μ (Bobkov 1996), read with no search,
    # also where |loc| = |r|·scale is up to 1e9 scales; the search over the
    # same law, unflagged, finds the same minimum up to the quantile's
    # rounding, which reads laplace's flat ratio up to eps·|median|/(2·s) low
    s = 10.0**log_s
    m = LOG_CONCAVE[family](s, a, b, r * s)
    prof = iso.isoperimetric_constant(m)
    assert prof.is_value == 2.0 * float(m.pdf(m.median()))
    assert prof.argmin_t == 0.5 and not prof.diverging_tail
    searched = iso.isoperimetric_value(unflagged(m))
    rounding = EPS * abs(m.median()) / s
    assert abs(prof.is_value - searched) <= (1e-12 + rounding) * prof.is_value


@pytest.mark.parametrize("loc", [-1e9, -1e6, -1e3, 1e3, 1e6, 1e9])
def test_far_located_laplace_takes_the_closed_form(loc):
    # the quantile's rounding, ~eps·|loc|, reads the flat ratio up to 6e-8
    # below 2·f(median) at |loc| = 1e9: rounding, not a wrong flag
    prof = iso.isoperimetric_constant(measures.laplace(loc, 1.0))
    assert prof.is_value == 1.0 and prof.argmin_t == 0.5 and not prof.diverging_tail


def test_wrong_log_concave_flag_falls_back_to_the_search():
    # a bimodal law whose valley lies off the median: the grid reads ratios
    # far below 2·f(median), so the flag is overruled and the profile is the
    # unflagged one bit for bit
    xs = np.linspace(-6.0, 6.0, 241)
    tab = measures.ingest_tabulated(
        xs, 0.7 * np.exp(-(xs + 2.0) ** 2) + 0.3 * np.exp(-(xs - 2.0) ** 2))
    flagged, plain = (iso.isoperimetric_constant(measures.from_scipy(
        tab.dist, log_concave=flag, knots=tab.knots)) for flag in (True, False))
    for field in ("grid", "xs", "ratios"):
        assert np.array_equal(getattr(flagged, field), getattr(plain, field))
    assert (flagged.argmin_t, flagged.is_value, flagged.diverging_tail) == (
        plain.argmin_t, plain.is_value, plain.diverging_tail)
    assert flagged.is_value < 0.1 * 2.0 * float(tab.pdf(tab.median()))


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
    def builds(self, monkeypatch):
        calls = []
        real = iso._profile

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(iso, "_profile", spy)
        return calls

    def test_second_call_is_a_hit(self, builds):
        m = measures.gaussian(0, 1)
        first = iso.isoperimetric_constant(m)
        assert len(builds) == 1
        assert iso.isoperimetric_constant(m) is first
        assert iso.isoperimetric_value(m) == first.is_value
        assert len(builds) == 1

    def test_settings_are_separate_entries(self, builds):
        m = measures.laplace(0, 1)
        base = iso.isoperimetric_constant(m)
        other_grid = iso.isoperimetric_constant(m, grid_size=512)
        assert other_grid is not base
        assert len(other_grid.grid) == 512
        assert len(builds) == 2
        assert iso.isoperimetric_constant(m, grid_size=512) is other_grid
        assert len(builds) == 2

    def test_fresh_and_rescaled_measures_start_cold(self, builds):
        m = measures.laplace(0, 1)
        prof = iso.isoperimetric_constant(m)
        twin = measures.laplace(0, 1)
        assert iso.isoperimetric_constant(twin) is not prof
        scaled = iso.isoperimetric_constant(m.rescale(2.0))
        assert abs(scaled.is_value - 2.0 * prof.is_value) <= 1e-6 * scaled.is_value
        assert len(builds) == 3

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
