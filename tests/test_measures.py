"""Measure construction, moments, rescaling, and tabulated ingestion."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from covineq import functions, measures
from covineq.errors import IngestionError, UnsupportedMeasureError

x = functions.monomial(1)
x2 = functions.monomial(2)


@pytest.mark.parametrize(
    "m, at, cdf_want",
    [
        (measures.laplace(0, 1), 0.0, 0.5),
        (measures.uniform(0, 1), 0.25, 0.25),
        (measures.gaussian(0, 1), 0.0, 0.5),
        (measures.exponential(1), math.log(2), 0.5),
        (measures.logistic(0, 1), 0.0, 0.5),
    ],
)
def test_cdf_oracles(m, at, cdf_want):
    assert abs(m.cdf(at) - cdf_want) < 1e-12
    assert abs(m.sf(at) - (1 - cdf_want)) < 1e-12
    assert abs(m.quantile(cdf_want) - at) < 1e-9


def test_median():
    assert abs(measures.uniform(0, 1).median() - 0.5) < 1e-12
    assert abs(measures.exponential(1).median() - math.log(2)) < 1e-12
    assert abs(measures.laplace(3, 2).median() - 3.0) < 1e-9


@pytest.mark.parametrize(
    "m, g, want",
    [
        (measures.laplace(0, 1), x2, 2.0),
        (measures.gaussian(0, 1), x2, 1.0),
        (measures.uniform(0, 1), x, 0.5),
        (measures.exponential(1), x, 1.0),
        (measures.exponential(1), x2, 2.0),
    ],
)
def test_expectations(m, g, want):
    assert abs(m.expectation(g) - want) <= 1e-9 * max(1.0, want)


def test_lp_norm_laplace_gamma():
    m = measures.laplace(0, 1)
    for p in (1.0, 2.0, 3.5):
        want = math.gamma(p + 1.0) ** (1.0 / p)
        assert abs(m.lp_norm(x, p) - want) < 1e-8 * want
    # sup norm of a bounded function
    r = functions.ramp(functions.RampSpec(0.0, 0.5))
    assert abs(m.lp_norm(r, math.inf) - 1.0) < 1e-9


def test_ess_sup():
    # bounded: exact sup over the support
    assert abs(measures.uniform(0, 1).ess_sup(x2) - 1.0) < 1e-9
    r = functions.ramp(functions.RampSpec(0.0, 0.5))
    assert abs(measures.laplace(0, 1).ess_sup(r) - 1.0) < 1e-12
    # unbounded: documented under-report = largest probed value
    assert measures.gaussian(0, 1).ess_sup(x2) > 50.0


@given(c=st.floats(min_value=0.3, max_value=5.0))
def test_rescale_is_law_of_x_over_c(c):
    m = measures.laplace(0, 1)
    mc = m.rescale(c)
    # quantiles of X/c are quantiles of X divided by c
    for t in (0.1, 0.5, 0.9):
        assert abs(mc.quantile(t) - m.quantile(t) / c) < 1e-9 * (1 + abs(m.quantile(t)))
    assert mc.family == m.family


def test_rescale_all_families():
    for m in (
        measures.gaussian(0.5, 2),
        measures.uniform(-1, 3),
        measures.exponential(2),
        measures.logistic(1, 1),
        measures.beta(2, 5),
        measures.laplace(1, 3),
        measures.ingest_tabulated(
            np.linspace(-3, 3, 41), np.exp(-np.abs(np.linspace(-3, 3, 41)))
        ),
    ):
        mc = m.rescale(2.0)
        assert abs(mc.quantile(0.75) - m.quantile(0.75) / 2.0) < 1e-9


def test_beta_support_and_mass():
    m = measures.beta(2, 5)
    assert m.cdf(0.0) == 0.0 and m.cdf(1.0) == 1.0
    assert abs(m.expectation(x) - 2.0 / 7.0) < 1e-9


def test_from_scipy_labels():
    m = measures.from_scipy(scipy.stats.cauchy(), "cauchy")
    assert m.family == "cauchy"
    assert abs(m.median() - 0.0) < 1e-9
    with pytest.raises(UnsupportedMeasureError):
        m.rescale(2.0)


def test_probe_points_sorted_interior():
    m = measures.gaussian(0, 1)
    pts = m.probe_points()
    lo, hi = m.integration_domain()
    assert np.all(np.diff(pts) > 0)
    assert pts[0] >= lo and pts[-1] <= hi


class TestTabulated:
    def test_roundtrip_laplace(self, tab_laplace_file):
        m = measures.load_tabulated(tab_laplace_file)
        assert m.family == "tabulated"
        assert abs(m.cdf(0.0) - 0.5) < 1e-3
        assert abs(m.expectation(x2) - 2.0) < 0.05

    def test_normalizes_total_mass(self):
        xs = np.linspace(0, 1, 11)
        m = measures.ingest_tabulated(xs, 7.0 * np.ones_like(xs))
        assert abs(m.cdf(1.0) - 1.0) < 1e-12
        assert abs(m.expectation(x) - 0.5) < 1e-9

    @pytest.mark.parametrize(
        "xs, ds",
        [
            ([0, 1, 2], [1, 1, 1]),  # too few nodes
            (np.linspace(0, 1, 9), -np.ones(9)),  # negative density
            (np.zeros(9), np.ones(9)),  # non-increasing nodes
            (np.linspace(0, 1, 9), np.zeros(9)),  # zero mass
            (np.linspace(0, 1, 9), [1, 1, 1, 0, 0, 1, 1, 1, 1]),  # interior zero
        ],
    )
    def test_rejects_bad_input(self, xs, ds):
        with pytest.raises(IngestionError):
            measures.ingest_tabulated(xs, ds)

    def test_load_rejects_malformed_line(self, tmp_path):
        p = tmp_path / "bad.tab"
        p.write_text("0 1\n1 2 3\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="bad.tab:2"):
            measures.load_tabulated(str(p))
