"""Adaptive quadrature: oracles, error control, cumulative queries."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from covineq import functions, measures, numerics, quadrature, runner
from covineq.config import parse_config
from covineq.errors import IntegrationError
from covineq.numerics import NumericContext, numeric_context


def gauss_pdf(x):
    return np.exp(-0.5 * np.asarray(x, float) ** 2) / math.sqrt(2 * math.pi)


def test_total_mass_gaussian():
    v = quadrature.integrate(gauss_pdf, -40.0, 40.0)
    assert abs(v - 1.0) < 1e-12


def test_kink_with_knot_is_exact():
    v = quadrature.integrate(lambda x: np.abs(x), -1.0, 2.0, knots=(0.0,))
    assert abs(v - 2.5) < 1e-13
    assert abs(quadrature.integrate(np.abs, -1.0, 2.0, kinks=(0.0,)) - 2.5) < 1e-13


def test_endpoint_singularity_integrable():
    # int_0^1 t^(-1/2) = 2; singular at the left endpoint
    v = quadrature.integrate(lambda t: np.asarray(t, float) ** -0.5, 0.0, 1.0)
    assert abs(v - 2.0) < 1e-8


def test_divergent_integrand_raises():
    with pytest.raises(IntegrationError):
        quadrature.integrate(lambda t: 1.0 / np.asarray(t, float), 0.0, 1.0)


def test_nonfinite_integrand_raises():
    with pytest.raises(IntegrationError):
        quadrature.integrate(
            lambda t: np.full_like(np.asarray(t, float), np.nan), 0.0, 1.0
        )


class TestPanelRule:
    """The K21/G10 pair that scores each panel of ``_adapt``."""

    @pytest.mark.parametrize("k", range(32))
    def test_pair_exact_to_its_degrees(self, k):
        # on (−1, 1), K21 integrates x^k exactly for k ≤ 31 and G10 for k ≤ 19
        value, err, mass = quadrature._panel_batch(lambda t: t**k, [-1.0], [1.0])
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(value[0] - exact) <= 1e-15
        if k % 2 == 0:  # |f| = f, and the mass is the value
            assert mass[0] == value[0]
        if k <= 19:
            g10 = quadrature._GK_NODES[1::2] ** k @ quadrature._GK_WEIGHTS[1::2, 1]
            assert abs(g10 - exact) <= 1e-15 and err[0] <= 2e-15

    def test_gauss_half_is_legendre_10(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert np.max(np.abs(quadrature._GK_NODES[1::2] - nodes)) <= 1e-15
        assert np.max(np.abs(quadrature._GK_WEIGHTS[1::2, 1] - weights)) <= 1e-15
        # and G10 reads no Kronrod-only node
        assert not quadrature._GK_WEIGHTS[0::2, 1].any()

    def test_nonfinite_value_poisons_only_its_panel(self):
        f = lambda t: np.where(t < 0.0, np.nan, 1.0)  # noqa: E731
        value, err, mass = quadrature._panel_batch(f, [-1.0, 0.0], [0.0, 2.0])
        assert value[0] == 0.0 and err[0] == mass[0] == math.inf
        assert abs(value[1] - 2.0) <= 1e-15 and err[1] <= 1e-15


def sin2(x):
    return np.sin(40.0 * np.asarray(x, float)) ** 2


@pytest.mark.parametrize("rounds", [0, 1, 2])
def test_spent_round_budget_raises(monkeypatch, rounds):
    # ∫_0^10 sin²(40x) dx = 5 − sin(800)/160 needs more than two rounds past
    # the seed; the bound the error carries covers the estimate's true error
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", rounds)
    with pytest.raises(IntegrationError) as info:
        quadrature.integrate(sin2, 0.0, 10.0)
    exc = info.value
    exact = 5.0 - math.sin(800.0) / 160.0
    assert math.isfinite(exc.estimate) and abs(exc.estimate - exact) <= exc.error_bound
    assert exc.error_bound > numerics.active().rel_tol * exc.estimate


def test_spent_round_budget_on_passing_panels_returns(monkeypatch):
    # every seed panel passes in round 0: the spent budget still goes to the
    # global error test, which the kept panels meet
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", 0)
    c = np.array([3.0, -2.0, 1.0])
    v = quadrature.integrate(lambda x: np.polyval(c, np.asarray(x, float)), -1.0, 2.0)
    anti = np.polyint(c)
    assert abs(v - (np.polyval(anti, 2.0) - np.polyval(anti, -1.0))) < 1e-13


@pytest.mark.parametrize("panels", [50, 120])
def test_spent_panel_budget_raises(monkeypatch, panels):
    # ∫_0^20 sin²(40x) dx converges on 166 panels, past either budget
    monkeypatch.setattr(quadrature, "_MAX_PANELS", panels)
    with pytest.raises(IntegrationError) as info:
        quadrature.integrate(sin2, 0.0, 20.0)
    assert info.value.error_bound > numerics.active().rel_tol * info.value.estimate


def test_panel_budget_counts_the_panels_that_pass(monkeypatch):
    # the 40 seed panels of ∫_0^10 sin²(40x) dx at the knots 0.25, 0.5, ...
    # all split in the first round; in the second, 2 of the 80 fail, and
    # the 78 that pass count against the budget with the 4 children, so the
    # budget is spent at 80 panels rather than overrun to 82
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 80)
    with pytest.raises(IntegrationError) as info:
        quadrature.cumulative(sin2, 0.0, 10.0, knots=np.arange(0.25, 10.0, 0.25))
    assert info.value.error_bound > numerics.active().rel_tol * info.value.estimate


def test_width_underflow_within_budget_returns():
    # ∫_1^2 (x−1)^(1/4) dx = 4/5: the boundary stub at 1 splits until its
    # split point no longer falls strictly inside it (the float spacing at
    # 1), while its mass is still far above the 2^-57 floor of a cumulative's
    # lighter side; it is kept without passing, and its error counts against
    # the budget, which it meets
    cum = quadrature.cumulative(lambda x: np.abs(np.asarray(x, float) - 1.0) ** 0.25, 1.0, 2.0)
    a, b = cum.edges[:2]
    assert a == 1.0 and not a + (b - a) / 8.0 > a
    assert abs(cum.total - 0.8) < 1e-15
    assert cum.error_bound <= numerics.active().rel_tol * cum.total


def test_width_underflow_with_infinite_error_raises():
    # the stub at 0 of t^(-19/20) keeps a mass 20·w^(1/20) above the floor at
    # every float width w, so a cumulative drives it to width underflow,
    # where its nodes land on the pole: the stub is kept with err = inf and
    # raises
    with pytest.raises(IntegrationError) as info:
        quadrature.cumulative(lambda t: np.asarray(t, float) ** -0.95, 0.0, 1.0)
    assert info.value.error_bound == math.inf
    assert abs(info.value.estimate - 20.0) < 1e-12


def test_beta_half_two_first_moment_cumulative_builds():
    # h = x damps the pole of the density at 0
    cum = measures.beta(0.5, 2).cumulative(functions.monomial(1))
    assert abs(cum.total - 0.2) < 1e-15
    assert cum.error_bound <= numerics.active().rel_tol * cum.total


def test_beta_half_two_mass_cumulative_builds():
    # the stub at 0, on the pole, has only its own mass on its lighter side;
    # it is exempt once that is below the floor, before its nodes reach 0
    cum = measures.beta(0.5, 2).cumulative(np.ones_like)
    assert abs(cum.total - 1.0) < 1e-12
    assert cum.error_bound <= numerics.active().rel_tol * cum.total


def test_infinite_end_is_cut_at_the_outermost_knot():
    v = quadrature.integrate(gauss_pdf, -math.inf, math.inf, knots=(-40.0, 0.0, 40.0))
    assert abs(v - 1.0) < 1e-12
    with pytest.raises(IntegrationError):
        quadrature.integrate(gauss_pdf, -math.inf, 1.0)


def _unique_edges(lo, hi, knots):
    """The seed edges as ``np.unique`` over every knot: the reference."""
    ks = np.asarray(list(knots), dtype=float)
    ks = ks[np.isfinite(ks)]
    if ks.size:
        lo = ks.min() if lo == -np.inf else lo
        hi = ks.max() if hi == np.inf else hi
    return np.unique(np.concatenate([[float(lo), float(hi)], ks[(ks > lo) & (ks < hi)]]))


@pytest.mark.parametrize("kinks", [
    (), (0.25,), (0.25, 0.25, -3.0), "ladder", "outside", (math.inf, -math.inf, 0.5),
])
@pytest.mark.parametrize("make", [
    lambda: measures.laplace(0, 1), lambda: measures.exponential(1),
    lambda: measures.beta(2, 3), lambda: measures.gaussian(0, 1e-6),
])
def test_seed_edges_merge_kinks_into_the_ladder(make, kinks):
    # the sorted ladder and the kinks merged, bit for bit the edges of
    # np.unique over both; kinks on a ladder value, outside the ladder
    # (moving an infinite end's cut) or infinite
    m = make()
    ladder = m.seed_levels()
    if kinks == "ladder":
        kinks = (float(ladder[3]), float(ladder[3]), float(ladder[-2]))
    elif kinks == "outside":
        kinks = (float(ladder[0]) - 1.0, float(ladder[-1]) + 1.0)
    lo, hi = m.support
    got = quadrature._seed_edges(lo, hi, ladder, kinks)
    assert got.tobytes() == _unique_edges(lo, hi, (*ladder, *kinks)).tobytes()


def test_seed_edges_sort_a_direct_callers_knots():
    got = quadrature._seed_edges(-math.inf, 2.0, (3.0, -1.0, 0.5, -1.0, math.nan))
    assert got.tobytes() == np.array([-1.0, 0.5, 2.0]).tobytes()


@pytest.mark.parametrize("kinks", [(), (0.5,)])
def test_a_direct_caller_reads_divergence_off_its_knots(kinks):
    # the shells are the intervals of the knots whether or not kinks are given
    m = measures.from_scipy(stats.cauchy())
    with pytest.raises(IntegrationError, match="diverges toward -inf"):
        quadrature.integrate(lambda v: np.abs(v) * m.pdf(v), -math.inf, math.inf,
                             knots=m.seed_levels(), kinks=kinks)


def test_a_direct_caller_on_the_ladder_is_an_expectation():
    g = measures.gaussian(0, 1)
    got = quadrature.integrate(g.pdf, -math.inf, math.inf, knots=g.seed_levels())
    assert got.hex() == g.expectation(functions.constant(1.0)).hex()


class TestQuantileSeeds:
    """Every quadrature of a measure is seeded at its own quantiles."""

    def test_laplace_absolute_moments(self):
        # E|X|^k = k!; a level schedule that stops short of the window's
        # depth (2^-1 ... 2^-57) reads E|X|^5 3e-13 low
        m = measures.laplace(0, 1)
        for k in range(1, 19):
            v = m.expectation(lambda t: np.abs(t) ** k)
            assert abs(v / math.factorial(k) - 1.0) <= 4.4e-16, k

    def test_levels_and_moments_scale_with_the_measure(self):
        unit = np.array(measures.laplace(0, 1).seed_levels())
        for c in (1e-70, 1.0, 1e70, 1e290):
            m = measures.laplace(0, c)
            assert np.array_equal(np.array(m.seed_levels()), c * unit)
            assert abs(m.expectation(lambda t: (t / c) ** 2) - 2.0) <= 4.4e-16

    def test_gaussian_variance_scores_its_seed_panels_only(self, monkeypatch):
        # 20 seed panels, all passing in the first round
        scored, real = [], quadrature._panel_batch
        monkeypatch.setattr(quadrature, "_panel_batch",
                            lambda f, a, b: scored.append(len(a)) or real(f, a, b))
        v = measures.gaussian(0, 1).expectation(functions.monomial(2))
        assert abs(v - 1.0) <= 4.4e-16 and sum(scored) <= 20

    def test_levels_are_built_at_the_first_quadrature(self):
        # the ladder is read off the seed row of Measure.tail, kept in the memo
        m = measures.gaussian(0, 1)
        assert not any(key[:2] == ("tail", "seeds") for key in m._memo)
        m.expectation(functions.monomial(2))
        assert any(key[:2] == ("tail", "seeds") for key in m._memo)

    def test_ladder_is_sorted_once(self):
        # later quadratures read the memoized ladder, not a fresh sort
        m = measures.gaussian(0, 1)
        ladder = m.seed_levels()
        m.expectation(functions.monomial(2))
        assert m.seed_levels() is ladder and not ladder.flags.writeable


class TestHeavyTails:
    """The shells toward an infinite end, the intervals of the measure's
    ladder, must shrink."""

    cauchy = measures.from_scipy(stats.cauchy(), "cauchy")

    def test_cauchy_mass(self):
        v = self.cauchy.expectation(np.ones_like)
        assert abs(v - 1.0) <= numerics.active().rel_tol

    @pytest.mark.parametrize("g", [np.abs, np.square], ids=["abs", "square"])
    def test_cauchy_moments_raise(self, g):
        with pytest.raises(IntegrationError, match="diverges|did not converge"):
            self.cauchy.expectation(g)

    def test_pareto_second_moment(self):
        v = measures.from_scipy(stats.pareto(3)).expectation(np.square)
        assert abs(v - 3.0) <= 1e-12 * 3.0

    @pytest.mark.parametrize("k", [2, 19])
    def test_lognormal_moments(self, k):
        # E X^19 = e^180.5 peaks near level 2^-270, in the shell inward of the
        # window piece; that piece still carries mass, so the shells shrink
        m = measures.from_scipy(stats.lognorm(1))
        assert abs(m.expectation(lambda t: t**k) / math.exp(k * k / 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "m, c, delta",
        [
            (measures.laplace(0, 1), 400.0, 0.1),
            (measures.laplace(0, 1), 354.0, 0.1),
            (measures.laplace(0, 1), 355.5, 0.1),
            (measures.gaussian(0, 1), 30.0, 0.01),
            (measures.exponential(1), 600.0, 0.1),
            (measures.logistic(0, 1), 400.0, 0.1),
        ],
        ids=["laplace-400", "laplace-354", "laplace-355.5", "gaussian-30",
             "exponential-600", "logistic-400"],
    )
    def test_a_kink_in_a_tail_shell_splits_no_shell(self, m, c, delta):
        # the ramp's knots c ± δ lie in the outermost shell with mass; read
        # as shells, its two pieces would seem to grow outward
        assert abs(m.expectation(functions.ramp(c, delta)) + 1.0) <= 1e-12


@given(
    coeffs=st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=6
    )
)
def test_polynomials_match_antiderivative(coeffs):
    c = np.asarray(coeffs, float)
    lo, hi = -1.0, 2.0
    v = quadrature.integrate(lambda x: np.polyval(c, np.asarray(x, float)), lo, hi)
    anti = np.polyint(c)
    want = float(np.polyval(anti, hi) - np.polyval(anti, lo))
    assert abs(v - want) <= 1e-9 * (1.0 + abs(want))


class TestCumulative:
    def test_prefix_suffix_consistency(self):
        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        for t in (-3.0, -1.0, 0.0, 0.5, 2.0):
            assert abs(cum.left(t) + cum.right(t) - cum.total) < 1e-12

    def test_matches_cdf(self):
        from scipy.stats import norm

        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        ts = np.array([-5.0, -2.0, -0.5, 0.0, 1.0, 3.0])
        got = cum.left(ts)
        want = norm.cdf(ts)
        assert np.max(np.abs(got - want) / want) < 1e-9

    def test_deep_boundary_prefix_relative_accuracy(self):
        # prefix mass far into the left tail must be relatively accurate,
        # not just small against the total
        from scipy.stats import norm

        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        t = norm.ppf(1e-8)
        got = cum.left(t)
        assert abs(got - 1e-8) < 1e-6 * 1e-8

    def test_vectorized_queries(self):
        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        ts = np.linspace(-2, 2, 9)
        lefts = cum.left(ts)
        assert lefts.shape == ts.shape
        assert np.all(np.diff(lefts) > 0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_query_does_not_depend_on_batch(self, side):
        # each partial panel is summed on its own: a point's value is the
        # same bits whatever else is queried with it
        cum = measures.exponential(1).cumulative(lambda x: np.asarray(x, float))
        query = getattr(cum, side)
        for t in np.linspace(27.6, 29.9, 11):
            alone = query(np.array([t]))[0]
            assert query(np.array([t, 1.0]))[0] == alone
            assert query(np.linspace(0.0, 40.0, 1001).tolist() + [t])[-1] == alone

    @pytest.mark.parametrize("build, lo, hi", [
        (lambda: quadrature.cumulative(gauss_pdf, -40.0, 40.0), -40.0, 40.0),
        (lambda: measures.laplace(0, 1).cumulative(functions.monomial(1)),
         *measures.laplace(0, 1).integration_domain()),
        (lambda: quadrature.cumulative(lambda x: np.abs(np.asarray(x, float) - 1.0) ** 0.25,
                                       1.0, 2.0), 1.0, 2.0),
        (lambda: quadrature.cumulative(np.exp, 0.0, 30.0), 0.0, 30.0),
    ], ids=["gaussian", "laplace-x", "width-underflow", "exp"])
    def test_partition_in_x_order(self, build, lo, hi):
        # the panels tile (lo, hi) in x order, one value each, and a read at
        # an edge is the prefix or suffix sum of the values, bit for bit: at
        # hi too, where the 15-point rule on the last panel reads e^30 an ulp off
        cum = build()
        e, v = cum.edges, cum.values
        assert e[0] == lo and e[-1] == hi and np.all(np.diff(e) > 0)
        assert len(v) == len(e) - 1
        assert cum.total == float(np.sum(v))
        assert np.array_equal(cum.left(e), np.concatenate([[0.0], np.cumsum(v)]))
        assert np.array_equal(cum.right(e), np.concatenate([np.cumsum(v[::-1])[::-1], [0.0]]))

    def test_queries_clip_to_domain(self):
        cum = quadrature.cumulative(gauss_pdf, -40.0, 40.0)
        assert abs(cum.left(-1000.0)) == 0.0
        assert abs(cum.left(1000.0) - cum.total) < 1e-15


def test_subnormal_integrand():
    # ∫_0^1 (x/10^6.2)^50 dx = 10^-310/51; the budget scales with ∫|f|
    v = measures.uniform(0, 1).expectation(lambda x: (x / 10**6.2) ** 50)
    assert abs(v - 1e-310 / 51) < 1e-9 * 1e-310 / 51


LOOSE = NumericContext(rel_tol=1e-2)


def test_numeric_context_scopes_tolerances():
    tight = quadrature.integrate(gauss_pdf, -40.0, 40.0)
    with numeric_context(LOOSE):
        assert numerics.active() is LOOSE
        loose = quadrature.integrate(gauss_pdf, -40.0, 40.0)
        with numeric_context(NumericContext(rel_tol=1e-3)):
            assert numerics.active().rel_tol == 1e-3
        assert numerics.active() is LOOSE
    assert numerics.active() == NumericContext()
    assert loose != tight and abs(loose - 1.0) < 1e-2


def test_numeric_context_restored_when_block_raises():
    with pytest.raises(RuntimeError):
        with numeric_context(LOOSE):
            raise RuntimeError("boom")
    assert numerics.active() == NumericContext()


def test_numeric_context_is_per_thread():
    expected = quadrature.integrate(gauss_pdf, -40.0, 40.0)
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def hold_loose():
        with numeric_context(LOOSE):
            seen["loose"] = quadrature.integrate(gauss_pdf, -40.0, 40.0)
            entered.set()
            release.wait(timeout=60)

    worker = threading.Thread(target=hold_loose)
    worker.start()
    try:
        assert entered.wait(timeout=60)
        got = quadrature.integrate(gauss_pdf, -40.0, 40.0)
    finally:
        release.set()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert got == expected
    assert seen["loose"] != expected


def test_runner_restores_default_context():
    cfg = parse_config({
        "measures": ["laplace:0,1"],
        "functions": ["x"],
        "checks": ["cheeger"],
        "quad_rel_tol": 1e-8,
        "debug_rhs_scale": 0.1,
    })
    assert cfg.numerics == NumericContext(rel_tol=1e-8, rhs_scale=0.1)
    assert runner.run(cfg).exit_code == runner.EXIT_CERT_FAILURE
    assert numerics.active() == NumericContext()


# ---- the round loop against a frozen copy of its earlier form -------------
#
# ``_frozen_adapt`` is the round loop as it stood before the loop was cut to
# fewer numpy calls per round: every round scored the panels not yet kept
# under two error states, computed a split point for every scored panel and
# mapped every panel onto the shells.  The engine must build the same
# partition, values and error bounds bit for bit, and raise the same errors;
# comparing against the loop itself holds on any numpy, where a fixed hash of
# the outputs would not.  The budgets and rule tables are read off
# ``quadrature`` at call time, so a patched budget reaches both loops.


def _frozen_panel_batch(f, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    pts = (a + half)[:, None] + half[:, None] * quadrature._GK_NODES
    with np.errstate(all="ignore"):
        vals = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        kg = half[:, None] * (vals @ quadrature._GK_WEIGHTS)
        value = kg[:, 0]
        err = np.abs(value - kg[:, 1])
        mass = half * (np.abs(vals) @ quadrature._GK_WEIGHTS)[:, 0]
    broken = ~np.isfinite(vals).all(axis=1)
    if np.any(broken):
        value = np.where(broken, 0.0, value)
        err = np.where(broken, np.inf, err)
        mass = np.where(broken, np.inf, mass)
    return value, err, mass


def _frozen_seed_edges(lo, hi, knots, kinks=()):
    ks = np.sort(np.concatenate([knots, kinks]))
    ks = ks[np.isfinite(ks)]
    if ks.size:
        lo = ks[0] if lo == -np.inf else lo
        hi = ks[-1] if hi == np.inf else hi
    lo, hi = float(lo), float(hi)
    if not (hi > lo and math.isfinite(lo) and math.isfinite(hi)):
        raise IntegrationError(f"empty integration interval ({lo}, {hi})", 0.0, 0.0)
    edges = np.concatenate([[lo], ks[(ks > lo) & (ks < hi)], [hi]])
    return edges[np.concatenate([[True], edges[1:] != edges[:-1]])]


def _frozen_growing_shell(shells, lo_inf, hi_inf):
    if len(shells) < 6:
        return None
    for end, inf, out in (("-inf", lo_inf, shells[:3]), ("+inf", hi_inf, shells[:-4:-1])):
        k = 0 if out[0] > 0.0 else 1
        if inf and not out[k] <= 0.5 * out[k + 1]:
            return end, out[k], out[k + 1]
    return None


def _frozen_adapt(f, lo, hi, knots, kinks=(), lighter_side=False):
    """(edges, values, total, error_bound), or IntegrationError."""
    q = quadrature
    rel_tol, ladder = numerics.active().rel_tol, np.sort(np.asarray(knots, dtype=float))
    ladder = ladder[np.isfinite(ladder)]
    edges = _frozen_seed_edges(lo, hi, ladder, kinks)
    lo_inf, hi_inf = lo == -np.inf, hi == np.inf
    lo, hi = float(edges[0]), float(edges[-1])
    n = len(edges) - 1
    value, err, mass = np.zeros(n), np.zeros(n), np.zeros(n)
    kept = np.zeros(n, dtype=bool)
    gave_up = False
    for round_no in range(q._MAX_ROUNDS + 1):
        new = (~kept).nonzero()[0]
        a, b = edges[new], edges[new + 1]
        value[new], e, m = _frozen_panel_batch(f, a, b)
        err[new] = e
        mass[new] = m = np.where(np.isfinite(m), m, 0.0)
        run = mass.cumsum()
        scale = run[-1]
        if lighter_side:
            left = run[new]
            scale = np.maximum(np.minimum(left, run[-1] - left + m), q._LIGHT_FLOOR * run[-1])
        ok = (e <= rel_tol * m) | (m <= q._MASS_FRACTION * rel_tol * scale)
        ok &= np.isfinite(e)
        width = b - a
        split = np.where(a == lo, a + width / 8.0,
                         np.where(b == hi, b - width / 8.0, a + 0.5 * width))
        spent = round_no == q._MAX_ROUNDS or n + np.count_nonzero(~ok) > q._MAX_PANELS
        stuck = spent | ~((split > a) & (split < b))
        gave_up |= spent or (stuck & ~ok).any()
        keep = ok | stuck
        kept[new] = keep
        if keep.all():
            break
        go = ~keep
        at = new[go]
        twice = np.ones(n + 1, dtype=int)
        twice[at] = 2
        edges = edges.repeat(twice)
        edges[at + np.arange(1, len(at) + 1)] = split[go]
        twice = twice[:-1]
        value, err, mass, kept = (x.repeat(twice) for x in (value, err, mass, kept))
        n += len(at)
    total, error_bound = float(value.sum()), float(err.sum())
    if gave_up and not error_bound <= rel_tol * run[-1]:
        raise IntegrationError(
            f"quadrature did not converge on ({lo}, {hi}): "
            f"error bound {error_bound:.3e} exceeds budget "
            f"{rel_tol * run[-1]:.3e}",
            estimate=total,
            error_bound=error_bound,
        )
    shell = np.searchsorted(ladder[1:-1], edges[:-1], side="right")
    grown = _frozen_growing_shell(np.bincount(shell, mass), lo_inf, hi_inf)
    if grown is not None:
        raise IntegrationError(
            "integral diverges toward {}: a shell carries |f| mass {:.3e} "
            "against {:.3e} inward of it".format(*grown),
            estimate=total,
            error_bound=math.inf,
        )
    return edges, value, total, error_bound


def _against(m, g):
    """(f, lo, hi, knots, kinks) of ∫ g dμ, as ``Measure`` hands them over."""
    lo, hi = m.support
    return (lambda x: m.weighted(g, x), lo, hi, m.seed_levels(),
            (*getattr(g, "knots", ()), *m.knots))


def _flat(c):
    return lambda x: np.full_like(np.asarray(x, float), c)


_CAUCHY = measures.from_scipy(stats.cauchy(), "cauchy")
_BETA_POLE = measures.beta(0.5, 2)  # one ladder: its deep levels warn (ROADMAP item 5)

# id: (build of (f, lo, hi, knots, kinks), budgets patched on quadrature)
ENGINE_CORPUS = {
    "gaussian": (lambda: (gauss_pdf, -40.0, 40.0, (), ()), {}),
    "abs-kink": (lambda: (np.abs, -1.0, 2.0, (), (0.0,)), {}),
    "abs-knot": (lambda: (np.abs, -1.0, 2.0, (0.0,), ()), {}),
    "laplace-x": (lambda: _against(measures.laplace(0, 1), functions.monomial(1)), {}),
    "laplace-ramp": (lambda: _against(measures.laplace(0, 1), functions.ramp(0.0, 0.5)), {}),
    "laplace-tail-ramp": (lambda: _against(measures.laplace(0, 1), functions.ramp(400.0, 0.1)), {}),
    "gaussian-x2-1e-6": (lambda: _against(measures.gaussian(0, 1e-6), functions.monomial(2)), {}),
    "logistic-ramp": (lambda: _against(measures.logistic(0, 2), functions.ramp(1.0, 0.5)), {}),
    "exponential-x2": (lambda: _against(measures.exponential(1), functions.monomial(2)), {}),
    "beta-2-3-x": (lambda: _against(measures.beta(2, 3), functions.monomial(1)), {}),
    "beta-pole-mass": (lambda: _against(_BETA_POLE, functions.constant(1.0)), {}),
    "beta-pole-x": (lambda: _against(_BETA_POLE, functions.monomial(1)), {}),
    "cauchy-mass": (lambda: _against(_CAUCHY, functions.constant(1.0)), {}),
    "cauchy-abs": (lambda: (lambda x: np.abs(x) * _CAUCHY.pdf(x), -math.inf, math.inf,
                            _CAUCHY.seed_levels(), ()), {}),
    "endpoint-pole": (lambda: (lambda t: np.asarray(t, float) ** -0.5, 0.0, 1.0, (), ()), {}),
    "reciprocal": (lambda: (lambda t: 1.0 / np.asarray(t, float), 0.0, 1.0, (), ()), {}),
    "nan": (lambda: (_flat(math.nan), 0.0, 1.0, (), ()), {}),
    "nan-half": (lambda: (lambda t: np.where(t < 0.3, np.nan, 1.0), 0.0, 1.0, (), ()), {}),
    "overflow": (lambda: (_flat(1e308), 0.0, 10.0, (), ()), {}),
    "width-underflow": (lambda: (lambda x: np.abs(np.asarray(x, float) - 1.0) ** 0.25,
                                 1.0, 2.0, (), ()), {}),
    "underflow-pole": (lambda: (lambda t: np.asarray(t, float) ** -0.95, 0.0, 1.0, (), ()), {}),
    "subnormal": (lambda: _against(measures.uniform(0, 1), lambda x: (x / 10**6.2) ** 50), {}),
    "raw-knots": (lambda: (gauss_pdf, -math.inf, math.inf,
                           (3.0, -40.0, math.nan, 40.0, -math.inf, 0.0, 3.0), (0.5, math.inf)), {}),
    "knots-past-hi": (lambda: (gauss_pdf, -math.inf, 1.0, (-40.0, -1.0, 0.0, 40.0), ()), {}),
    "empty": (lambda: (gauss_pdf, 1.0, 1.0, (), ()), {}),
    "rounds-0": (lambda: (sin2, 0.0, 10.0, (), ()), {"_MAX_ROUNDS": 0}),
    "rounds-2": (lambda: (sin2, 0.0, 10.0, (), ()), {"_MAX_ROUNDS": 2}),
    "rounds-0-passing": (lambda: (lambda x: 3.0 * x * x - 2.0 * x + 1.0, -1.0, 2.0, (), ()),
                         {"_MAX_ROUNDS": 0}),
    "panels-50": (lambda: (sin2, 0.0, 20.0, (), ()), {"_MAX_PANELS": 50}),
    "panels-80-knots": (lambda: (sin2, 0.0, 10.0, np.arange(0.25, 10.0, 0.25), ()),
                        {"_MAX_PANELS": 80}),
    "panels-120": (lambda: (sin2, 0.0, 20.0, (), ()), {"_MAX_PANELS": 120}),
}


def _outcome(build):
    """What a build leaves: the bytes of its partition, values and sums, or
    the message and figures of the IntegrationError it raised."""
    try:
        edges, values, total, error_bound = build()
    except IntegrationError as exc:
        return "raised", str(exc), float(exc.estimate).hex(), float(exc.error_bound).hex()
    return ("built", np.asarray(edges).tobytes(), np.asarray(values).tobytes(),
            float(total).hex(), float(error_bound).hex())


def _engine(f, lo, hi, knots, kinks, lighter_side):
    c = quadrature._adapt(f, lo, hi, knots, kinks, lighter_side)
    return c.edges, c.values, c.total, c.error_bound


@pytest.mark.parametrize("lighter_side", [False, True], ids=["integrate", "cumulative"])
@pytest.mark.parametrize("case", ENGINE_CORPUS)
def test_engine_matches_the_frozen_round_loop_bit_for_bit(monkeypatch, case, lighter_side):
    make, budgets = ENGINE_CORPUS[case]
    for name, value in budgets.items():
        monkeypatch.setattr(quadrature, name, value)
    f, lo, hi, knots, kinks = make()
    want = _outcome(lambda: _frozen_adapt(f, lo, hi, knots, kinks, lighter_side))
    got = _outcome(lambda: _engine(f, lo, hi, knots, kinks, lighter_side))
    assert got == want


def test_engine_corpus_reaches_every_outcome(monkeypatch):
    # the corpus builds, and raises on divergence toward an infinite end, on
    # an empty interval, on an infinite or NaN error bound and on a spent
    # budget; the constant 1e308 scores finite nodes to an infinite mass
    def outcome(case):
        make, budgets = ENGINE_CORPUS[case]
        with monkeypatch.context() as patch:
            for name, value in budgets.items():
                patch.setattr(quadrature, name, value)
            f, lo, hi, knots, kinks = make()
            return _outcome(lambda: _engine(f, lo, hi, knots, kinks, True))

    assert outcome("gaussian")[0] == outcome("width-underflow")[0] == "built"
    assert "error bound nan" in outcome("overflow")[1]
    assert "diverges toward -inf" in outcome("cauchy-abs")[1]
    assert "empty integration interval" in outcome("empty")[1]
    assert float.fromhex(outcome("underflow-pole")[3]) == math.inf
    assert "error bound inf" in outcome("nan")[1]
    assert "exceeds budget" in outcome("rounds-2")[1] and "exceeds budget" in outcome("panels-50")[1]


@pytest.mark.parametrize("case", ["laplace-x", "nan-half", "overflow", "underflow-pole",
                                  "cauchy-abs", "raw-knots"])
def test_build_ignores_the_callers_error_state(case):
    # the build runs under its own error state, all="ignore": the caller's
    # "raise" changes no bit, and the caller's state is back after the build,
    # whether it returned or raised
    f, lo, hi, knots, kinks = ENGINE_CORPUS[case][0]()
    before = np.geterr()
    want = _outcome(lambda: _engine(f, lo, hi, knots, kinks, True))
    assert np.geterr() == before
    with np.errstate(all="raise"):
        raised = np.geterr()
        got = _outcome(lambda: _engine(f, lo, hi, knots, kinks, True))
        assert np.geterr() == raised
    assert got == want
    assert np.geterr() == before
