"""Function builders, derivatives, and the expression grammar."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from covineq import functions as F
from covineq import measures as M
from covineq.errors import ComputationError, DomainError, ExpressionError
from covineq.numerics import NumericContext, numeric_context


def test_monomial_values():
    m3 = F.monomial(3)
    assert (m3(2.0), m3.deriv(2.0)) == (8.0, 12.0)
    assert F.monomial(5).deriv(-1.0) == 5.0


def test_signed_and_abs_powers():
    sp = F.signed_power(2)
    assert (sp(-3.0), sp.deriv(-3.0)) == (-9.0, 6.0)
    assert F.signed_power(1.5)(4.0) == 8.0
    ap = F.abs_power(2)
    assert (ap(-2.0), ap.deriv(-2.0)) == (4.0, -4.0)
    assert F.abs_power(1).deriv(0.0) == 1.0


def test_ramp_saturates_exactly():
    r = F.ramp(0.3, 1e-2)
    xs = np.linspace(-3, 3, 1001)
    far = np.abs(xs - 0.3) > 1e-2
    sgn = np.where(xs - 0.3 >= 0, 1.0, -1.0)
    assert np.max(np.abs(r(xs)[far] - sgn[far])) == 0.0
    assert r.knots == (0.3 - 1e-2, 0.3 + 1e-2)


def test_constant_is_named_by_its_builder():
    c = F.constant(3.0)
    assert (c(5.0), c.deriv(5.0), c.descriptor) == (3.0, 0.0, "constant(3)")


def test_centered_subtracts_mean():
    c2 = F.centered(F.monomial(2), M.uniform(0, 1))
    assert abs(c2(1.0) - (1 - 1 / 3)) < 1e-12
    assert c2.descriptor == "centered(monomial(2))"


def test_shifts_share_the_derivative_object():
    g, m = F.monomial(3), M.laplace(0, 1)
    assert F.shifted(g, 2.5).prime is g.prime
    assert F.shifted(F.shifted(g, 1.0), -2.0).prime is g.prime
    assert F.centered(g, m).prime is g.prime
    assert F.shifted(g, 2.5, "named").descriptor == "named"


class TestCenteredMemo:
    @pytest.fixture()
    def expectations(self, monkeypatch):
        calls = []
        real = M.Measure.expectation

        def spy(self, g, knots=()):
            calls.append(g)
            return real(self, g, knots)

        monkeypatch.setattr(M.Measure, "expectation", spy)
        return calls

    def test_same_function_and_measure_is_a_hit(self, expectations):
        m, g = M.laplace(0, 1), F.monomial(3)
        first = F.centered(g, m)
        second = F.centered(g, m)
        assert len(expectations) == 1
        xs = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(first(xs), second(xs))

    def test_other_function_measure_or_tolerance_is_a_miss(self, expectations):
        m, g = M.laplace(0, 1), F.monomial(3)
        F.centered(g, m)
        F.centered(F.monomial(3), m)
        F.centered(g, M.laplace(0, 1))
        with numeric_context(NumericContext(rel_tol=1e-8)):
            F.centered(g, m)
        assert len(expectations) == 4
        F.centered(g, m)
        assert len(expectations) == 4

    def test_second_call_returns_the_same_object(self, expectations):
        m, g = M.laplace(0, 1), F.monomial(3)
        first = F.centered(g, m)
        assert F.centered(g, m) is first
        assert F.centered(F.monomial(3), m) is not first
        assert F.centered(g, M.laplace(0, 1)) is not first
        with numeric_context(NumericContext(rel_tol=1e-8)):
            assert F.centered(g, m) is not first
        assert F.centered(g, m) is first
        assert len(expectations) == 4


def test_product_rule_away_from_knots():
    g, h = F.abs_power(1.5), F.ramp(0.2, 0.7)
    p = F.product(g, h)
    xs = np.linspace(-2, 2, 211)
    ok = np.min(np.abs(xs[:, None] - np.array(p.knots)[None, :]), axis=1) > 1e-3
    want = g.deriv(xs) * h(xs) + g(xs) * h.deriv(xs)
    assert np.max(np.abs(p.deriv(xs)[ok] - want[ok])) < 1e-10


@pytest.mark.parametrize(
    "fn",
    [
        F.monomial(3),
        F.signed_power(1.5),
        F.abs_power(2.5),
        F.ramp(0.1, 0.5),
        F.power(-0.25),
        F.shifted(F.monomial(2), 3.0),
        F.piecewise_linear([-1, 0, 0.5, 2], [0, 1, -1, 2]),
    ],
    ids=lambda f: f.descriptor,
)
def test_derivative_matches_finite_differences(fn):
    h = 1e-5
    xs = np.linspace(0.05, 1.95, 97)
    if fn.knots:
        keep = np.min(np.abs(xs[:, None] - np.array(fn.knots)[None, :]), axis=1) > 1e-3
        xs = xs[keep]
    fd = (fn(xs + h) - fn(xs - h)) / (2 * h)
    dv = fn.deriv(xs)
    assert np.all(np.abs(fd - dv) <= 1e-6 * (1 + np.abs(dv)))


@given(
    xs=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    data=st.data(),
)
def test_piecewise_linear_interpolates_nodes(xs, data):
    xs = sorted(xs)
    # adjacent floats straddling zero give subnormal gaps and overflow slopes
    assume(min(b - a for a, b in zip(xs, xs[1:])) > 1e-9)
    ys = data.draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=len(xs),
            max_size=len(xs),
        )
    )
    f = F.piecewise_linear(xs, ys)
    assert np.allclose(f(np.asarray(xs)), ys, atol=1e-12)
    # constant beyond the nodes, derivative zero there
    assert f(xs[0] - 1.0) == ys[0] and f(xs[-1] + 1.0) == ys[-1]
    assert f.deriv(xs[0] - 1.0) == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        lambda: F.monomial(0),
        lambda: F.monomial(2.5),
        lambda: F.signed_power(0.5),
        lambda: F.abs_power(0.99),
        lambda: F.ramp(0, 0.0),
        lambda: F.power(0),
        lambda: F.piecewise_linear([0, 0], [1, 1]),
        lambda: F.piecewise_linear([0, 1], [0, 1, 2]),
    ],
)
def test_builder_domain_errors(bad):
    with pytest.raises(DomainError):
        bad()


def test_second_derivative_is_not_tracked():
    with pytest.raises(ComputationError, match="second derivative of monomial"):
        F.monomial(2).prime.prime(1.0)


class TestExpressions:
    def test_basic_forms(self):
        assert F.parse_expression("x^3").bind()(2.0) == 8.0
        assert F.parse_expression("x").bind().deriv(5.0) == 1.0
        assert F.parse_expression("sgnpow(1.5)").bind()(4.0) == 8.0
        assert F.parse_expression("abspow(2)").bind()(-2.0) == 4.0
        assert F.parse_expression("ramp(0.5,0.1)").bind()(0.75) == 1.0
        assert F.parse_expression("x * ramp(0,1)").bind()(0.5) == 0.25
        assert F.parse_expression("x^2 - 0.5").bind()(1.0) == 0.5
        assert F.parse_expression("x^02").bind()(3.0) == 9.0
        assert F.parse_expression("x^\u0662").bind()(3.0) == 9.0  # Arabic-Indic 2
        assert F.parse_expression("x - -0.5").bind()(1.0) == 1.5
        assert F.parse_expression("  x^2 \n- 0.5").bind()(1.0) == 0.5
        assert (
            F.parse_expression("x + 1 - 2").bind().descriptor
            == "shifted(shifted(monomial(1),1),-2)"
        )

    @pytest.mark.parametrize(
        "text, descriptor",
        [("x^(2)", "monomial(2)"), ("(x)^2", "monomial(2)"),
         ("x**2", "monomial(2)"), ("x^0x10", "monomial(16)"),
         ("x^1_0", "monomial(10)"), ("x * (x + 1)", "product(monomial(1),"
                                     "shifted(monomial(1),1))")],
    )
    def test_python_literal_and_parenthesis_forms(self, text, descriptor):
        assert F.parse_expression(text).bind().descriptor == descriptor

    def test_deepest_product_binds(self):
        f = F.parse_expression("*".join(["x"] * F._MAX_DEPTH)).bind()
        assert f(1.0) == 1.0 and f.deriv(1.0) == F._MAX_DEPTH

    def test_fractional_power_clamps_negative_axis(self):
        f = F.parse_expression("x^-0.25").bind()
        assert abs(f(16.0) - 0.5) < 1e-14
        assert f(-1.0) == 0.0

    def test_center_requires_measure(self):
        e = F.parse_expression("center(x^2)")
        assert e.requires_measure
        assert abs(e.bind(M.uniform(0, 1))(0.0) + 1 / 3) < 1e-12
        with pytest.raises(ExpressionError):
            e.bind()

    def test_every_readme_form_parses(self):
        # the README's grammar sentence, with its placeholders filled in
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        sentence = re.search(r"Function\s+expressions:(.*?)\.\n", readme, re.S)
        forms = re.findall(r"`([^`]+)`", sentence.group(1))
        assert "abspow(p)" in forms and "sgnpow(p)" in forms
        values = {"k": "3", "p": "1.5", "alpha": "-0.25", "m": "0",
                  "delta": "0.1", "a": "x", "b": "x^2", "c": "0.5"}
        for form in forms:
            text = re.sub(r"\b[a-z]+\b", lambda w: values.get(w[0], w[0]), form)
            f = F.parse_expression(text).bind(M.laplace(0, 1))
            assert np.isfinite(f(0.7)), form

    @pytest.mark.parametrize(
        "bad",
        ["", "x^", "foo(1)", "x +", "ramp(1)", "sgnpow(0.5)", "x^2 x",
         "((x)", "x ^ 0", "2 * x",
         # Python parses these, the grammar forbids them
         "x + x", "1 + x", "x * -1", "x^2^3", "x^y", "x^True", "x^1j",
         "ramp(c=0, delta=1)", "center(x, x)", "x.real", "x[0]", "lambda: x",
         "'x'", "x\0",
         pytest.param("*".join(["x"] * 2000), id="product-of-2000")],
    )
    def test_grammar_rejections(self, bad):
        with pytest.raises(ExpressionError):
            F.parse_expression(bad)

    @pytest.mark.parametrize(
        "bad",
        [pytest.param("x^" + "9" * 400, id="float-overflow"),
         pytest.param("x^" + "9" * 5000, id="int-digit-limit"),
         pytest.param("-" * 10_000 + "1", id="parser-stack"),
         pytest.param("(" * 300 + "x" + ")" * 300, id="parentheses-300"),
         pytest.param("*".join(["x"] * 200_000), id="product-of-200000"),
         pytest.param("-" * 3000 + "x", id="parser-recursion"),
         "x^1if 1 else 2", "x^2 # + 1", "x\udcff", "x^1e999"],
    )
    def test_only_expression_error_escapes(self, bad):
        # overflow, digit-limit, parser-stack, length, recursion and warning paths
        with pytest.raises(ExpressionError):
            F.parse_expression(bad)

    @pytest.mark.parametrize(
        "bad",
        [pytest.param("*".join(["x"] * 2000), id="product-of-2000"),
         pytest.param("ramp(" + ",".join(["1"] * 3001) + ")", id="ramp-3001-args"),
         pytest.param("sgnpow(" + "x" * 500 + ")", id="long-got-fragment"),
         pytest.param("*".join(["x"] * 200_000), id="product-of-200000")],
    )
    def test_long_text_is_quoted_by_head_tail_and_length(self, bad):
        with pytest.raises(ExpressionError) as info:
            F.parse_expression(bad)
        msg = str(info.value)
        assert len(msg) <= 300, msg
        assert repr(bad[:20])[:-1] in msg and repr(bad[-10:])[1:] in msg
        assert f"({len(bad)} characters)" in msg

    def test_short_text_is_quoted_whole(self):
        with pytest.raises(ExpressionError, match=r"cannot parse 'ramp\(1\)'"):
            F.parse_expression("ramp(1)")
