"""Test functions with exact derivatives: monomials, signed/absolute powers,
sign-approximating ramps, shifts, products, and a small expression grammar.

Every builder returns a DifferentiableFunction whose ``knots`` list the
abscissae where the derivative jumps; the quadrature engine seeds panel
edges there.  sign(0) = +1 throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ComputationError, DomainError, ExpressionError
from .numerics import active


def _sign(x):
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class DifferentiableFunction:
    """A function, its a.e. derivative, derivative-jump abscissae, and a tag."""

    eval: Callable
    deriv: Callable
    knots: tuple[float, ...]
    descriptor: str

    def __call__(self, x):
        return self.eval(x)

    def __repr__(self):
        return f"DifferentiableFunction({self.descriptor})"


def monomial(k) -> DifferentiableFunction:
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"monomial degree must be a positive integer, got {k!r}")
    k = int(k)

    def ev(x):
        return np.asarray(x, dtype=float) ** k

    def dv(x):
        x = np.asarray(x, dtype=float)
        return k * x ** (k - 1) if k > 1 else np.ones_like(x)

    return DifferentiableFunction(ev, dv, (), f"monomial({k})")


def signed_power(p) -> DifferentiableFunction:
    """x ↦ sign(x)|x|^p with derivative p|x|^(p−1); knot at 0."""
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"signed_power requires p >= 1, got {p}")

    def ev(x):
        x = np.asarray(x, dtype=float)
        return _sign(x) * np.abs(x) ** p

    def dv(x):
        x = np.asarray(x, dtype=float)
        return p * np.abs(x) ** (p - 1.0)

    return DifferentiableFunction(ev, dv, (0.0,), f"signed_power({p:g})")


def abs_power(p) -> DifferentiableFunction:
    """x ↦ |x|^p with derivative p·sign(x)|x|^(p−1); knot at 0."""
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"abs_power requires p >= 1, got {p}")

    def ev(x):
        return np.abs(np.asarray(x, dtype=float)) ** p

    def dv(x):
        x = np.asarray(x, dtype=float)
        return p * _sign(x) * np.abs(x) ** (p - 1.0)

    return DifferentiableFunction(ev, dv, (0.0,), f"abs_power({p:g})")


def power(alpha) -> DifferentiableFunction:
    """x ↦ x^alpha on x > 0, zero on x ≤ 0; for fractional/negative exponents.

    Backs grammar forms x^k with non-positive-integer k (the Hardy battery's
    x^(−1/4) on uniform(0,1)).  Only meaningful on measures whose support
    keeps it in the required L_p class; divergence surfaces as an
    integration error.
    """
    alpha = float(alpha)
    if alpha == 0.0 or not np.isfinite(alpha):
        raise DomainError(f"power exponent must be finite and nonzero, got {alpha}")

    def ev(x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        safe = np.where(pos, x, 1.0)
        return np.where(pos, safe**alpha, 0.0)

    def dv(x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        safe = np.where(pos, x, 1.0)
        return np.where(pos, alpha * safe ** (alpha - 1.0), 0.0)

    return DifferentiableFunction(ev, dv, (0.0,), f"power({alpha:g})")


def ramp(center, delta) -> DifferentiableFunction:
    """clamp((x−center)/δ, −1, 1): Lipschitz sign approximation, knots at c±δ."""
    c = float(center)
    d = float(delta)
    if not d > 0.0:
        raise DomainError(f"ramp width must be positive, got {d}")

    def ev(x):
        return np.clip((np.asarray(x, dtype=float) - c) / d, -1.0, 1.0)

    def dv(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x - c) < d, 1.0 / d, 0.0)

    return DifferentiableFunction(ev, dv, (c - d, c + d), f"ramp({c:g},{d:g})")


def constant(c) -> DifferentiableFunction:
    c = float(c)

    def ev(x):
        return np.full_like(np.asarray(x, dtype=float), c)

    def dv(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return DifferentiableFunction(ev, dv, (), f"affine({c:g})")


def shifted(g: DifferentiableFunction, c) -> DifferentiableFunction:
    """g + c: same derivative and knots."""
    c = float(c)

    def ev(x):
        return np.asarray(g.eval(x), dtype=float) + c

    return DifferentiableFunction(
        ev, g.deriv, g.knots, f"shifted({g.descriptor},{c:g})"
    )


def centered(g: DifferentiableFunction, m) -> DifferentiableFunction:
    """g − E_m[g]; propagates the integration error if E_m[g] diverges.

    E_m[g] is memoized on ``m`` per function object and quadrature
    tolerance, so centering the same g again costs no integral.
    """
    key = ("mean", g, active().rel_tol)
    mean = m._memo.get(key)
    if mean is None:
        mean = m._memo[key] = m.expectation(g)
    out = shifted(g, -mean)
    # the shift value is measure-dependent quadrature output; report rows
    # read better with the semantic name
    return DifferentiableFunction(
        out.eval, out.deriv, out.knots, f"centered({g.descriptor})"
    )


def product(g: DifferentiableFunction, h: DifferentiableFunction) -> DifferentiableFunction:
    def ev(x):
        return np.asarray(g.eval(x), dtype=float) * np.asarray(h.eval(x), dtype=float)

    def dv(x):
        ge = np.asarray(g.eval(x), dtype=float)
        he = np.asarray(h.eval(x), dtype=float)
        return np.asarray(g.deriv(x), dtype=float) * he + ge * np.asarray(
            h.deriv(x), dtype=float
        )

    knots = tuple(sorted(set(g.knots) | set(h.knots)))
    return DifferentiableFunction(
        ev, dv, knots, f"product({g.descriptor},{h.descriptor})"
    )


def piecewise_linear(xs, ys, descriptor=None) -> DifferentiableFunction:
    """Interpolant through (xs, ys), constant beyond the end nodes."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
        raise DomainError("piecewise_linear needs matching 1-D arrays, length >= 2")
    if not np.all(np.diff(xs) > 0):
        raise DomainError("piecewise_linear nodes must be strictly increasing")
    slopes = np.diff(ys) / np.diff(xs)

    def ev(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    def dv(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        return np.where((x <= xs[0]) | (x >= xs[-1]), 0.0, slopes[idx])

    label = descriptor or f"custom(pwl,n={len(xs)})"
    return DifferentiableFunction(ev, dv, tuple(float(v) for v in xs), label)


def derivative(g: DifferentiableFunction) -> DifferentiableFunction:
    """g′ packaged as a function object (for norms of derivatives)."""

    def _no_second(x):
        raise ComputationError(
            f"second derivative of {g.descriptor} is not tracked"
        )

    return DifferentiableFunction(
        g.deriv, _no_second, g.knots, f"derivative({g.descriptor})"
    )


# ---- expression grammar ----------------------------------------------------
#
#   expr    := term (('+'|'-') number)*
#   term    := atom ('*' atom)*
#   atom    := 'x' ['^' number] | 'sgnpow(p)' | 'abspow(p)'
#            | 'ramp(c,delta)' | 'center(expr)' | '(' expr ')'
#
# x^k builds monomial(k) for positive integer k and power(k) otherwise.
# center(...) binds to the measure at materialization time.

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()^*+,-]))"
)


@dataclass(frozen=True)
class Expression:
    """A parsed function expression; bind(measure) builds the function.

    ``requires_measure`` is True when the expression contains center(...);
    such expressions can only be bound with a measure.
    """

    text: str
    requires_measure: bool
    _builder: Callable

    def bind(self, measure=None) -> DifferentiableFunction:
        if self.requires_measure and measure is None:
            raise ExpressionError(
                f"expression {self.text!r} uses center(...) and needs a measure"
            )
        return self._builder(measure)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            mt = _TOKEN.match(text, pos)
            if mt is None:
                if text[pos:].strip() == "":
                    break
                raise ExpressionError(
                    f"bad character {text[pos]!r} at position {pos} in {text!r}"
                )
            pos = mt.end()
            for kind in ("num", "name", "op"):
                if mt.group(kind) is not None:
                    self.tokens.append((kind, mt.group(kind)))
                    break
        self.i = 0
        self.uses_measure = False

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} in {self.text!r}, got {val!r}")

    def number(self):
        kind, val = self.take()
        if kind == "op" and val == "-":
            return -self.number()
        if kind != "num":
            raise ExpressionError(f"expected a number in {self.text!r}, got {val!r}")
        return float(val)

    def expr(self):
        node = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                c = self.number() * (1.0 if val == "+" else -1.0)
                node = (lambda base, cc: lambda m: shifted(base(m), cc))(node, c)
            else:
                return node

    def term(self):
        node = self.atom()
        while self.peek() == ("op", "*"):
            self.take()
            rhs = self.atom()
            node = (lambda a, b: lambda m: product(a(m), b(m)))(node, rhs)
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name" and val == "x":
            if self.peek() == ("op", "^"):
                self.take()
                k = self.number()
                if k == int(k) and k >= 1:
                    base = monomial(int(k))
                else:
                    base = self._checked(power, k)
                return lambda m, b=base: b
            return lambda m: monomial(1)
        if kind == "name" and val in ("sgnpow", "abspow", "ramp"):
            self.expect_op("(")
            args = [self.number()]
            while self.peek() == ("op", ","):
                self.take()
                args.append(self.number())
            self.expect_op(")")
            if val == "sgnpow" and len(args) == 1:
                fn = self._checked(signed_power, args[0])
            elif val == "abspow" and len(args) == 1:
                fn = self._checked(abs_power, args[0])
            elif val == "ramp" and len(args) == 2:
                fn = self._checked(ramp, *args)
            else:
                raise ExpressionError(
                    f"wrong argument count for {val} in {self.text!r}"
                )
            return lambda m, b=fn: b
        if kind == "name" and val == "center":
            self.expect_op("(")
            inner = self.expr()
            self.expect_op(")")
            self.uses_measure = True
            return lambda m, b=inner: centered(b(m), m)
        raise ExpressionError(
            f"expected x, a builder call, or '(' in {self.text!r}, got {val!r}"
        )

    def _checked(self, builder, *args):
        # argument-range problems are static properties of the text
        try:
            return builder(*args)
        except DomainError as exc:
            raise ExpressionError(f"in {self.text!r}: {exc}")


def parse_expression(text: str) -> Expression:
    """Parse the config grammar; raises ExpressionError with the offending text."""
    parser = _Parser(text)
    if not parser.tokens:
        raise ExpressionError("empty expression")
    builder = parser.expr()
    if parser.i != len(parser.tokens):
        _, val = parser.peek()
        raise ExpressionError(f"trailing input {val!r} in {text!r}")
    return Expression(
        text=text, requires_measure=parser.uses_measure, _builder=builder
    )
