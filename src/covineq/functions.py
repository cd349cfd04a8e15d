"""Test functions with exact derivatives: monomials, signed/absolute powers,
sign-approximating ramps, shifts, products, and a small expression grammar.

Every builder returns a DifferentiableFunction whose ``knots`` list the
abscissae where the derivative jumps; the quadrature engine seeds panel
edges there.  sign(0) = +1 throughout.
"""

from __future__ import annotations

import ast
import functools
import re
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ComputationError, DomainError, ExpressionError


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

    @functools.cached_property
    def prime(self) -> "DifferentiableFunction":
        """g′ as a function object, built on first use and kept on g and
        its shifts (``shifted``, ``centered``), so a measure's memo entries
        on g′ serve ‖g′‖_p and ‖(g + c)′‖_p; g′ holds no reference to g."""
        descriptor = self.descriptor  # so that g′ holds no reference back to g

        def _no_second(x):
            raise ComputationError(f"second derivative of {descriptor} is not tracked")

        return DifferentiableFunction(
            self.deriv, _no_second, self.knots, f"derivative({descriptor})"
        )


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


# x, declared once: the grammar's x and the moment checks share its memo entries
IDENTITY = monomial(1)


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

    return DifferentiableFunction(ev, dv, (), f"constant({c:g})")


def shifted(g: DifferentiableFunction, c, descriptor=None) -> DifferentiableFunction:
    """g + c: same knots and the same derivative object, ``g.prime``."""
    c = float(c)

    def ev(x):
        return np.asarray(g.eval(x), dtype=float) + c

    out = DifferentiableFunction(ev, g.deriv, g.knots,
                                 descriptor or f"shifted({g.descriptor},{c:g})")
    out.__dict__["prime"] = g.prime  # the cache of the cached_property
    return out


def centered(g: DifferentiableFunction, m) -> DifferentiableFunction:
    """g − E_m[g], named for the report rows; propagates the integration
    error if E_m[g] diverges.

    Memoized on ``m`` per function object and quadrature tolerance: a
    second call returns the same object, so memo keys built on h₀ (its
    cumulatives, its covariances) hit too; its derivative is ``g.prime``.
    """
    return m.memo(("centered", g),
                  lambda: shifted(g, -m.expectation(g), f"centered({g.descriptor})"))


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


# ---- expression grammar ----------------------------------------------------
#
#   expr    := term | expr ('+'|'-') number
#   term    := atom | term '*' atom
#   atom    := 'x' | 'x' ('^'|'**') number | 'sgnpow(p)' | 'abspow(p)'
#            | 'ramp(c,delta)' | 'center(expr)' | '(' expr ')'
#   number  := ['-'] number | '(' number ')' | int or float literal
#
# x^k builds monomial(k) for positive integer k and power(k) otherwise.
# center(...) binds to the measure at materialization time.  Python's own
# parser reads the text after four rewrites: whitespace runs become one
# space (Python rejects indentation and line breaks), Unicode decimal digits
# become ASCII ones (float() reads them, Python's parser does not), integer
# literals lose their leading zeros (x^02) and '^' becomes '**'.  The tree it
# returns is then walked against the grammar, so parentheses may wrap any
# term or number, (x)^2 and x^(2) included, and a number is any Python int or
# float literal.  '#' is refused: Python would read the rest as a comment.

_MAX_DEPTH = 500  # grammar nodes on one path from the root; bind recurses per node
# Python 3.10's ast.parse overflows the C stack on a chain such as x*x*...*x
# about 120,000 deep; each link takes at least two characters
_MAX_LENGTH = 100_000

_QUOTE_HEAD, _QUOTE_TAIL = 40, 20  # characters of user text kept in a message


def _quoted(text: str) -> str:
    """repr(text); past head + tail characters, its head, its tail and its
    length, so that an error message stays one short line."""
    if len(text) <= _QUOTE_HEAD + _QUOTE_TAIL:
        return repr(text)
    head, tail = text[:_QUOTE_HEAD], text[-_QUOTE_TAIL:]
    return f"{head!r}...{tail!r} ({len(text)} characters)"


_LEAVES = {"sgnpow": (signed_power, 1), "abspow": (abs_power, 1), "ramp": (ramp, 2)}


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
                f"expression {_quoted(self.text)} uses center(...) and needs a measure"
            )
        return self._builder(measure)


def parse_expression(text: str) -> Expression:
    """Parse the config grammar; raises ExpressionError with the offending text."""
    source = re.sub(r"\d", lambda d: str(int(d[0])), " ".join(text.split()))
    source = re.sub(r"(?<![\w.])0+(?=\d)", "", source).replace("^", "**")

    def expected(what, node):
        got = ast.get_source_segment(source, node)
        return ExpressionError(f"expected {what}, got {_quoted(got)}")

    def number(node):
        sign = 1.0
        while isinstance(getattr(node, "op", None), ast.USub):
            node, sign = node.operand, -sign
        if not (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            raise expected("a number", node)
        return sign * float(node.value)

    def build(node, depth):
        # the builder closure m -> DifferentiableFunction of one grammar node
        if depth > _MAX_DEPTH:
            raise ExpressionError(f"nested deeper than {_MAX_DEPTH} levels")
        op = getattr(node, "op", None)
        if isinstance(op, (ast.Add, ast.Sub)):
            base = build(node.left, depth + 1)
            c = number(node.right) * (1.0 if isinstance(op, ast.Add) else -1.0)
            return lambda m: shifted(base(m), c)
        if isinstance(op, ast.Mult):
            a, b = build(node.left, depth + 1), build(node.right, depth + 1)
            return lambda m: product(a(m), b(m))
        if getattr(node, "id", None) == "x":
            return lambda m: IDENTITY
        if isinstance(op, ast.Pow) and getattr(node.left, "id", None) == "x":
            k = number(node.right)
            fn = monomial(int(k)) if k.is_integer() and k >= 1 else power(k)
            return lambda m: fn
        if isinstance(node, ast.Call) and not node.keywords:
            name, args = getattr(node.func, "id", None), node.args
            if name == "center" and len(args) == 1:
                inner = build(args[0], depth + 1)
                return lambda m: centered(inner(m), m)
            if name in _LEAVES:
                builder, arity = _LEAVES[name]
                if len(args) != arity:
                    raise ExpressionError(f"{name} takes {arity} argument(s)")
                fn = builder(*map(number, args))
                return lambda m: fn
        raise expected("x, x^k, a builder call, or a product or shift of these", node)

    try:
        if "#" in source:
            raise ExpressionError("bad character '#'")
        if not source:
            raise ExpressionError("empty expression")
        if len(source) > _MAX_LENGTH:
            raise ExpressionError(f"longer than {_MAX_LENGTH} characters")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning becomes a SyntaxError
            tree = ast.parse(source, mode="eval")
        builder = build(tree.body, 1)
    # ExpressionError and DomainError (an argument out of range) are ValueErrors
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError) as exc:
        reason = getattr(exc, "msg", None) or str(exc) or type(exc).__name__
        raise ExpressionError(f"cannot parse {_quoted(text)}: {reason}") from None
    uses_measure = any(getattr(n, "id", None) == "center" for n in ast.walk(tree))
    return Expression(text=text, requires_measure=uses_measure, _builder=builder)
