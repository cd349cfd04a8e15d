"""Covariance kernel K(x,y) = F(x∧y)·S(x∨y), tail identities, T_k transform.

The kernel represents covariances of absolutely continuous functions as
Cov(g,h) = ∫∫ g′(x) K(x,y) h′(y) dx dy.  The inner integral is the tail
weight W of ``tail_weight``: F(z)·E[h] − ∫_{−∞}^z h dF at or below the
median, ∫_{(z,∞)} h dF − S(z)·E[h] above it.  The two forms are equal, and
each cancels mildly on its own side; W collapses the double integral to a
single quadrature.  ``_w_forms`` writes both forms out once, for W and for
the tail identities.

T_k conditionally averages h over the tail cut at the moving point:
T_k h(x) = (∫_{−∞}^x h dF)/F(x) for x ≤ k and (∫_{(x,∞)} h dF)/(1−F(x))
above.  Both numerator and denominator are prefix integrals from the same
engine over the same panel layout, so the ratio stays stable deep in the
tails and T_k 1 ≡ 1 holds exactly.  Both splits, W at the median and T_k
at k, query each side only on the points of that side (``_split``).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import measures
from .certificates import InequalityCertificate, certify
from .errors import DomainError


def kernel_eval(m, x, y):
    """K(x,y) = F(min) − F(x)F(y), computed as F(min)·S(max) (no cancellation)."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    out = m.cdf(np.minimum(x_arr, y_arr)) * m.sf(np.maximum(x_arr, y_arr))
    return float(out) if (np.ndim(x) == 0 and np.ndim(y) == 0) else out


def covariance_direct(m, g, h) -> float:
    """E[gh] − E[g]E[h] by direct quadrature."""
    from . import functions

    return m.expectation(functions.product(g, h)) - m.expectation(g) * m.expectation(h)


def _split(x, k, below, above):
    """below(x) at x ≤ k, above(x) at x > k, on a float array x.  Each side
    is called only on its own points, and not at all without any; a
    cumulative query sums each row on its own, so its bits do not move."""
    low = x <= k
    out = np.empty_like(x)
    for mask, side in ((low, below), (~low, above)):
        if mask.any():
            out[mask] = side(x[mask])
    return out


def _w_forms(m, ch):
    """W's two forms over the cumulative ``ch`` of h dF: F(x)E[h] −
    ∫_{−∞}^x h dF, and ∫_{(x,∞)} h dF − S(x)E[h]."""
    return (lambda t: m.cdf(t) * ch.total - ch.left(t),
            lambda t: ch.right(t) - m.sf(t) * ch.total)


def tail_weight(m, h) -> Callable:
    """W(x) = ∫ K(x,y) h′(y) dy from one cumulative of h dF, in the first
    form of ``_w_forms`` at or below the median and the second above it.
    The forms are equal; each cancels mildly on its own side."""
    ch, med = m.cumulative(h), m.median()
    below, above = _w_forms(m, ch)
    return lambda x: _split(np.asarray(x, dtype=float), med, below, above)


def covariance_kernel(m, g, h) -> float:
    """∫∫ g′(x) K(x,y) h′(y) dy dx = ∫ g′·W with W of ``tail_weight``; the
    median, where W switches form, is a knot.  Memoized on ``m`` per (g, h)
    and quadrature tolerance: every cell with lhs |Cov(g,h)| reads one
    quadrature."""

    def build():
        w = tail_weight(m, h)
        return m.integral(lambda x: np.asarray(g.deriv(x), dtype=float) * w(x),
                          (*g.knots, *h.knots, m.median()))

    return m.memo(("covariance", g, h), build)


def _tail_identity(m, h, z, side) -> tuple[float, float]:
    z = float(z)
    below, above = _w_forms(m, m.cumulative(h))
    lhs = (below if side == "left" else above)(z)
    rhs = m.integral(
        lambda y: kernel_eval(m, z, y) * np.asarray(h.deriv(y), dtype=float),
        (*h.knots, z),
    )
    return float(lhs), float(rhs)


def tail_identity_left(m, h, z) -> tuple[float, float]:
    """(F(z)E[h] − ∫_{−∞}^z h dF, ∫ K(z,y) h′(y) dy): equal in exact arithmetic."""
    return _tail_identity(m, h, z, "left")


def tail_identity_right(m, h, z) -> tuple[float, float]:
    """(∫_{(z,∞)} h dF − S(z)E[h], ∫ K(z,y) h′(y) dy): mirror identity."""
    return _tail_identity(m, h, z, "right")


def t_transform(m, h, k) -> Callable:
    """T_k h over two cumulatives built here, of h dF and of dF (seeded
    with h's knots); prefixes are queried at x ≤ k, suffixes above."""
    k = float(k)
    integral = m.cumulative(h)
    mass = m.cumulative(np.ones_like, h.knots)  # 1.0·pdf is pdf exactly
    lo, hi = m.integration_domain()

    def T(x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        xc = np.clip(x_arr, np.nextafter(lo, hi), np.nextafter(hi, lo))
        num = _split(xc, k, integral.left, integral.right)
        den = _split(xc, k, mass.left, mass.right)
        # where a tail mass underflows to 0 (beta(2,3) below x ≈ 1e-162),
        # T h is h(x), the limit of the conditional mean
        empty = ~(den > 0.0)
        out = np.divide(num, den, out=np.empty_like(xc), where=~empty)
        if np.any(empty):
            out[empty] = np.asarray(h(xc[empty]), dtype=float)
        return float(out[0]) if np.ndim(x) == 0 else out

    return T


def t_norm(m, h, k, p) -> float:
    """‖T_k h‖_p.  T jumps at k, so k is a knot, and at p = inf its right
    neighbour is probed too: both one-sided limits are seen."""
    p, k = measures.lp_exponent(p), float(k)  # p before T_k h is built
    split = (k, np.nextafter(k, math.inf)) if math.isinf(p) else (k,)
    return m.lp_norm(t_transform(m, h, k), p, (*h.knots, *split))


def hardy_certificate(m, h, k, p) -> InequalityCertificate:
    """‖T_k h‖_p ≤ (p/(p−1))·‖h‖_p; the constant diverges at p=1."""
    p = float(p)
    if math.isnan(p) or p <= 1.0:
        raise DomainError(f"hardy_certificate requires p > 1, got {p}")
    const = 1.0 if math.isinf(p) else p / (p - 1.0)
    lhs = t_norm(m, h, k, p)
    rhs = const * m.lp_norm(h, p)
    return certify(
        "hardy",
        lhs=lhs,
        rhs=rhs,
        params={
            "family": m.label,
            "p": p,
            "k": float(k),
            "h": getattr(h, "descriptor", repr(h)),
        },
    )
