"""Covariance kernel K(x,y) = F(x∧y)·S(x∨y), tail identities, T_k transform.

The kernel represents covariances of absolutely continuous functions as
Cov(g,h) = ∫∫ g′(x) K(x,y) h′(y) dx dy.  The inner integral has the closed
forms F(z)·E[h] − ∫_{−∞}^z h dF (lower tail) and ∫_{(z,∞)} h dF − S(z)·E[h]
(upper tail), which are equal; using each on its own side of the median
keeps the cancellation mild and collapses the double integral to a single
quadrature.

T_k conditionally averages h over the tail cut at the moving point:
T_k h(x) = (∫_{−∞}^x h dF)/F(x) for x ≤ k and (∫_{(x,∞)} h dF)/(1−F(x))
above.  Both numerator and denominator are prefix integrals from the same
engine over the same panel layout, so the ratio stays stable deep in the
tails and T_k 1 ≡ 1 holds exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import measures, quadrature
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


def tail_weights(m, h) -> tuple[Callable, Callable]:
    """The two forms of W(x) = ∫ K(x,y) h′(y) dy, from one cumulative of h dF.

    ``left(x)`` = F(x)E[h] − ∫_{−∞}^x h dF and ``right(x)`` =
    ∫_{(x,∞)} h dF − S(x)E[h]; they are equal in exact arithmetic, and each
    cancels mildly on its own side of the median.
    """
    ch = m.cumulative(h)
    e_h = ch.total
    return (lambda x: m.cdf(x) * e_h - ch.left(x),
            lambda x: ch.right(x) - m.sf(x) * e_h)


def covariance_kernel(m, g, h) -> float:
    """∫∫ g′(x) K(x,y) h′(y) dy dx, inner integral in closed form.

    The y-integral against the kernel is the tail quantity W of
    ``tail_weights``; its left form is used below the median, its right
    form above.
    """
    left, right = tail_weights(m, h)
    med = m.median()
    lo, hi = m.integration_domain()
    return quadrature.integrate(
        lambda x: np.asarray(g.deriv(x), dtype=float)
        * np.where(x <= med, left(x), right(x)),
        lo, hi, knots=(*m.knots, *g.knots, *h.knots, med),
    )


def _tail_identity(m, h, z, side) -> tuple[float, float]:
    z = float(z)
    left, right = tail_weights(m, h)
    lhs = left(z) if side == "left" else right(z)
    lo, hi = m.integration_domain()
    rhs = quadrature.integrate(
        lambda y: kernel_eval(m, z, y) * np.asarray(h.deriv(y), dtype=float),
        lo, hi, knots=(*m.knots, *h.knots, z),
    )
    return float(lhs), float(rhs)


def tail_identity_left(m, h, z) -> tuple[float, float]:
    """(F(z)E[h] − ∫_{−∞}^z h dF, ∫ K(z,y) h′(y) dy): equal in exact arithmetic."""
    return _tail_identity(m, h, z, "left")


def tail_identity_right(m, h, z) -> tuple[float, float]:
    """(∫_{(z,∞)} h dF − S(z)E[h], ∫ K(z,y) h′(y) dy): mirror identity."""
    return _tail_identity(m, h, z, "right")


@dataclass(frozen=True, eq=False)
class TkTransform:
    """Immutable T_k h with cached prefix integrals of h dF and dF."""

    measure: object
    k: float
    source: object
    left_integral: Callable    # x ↦ ∫_{(lo,x)} h dF
    right_integral: Callable   # x ↦ ∫_{(x,hi)} h dF
    _mass_left: Callable       # x ↦ ∫_{(lo,x)} dF, same panel layout
    _mass_right: Callable
    domain: tuple[float, float]

    def __call__(self, x):
        lo, hi = self.domain
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        xc = np.clip(x_arr, np.nextafter(lo, hi), np.nextafter(hi, lo))
        below = xc <= self.k
        num = np.where(below, self.left_integral(xc), self.right_integral(xc))
        mass = np.where(below, self._mass_left(xc), self._mass_right(xc))
        # where a tail mass underflows to 0 (beta(2,3) below x ≈ 1e-162),
        # T h is h(x), the limit of the conditional mean
        empty = ~(mass > 0.0)
        out = np.divide(num, mass, out=np.empty_like(xc), where=~empty)
        if np.any(empty):
            out[empty] = np.asarray(self.source(xc[empty]), dtype=float)
        return float(out[0]) if np.ndim(x) == 0 else out

    def profile(self, n: int = 512):
        t = np.arange(1, n + 1, dtype=float) / (n + 1)
        xs = self.measure.quantile(t)
        return t, xs, self(xs)

    def profile_csv(self, n: int = 512) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "x", "Tkh"])
        for t, x, v in zip(*self.profile(n)):
            writer.writerow([f"{t:.12g}", f"{x:.12g}", f"{v:.12g}"])
        return buf.getvalue()


def t_transform(m, h, k) -> TkTransform:
    """Build T_k h with eagerly cached cumulative integrals."""
    ch = m.cumulative(h)
    cf = m.cumulative(np.ones_like, h.knots)  # 1.0·pdf is pdf exactly
    return TkTransform(
        measure=m,
        k=float(k),
        source=h,
        left_integral=ch.left,
        right_integral=ch.right,
        _mass_left=cf.left,
        _mass_right=cf.right,
        domain=m.integration_domain(),
    )


def t_norm(m, h, k, p) -> float:
    """‖T_k h‖_p.  T jumps at k, so k is a knot, and at p = inf its right
    neighbour is probed too: both one-sided limits are seen."""
    p = measures.lp_exponent(p)  # before T_k h is built
    T = t_transform(m, h, k)
    split = (T.k, np.nextafter(T.k, math.inf)) if math.isinf(p) else (T.k,)
    return m.lp_norm(T, p, (*h.knots, *split))


def hardy_certificate(m, h, k, p) -> InequalityCertificate:
    """‖T_k h‖_p ≤ (p/(p−1))·‖h‖_p; the constant diverges at p=1."""
    p = float(p)
    if p == 1.0:
        raise DomainError("Hardy constant p/(p-1) diverges at p=1; need p > 1")
    if math.isnan(p) or p < 1.0:
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
