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
above.  Numerator and denominator are read on one partition, that of the
cumulative of h dF, by one rule: each panel's ∫ h dF and ∫ dF are summed
by the 15-point rule from one density evaluation per node, and kept as
prefix and suffix sums; a point adds the panels its tail covers whole to
the same rule on the sub-panel it cuts (``_tail_mean``).  Each read
accumulates from its own end, so the ratio stays stable deep in the
tails, and T_k 1 ≡ 1 holds exactly.  Both splits, W at the median and
T_k at k, query each side only on the points of that side (``_split``).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import measures, quadrature
from .certificates import InequalityCertificate, certify
from .errors import DomainError
from .numerics import active


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
    """T_k h over the cumulative of h dF: prefixes at x ≤ k, suffixes
    above.  ``sums`` holds the numerators and masses of the tails that
    cover whole panels of h's partition; ``_tail_mean`` adds the rest."""
    k = float(k)
    integral = m.cumulative(h)
    sums = quadrature.end_sums(_rule_pair(m, h, integral.edges[:-1], integral.edges[1:]))
    lo, hi = m.integration_domain()

    def T(x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        xc = np.clip(x_arr, np.nextafter(lo, hi), np.nextafter(hi, lo))
        out = _split(xc, k,
                     lambda t: _tail_mean(m, h, integral, sums, t, "left"),
                     lambda t: _tail_mean(m, h, integral, sums, t, "right"))
        return float(out[0]) if np.ndim(x) == 0 else out

    return T


def _rule_pair(m, h, a, b):
    """(∫ h dF, ∫ dF) over each sub-panel [a_i, b_i] by the 15-point rule,
    both from one density evaluation per node, summed row by row."""
    half, pts = quadrature.rule_nodes(a, b)
    nodes = pts.reshape(-1)
    pdf = np.asarray(m.pdf(nodes), dtype=float)
    return np.stack([quadrature.rule_sums(half, m.weighted(h, nodes, pdf).reshape(pts.shape)),
                     quadrature.rule_sums(half, pdf.reshape(pts.shape))])


def _tail_mean(m, h, integral, sums, t, side):
    """∫ h dF / ∫ dF over the tail on ``side`` of each point of t.

    Each read is the sum over the panels of h's partition that the tail
    covers whole (``sums``) plus the 15-point rule on the one it cuts:
    pdf and h are called once on its nodes, and the mass sums the same
    pdf values as the numerator, so T_k 1 ≡ 1 exactly.  Where either read
    underflows, both are read again divided by one power of two
    (``_rescaled_tails``); where the mass is 0 even so (beyond the window,
    or a density that underflows itself), or not finite (a node on a pole
    of the density at a subnormal t), T h is h(t), the limit of the
    conditional mean.
    """
    i, a, b = integral.split(t, side)
    num, den = sums[side][:, i] + _rule_pair(m, h, a, b)
    # a read has underflowed where its subnormal spacing is coarser than
    # the quadrature tolerance; a mass that is not finite goes to the limit
    floor = _SUBNORMAL / active().rel_tol
    low = ~((den >= floor) & (den < math.inf)) | (np.abs(num) < floor)
    if not low.any():
        return num / den
    # but a small ∫ h dF has underflowed only where its own scale, |h(t)|
    # times the mass, is below the floor too: below a zero of h (h(t) = 0),
    # or where it cancels to 0 over a mass of 1/2 (h = x² − 2 on laplace
    # at the median), the read stands
    ht = np.abs(np.asarray(h(t), dtype=float))
    redo = low & (~(den >= floor) | ((ht != 0.0) & ~(ht * den >= floor)))
    if redo.any():
        num[redo], den[redo] = _rescaled_tails(m, h, integral, t[redo], side)
    empty = ~((den > 0.0) & (den < math.inf))
    out = np.divide(num, den, out=np.empty_like(t), where=~empty)
    out[empty] = np.asarray(h(t[empty]), dtype=float)
    return out


_SUBNORMAL = np.finfo(float).smallest_subnormal


def _rescaled_tails(m, h, integral, t, side):
    """(∫ h dF, ∫ dF) over the tail on ``side`` of each point of t, both
    divided by one power of two near pdf(t)·|t − end|, so neither
    underflows where the density at t does not.  Each read is summed again
    from the nodes of the panels of h's partition between the end and t,
    the last one cut at t."""
    edges = integral.edges
    if side == "left":
        end = edges[0]
        cuts = [np.append(edges[edges < u], u) for u in t]
    else:
        end = edges[-1]
        cuts = [np.append(u, edges[edges > u]) for u in t]
    count = np.array([len(c) - 1 for c in cuts])
    half, pts = quadrature.rule_nodes(np.concatenate([c[:-1] for c in cuts]),
                                      np.concatenate([c[1:] for c in cuts]))
    # the density and the widths are scaled apart: at a subnormal t their
    # product is past the float range, and so would be the density over it
    half = np.ldexp(half, -np.repeat(np.frexp(np.abs(t - end))[1], count))
    nodes = pts.reshape(-1)
    rows = np.repeat(np.frexp(m.pdf(t))[1], count)[half != 0.0]  # rule_nodes drops zero widths
    dens = np.ldexp(m.pdf(nodes), -np.repeat(rows, pts.shape[1]))
    starts = np.cumsum(count) - count
    with np.errstate(over="ignore", invalid="ignore"):
        num = quadrature.rule_sums(half, m.weighted(h, nodes, dens).reshape(pts.shape))
        den = quadrature.rule_sums(half, dens.reshape(pts.shape))
        return np.add.reduceat(num, starts), np.add.reduceat(den, starts)


def t_norm(m, h, k, p) -> float:
    """‖T_k h‖_p.  T jumps at k, so k is a knot, and at p = inf its right
    neighbour is probed too: both one-sided limits are seen."""
    p, k = measures.lp_exponent(p), float(k)  # p before T_k h is built
    split = (k, np.nextafter(k, math.inf)) if math.isinf(p) else (k,)
    return m.lp_norm(t_transform(m, h, k), p, (*h.knots, *split))


def hardy_certificate(m, h, k, p) -> InequalityCertificate:
    """‖T_k h‖_p ≤ (p/(p−1))·‖h‖_p; the constant diverges at p=1.

    T_k h averages h over tails out to the ends of the integration window,
    past the deepest probe of ``Measure.probe_points``; so at p = inf the
    sup of |h| reads those ends too, and is taken over the window that
    T_k h averages over."""
    p = measures.lp_exponent(p)
    if p == 1.0:
        raise DomainError(f"p must be > 1, got {p!r}")
    const = 1.0 if math.isinf(p) else p / (p - 1.0)
    lhs = t_norm(m, h, k, p)
    ends = m.integration_domain() if math.isinf(p) else ()
    rhs = const * m.lp_norm(h, p, ends)
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
