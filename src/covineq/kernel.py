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
above.  Numerator and denominator are prefix (suffix) reads of two
cumulatives, of h dF and of dF.  They share the engine, the window and
the seed edges (the measure's knots and h's), but each partition is
adapted on its own; on every pair of the default suite the two come out
the same.  T reads both in one pass (``_tail_mean``): where a point's
sub-panels agree, its 15 nodes and their density values serve both, so
the density is evaluated once per node.  Each read accumulates from its
own end, so the ratio stays stable deep in the tails, and T_k 1 ≡ 1
holds exactly.  Both splits, W at the median and T_k at k, query each
side only on the points of that side (``_split``).
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
    """T_k h over two cumulatives of ``m``, of h dF and of dF (seeded with
    h's knots): prefixes at x ≤ k, suffixes above, the numerator and the
    mass of each point read in one pass (``_tail_mean``)."""
    k = float(k)
    integral = m.cumulative(h)
    mass = m.cumulative(np.ones_like, h.knots)  # 1.0·pdf is pdf exactly
    same = np.array_equal(integral.edges, mass.edges)
    lo, hi = m.integration_domain()

    def T(x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        xc = np.clip(x_arr, np.nextafter(lo, hi), np.nextafter(hi, lo))
        out = _split(xc, k,
                     lambda t: _tail_mean(m, h, integral, mass, same, t, "left"),
                     lambda t: _tail_mean(m, h, integral, mass, same, t, "right"))
        return float(out[0]) if np.ndim(x) == 0 else out

    return T


def _tail_mean(m, h, integral, mass, same, t, side):
    """∫ h dF / ∫ dF over the tail on ``side`` of each point of t.

    Both reads are those of ``integral`` and ``mass``, bit for bit, made in
    one pass: pdf and h are called once on the nodes of h's sub-panel, and
    the mass sums those pdf values wherever its sub-panel is the same one
    (everywhere when the two partitions are the ``same``); only the points
    where it is not are read from ``mass`` itself.  Where either read
    underflows, both are read again divided by one power of two
    (``_rescaled_tails``); where the mass is 0 even so (beyond the window,
    or a density that underflows itself), or not finite (a node on a pole
    of the density at a subnormal t), T h is h(t), the limit of the
    conditional mean.
    """
    i, a, b = integral.split(t, side)
    half, pts = quadrature.rule_nodes(a, b)
    nodes = pts.reshape(-1)
    pdf = np.asarray(m.pdf(nodes), dtype=float)
    num = integral.whole(i, side) + quadrature.rule_sums(
        half, m.weighted(h, nodes, pdf).reshape(pts.shape))
    m_i, ma, mb = (i, a, b) if same else mass.split(t, side)
    den = mass.whole(m_i, side) + quadrature.rule_sums(half, pdf.reshape(pts.shape))
    own = (ma != a) | (mb != b)
    if own.any():
        den[own] = (mass.left if side == "left" else mass.right)(t[own])
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
