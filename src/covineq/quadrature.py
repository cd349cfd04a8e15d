"""Adaptive Gauss-Kronrod quadrature with prefix/suffix (cumulative) queries.

The engine integrates vectorized callables f : ndarray -> ndarray over an
open interval (lo, hi), an infinite end cut at the outermost knot toward
it.  Error control is panel-local: each panel is scored by QUADPACK's
embedded pair (R. Piessens et al., QUADPACK, 1983), the 21-point Kronrod
rule and the 10-point Gauss rule on 10 of its nodes,

    value_i = K21(a_i, b_i),   err_i = | K21(a_i, b_i) - G10(a_i, b_i) | ,

and accepted when err_i <= rel_tol * A_i, where A_i is the K21 integral of
|f| on the panel.  Summed over the partition this enforces
sum err_i <= rel_tol * int |f|, a budget with no absolute part, so no
result depends on the units of x or of f.  Cumulative reads cut a panel
at the query point and apply the 15-point Gauss-Legendre rule to the
sub-panel (``rule_nodes``, ``rule_sums``).

Three refinements make the scheme robust on the integrands this package
produces:

* the intervals of the sorted ``knots`` are the shells, an infinite end
  is cut at the outermost knot (or kink) toward it, and ``kinks`` only seed:
  ``Measure`` passes its ladder as ``knots`` (the quantiles 2^-1, 2^-3, 2^-5,
  2^-9, ... on each side, and the window's ends ppf/isf(1e-300)), so each
  shell carries a fixed share of the mass, and f's kinks as ``kinks``.
  The outermost shell with |f| mass (the outermost, or the one inward of
  it where f underflows past the deepest level) must carry at most half
  the mass of the shell inward of it, as the terms of a convergent series
  shrink.  A divergent integral (|x| under a Cauchy law gains (1/π)·ln 2
  per halving of the tail, so its shells double) raises IntegrationError
  instead of reading its truncation; so does a convergent one whose
  shells shrink more slowly, as its mass past the window's depth 1e-300
  is then over 1e-3 of the total;
* a panel touching an endpoint is split geometrically (the boundary child
  keeps 1/8 of the width) instead of bisected, so the endpoint
  singularities of a bounded support (a beta density with a shape below 1,
  a log- or power-type integrand at an end) grade correctly;
* a panel whose mass A_i is negligible is accepted outright.  Self-similar
  singular stubs have a *constant* err/A ratio under refinement, so the
  relative test alone would never terminate on them; the mass rule is what
  stops the descent once the remaining stub cannot affect the result.
  ``integrate`` measures A_i against the running global mass.  A prefix or
  suffix read of ``cumulative`` inherits each exempt panel's error as an
  absolute offset, so there A_i is measured against the panel's lighter
  side, the smaller |f| mass at or left of it and at or right of it, floored
  at 2^-57 of the global mass: a stub at an end has only its own mass on
  its lighter side, and is refined until its mass is below 2^-57 · rel_tol
  / 100 of the total.  Without the floor a stub on a pole (the beta(0.5, 2)
  density at 0) would never be exempt, and would be split onto the pole.
  The panels below the floor are exempt against it, so a read below 2^-57
  of the total is accurate only absolutely, to about 7e-29 of the total
  (at rel_tol 1e-9).  The partition is kept in x order, so the lighter
  sides are one running sum of the panels' masses.

A panel that does not pass is split until it is stuck: its split point no
longer falls strictly inside it (width underflow), or the round or panel
budget is spent.  A stuck panel that did not pass is given up on: it is
kept as it is, and its error counts against the global budget, so the
quadrature raises IntegrationError unless sum err_i <= rel_tol * int |f|
still holds.  Non-finite values poison a panel (err = inf), so a genuinely
divergent integrand ends given up on with an infinite error bound and
raises instead of returning garbage.

The rounds are where a build spends its own time, so each does little
besides scoring.  Round 0 scores every seed panel in one batch; each later
round scores, in one batch in x order, exactly the children made by the
round before, and the panels that passed are never scored again, so every
panel is scored in the same batch, with the same rows in the same order, as
when each round looked at every panel.  A round splits only its failing
panels (a split point and a width-underflow test for those alone), and the
loop ends at the first round where none fails.  The whole build runs under
one floating-point error state, all="ignore", whatever the caller's, which
is back in force when the build returns or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError
from .numerics import active

# the reads' own rule, GL15: on G10 a gaussian ratio is 8e-10 off, on K21 they cost +33% points
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

# QUADPACK's qk21 table: the nonnegative Kronrod nodes, descending, their
# K21 weights, and the G10 weights of the Gauss nodes among them (the odd
# ones); the rule is symmetric about 0
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# the 21 nodes ascending, and the (21, 2) weights of K21 and of G10 on them
_GK_NODES = np.concatenate([-np.array(_XGK[:-1]), _XGK[::-1]])
_GK_WEIGHTS = np.zeros((21, 2))
_GK_WEIGHTS[:, 0] = _WGK[:-1] + _WGK[::-1]
_GK_WEIGHTS[1::2, 1] = _WG + _WG[::-1]

_MAX_ROUNDS = 500
_MAX_PANELS = 30_000
_MASS_FRACTION = 0.01
# the least lighter-side mass, against the global mass, of a cumulative build
_LIGHT_FLOOR = 2.0 ** -57
# a split panel's two children, as offsets from the first
_CHILDREN = np.array([0, 1])


def _panel_batch(f, a, b):
    """Score panels (a_i, b_i): K21 value, |K21 - G10| error, K21 |f| mass.

    One vectorized call evaluates the 21 Kronrod nodes of every panel; the
    Gauss rule reuses 10 of their values.  Panels containing non-finite
    evaluations get err = mass = inf and value 0 so they never pass any
    acceptance test but do not poison running totals.  Every K21 weight is
    positive, so such a panel's mass is non-finite: the rows are looked at
    only when some mass is.

    The sums are one (n, 21) @ (21, 2) matrix product, which rounds with
    the number of rows: a panel scored in another batch can come out one
    ulp apart.  A caller that needs fixed bits sums by row (``rule_sums``).
    The batch runs in the caller's floating-point error state; ``_adapt``
    ignores every floating-point error for the whole build.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    pts = half[:, None] * _GK_NODES  # (n, 21)
    pts += (a + half)[:, None]
    vals = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
    kg = half[:, None] * (vals @ _GK_WEIGHTS)
    value = kg[:, 0]
    err = np.abs(value - kg[:, 1])
    # summed as the value is, so a nonnegative f's mass is its value
    mass = half * (np.abs(vals) @ _GK_WEIGHTS)[:, 0]
    if np.count_nonzero(np.isfinite(mass)) < len(mass):
        broken = ~np.isfinite(vals).all(axis=1)
        value = np.where(broken, 0.0, value)
        err = np.where(broken, np.inf, err)
        mass = np.where(broken, np.inf, mass)
    return value, err, mass


def _ladder(knots, kinks=()):
    """The sorted finite entries of ``knots`` and ``kinks``: ``knots`` itself
    when there are no kinks and it already is sorted and finite, as
    ``Measure.seed_levels`` is."""
    ks = np.asarray(knots, dtype=float)
    if (not len(kinks) and ks.size and math.isfinite(ks[0]) and math.isfinite(ks[-1])
            and np.count_nonzero(ks[1:] >= ks[:-1]) == ks.size - 1):
        return ks
    ks = np.sort(np.concatenate([ks, kinks]))
    # sorted, the non-finite entries are at the ends (-inf first, +inf and NaN last)
    if ks.size and not (math.isfinite(ks[0]) and math.isfinite(ks[-1])):
        ks = ks[np.isfinite(ks)]
    return ks


def _seed_edges(lo, hi, knots, kinks=()):
    """lo, hi and the finite knots and kinks between them, sorted and unique;
    an infinite end is cut at the outermost finite one toward it."""
    ks = _ladder(knots, kinks)
    if ks.size:
        lo = ks[0] if lo == -np.inf else lo
        hi = ks[-1] if hi == np.inf else hi
    lo, hi = float(lo), float(hi)
    if not (hi > lo and math.isfinite(lo) and math.isfinite(hi)):
        raise IntegrationError(f"empty integration interval ({lo}, {hi})", 0.0, 0.0)
    inner = ks[ks.searchsorted(lo, side="right"):ks.searchsorted(hi, side="left")]
    edges = np.empty(len(inner) + 2)
    edges[0], edges[1:-1], edges[-1] = lo, inner, hi
    first = np.empty(len(edges), dtype=bool)  # the first of each run of equal edges
    first[0] = True
    np.not_equal(edges[1:], edges[:-1], first[1:])
    return edges[first]


def _growing_shell(shells, lo_inf, hi_inf):
    """The first infinite end whose outermost shell with |f| mass (the
    outermost, or the one inward of it where the outermost reads 0) carries
    more than half the mass of the one inward of it, as (end, outer mass,
    inner mass), or None; ``shells`` are the shells' masses, in x order."""
    if len(shells) < 6:
        return None
    for end, inf, out in (("-inf", lo_inf, shells[:3]), ("+inf", hi_inf, shells[:-4:-1])):
        k = 0 if out[0] > 0.0 else 1
        if inf and not out[k] <= 0.5 * out[k + 1]:
            return end, out[k], out[k + 1]
    return None


def _adapt(f, lo, hi, knots, kinks=(), lighter_side=False) -> CumulativeIntegral:
    """Refine the seed partition of (lo, hi), kept in x order, to the active
    rel_tol: round 0 scores every seed panel, each later round only the
    children made by the round before, in one batch.  A scored panel that
    passes is kept; one that fails is split in place into its two children,
    unless it is stuck.  One give-up rule: a kept panel that did not pass,
    or a spent budget, sets ``gave_up``, and then the summed error must meet
    the global budget.  The build runs under one floating-point error state,
    all="ignore", whatever the caller's.
    ``lighter_side`` measures the mass exemption against each panel's lighter
    side, for the prefix and suffix reads of a cumulative.  ``knots`` and
    ``kinks`` seed panels; the sorted finite ``knots`` bound the shells."""
    rel_tol = active().rel_tol
    exempt = _MASS_FRACTION * rel_tol
    with np.errstate(all="ignore"):
        ladder = _ladder(knots)
        edges = _seed_edges(lo, hi, ladder, kinks)
        lo_inf, hi_inf = lo == -np.inf, hi == np.inf
        lo, hi = float(edges[0]), float(edges[-1])
        n = len(edges) - 1
        gave_up = False
        # the scored panels: their indices ``new``, ends a, b and scores v, e, m
        new, a, b = slice(None), edges[:-1], edges[1:]
        value, err, mass = v, e, m = _panel_batch(f, a, b)
        for round_no in range(_MAX_ROUNDS + 1):
            run = mass.cumsum()
            if not math.isfinite(run[-1]):
                # a broken panel's mass counts as 0
                mass[new] = m = np.where(np.isfinite(m), m, 0.0)
                run = mass.cumsum()
            scale = run[-1]
            if lighter_side:
                left = run[new]
                scale = np.maximum(np.minimum(left, run[-1] - left + m), _LIGHT_FLOOR * run[-1])
            ok = (e <= rel_tol * m) | (m <= exempt * scale)
            # a panel with non-finite error must keep splitting (inf <= inf is true)
            ok &= np.isfinite(e)
            go = (~ok).nonzero()[0]
            spent = round_no == _MAX_ROUNDS or n + len(go) > _MAX_PANELS
            gave_up |= spent
            if spent or not len(go):
                break
            # a failing panel is bisected, or split geometrically at an end: only
            # the first can start at lo, and only the last can end at hi
            ag, bg = a[go], b[go]
            width = bg - ag
            split = ag + 0.5 * width
            if bg[-1] == hi:
                split[-1] = bg[-1] - width[-1] / 8.0
            if ag[0] == lo:
                split[0] = ag[0] + width[0] / 8.0
            # width underflow: a split point not strictly inside leaves the panel stuck
            inside = (split > ag) & (split < bg)
            if np.count_nonzero(inside) < len(go):
                gave_up = True
                go, split = go[inside], split[inside]
                if not len(go):
                    break
            # each panel that goes on is replaced, in place, by its two children
            at = new[go] if round_no else go
            twice = np.zeros(n + 1, dtype=np.intp)
            twice[at] = 1
            twice += 1
            edges = edges.repeat(twice)
            # a split panel's children sit at its index shifted by the splits left of it
            new = ((at + np.arange(len(at)))[:, None] + _CHILDREN).reshape(-1)
            edges[new[1::2]] = split
            twice = twice[:-1]
            value, err, mass = value.repeat(twice), err.repeat(twice), mass.repeat(twice)
            n += len(at)
            a, b = edges[new], edges[new + 1]
            v, e, m = _panel_batch(f, a, b)
            value[new], err[new], mass[new] = v, e, m

        total, error_bound = float(value.sum()), float(err.sum())
        if gave_up and not error_bound <= rel_tol * run[-1]:
            raise IntegrationError(
                f"quadrature did not converge on ({lo}, {hi}): "
                f"error bound {error_bound:.3e} exceeds budget "
                f"{rel_tol * run[-1]:.3e}",
                estimate=total,
                error_bound=error_bound,
            )
        if lo_inf or hi_inf:
            # a panel past an end knot of the ladder (a kink moved the cut) is in the end shell
            shell = ladder[1:-1].searchsorted(edges[:-1], side="right")
            grown = _growing_shell(np.bincount(shell, mass).tolist(), lo_inf, hi_inf)
            if grown is not None:
                raise IntegrationError(
                    "integral diverges toward {}: a shell carries |f| mass {:.3e} "
                    "against {:.3e} inward of it".format(*grown),
                    estimate=total,
                    error_bound=math.inf,
                )
    return CumulativeIntegral(f, edges, value, total, error_bound)


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    *,
    knots: Sequence[float] = (),
    kinks: Sequence[float] = (),
) -> float:
    """Integral of f over (lo, hi) to the active numerics.NumericContext's
    relative tolerance; IntegrationError when it cannot be met (divergent or
    broken integrands end up here).

    ``knots`` and ``kinks`` seed panel edges, so that no kink of f (or of a
    derivative) straddles a panel; ``kinks`` only seed, and the intervals of
    the sorted finite ``knots`` are the shells.  An infinite end is cut at the
    outermost knot or kink toward it, and raises IntegrationError when the
    shells toward it grow (see the module docstring).
    """
    return _adapt(f, lo, hi, knots, kinks).total


def rule_nodes(a, b):
    """The node half of the 15-point rule on sub-panels [a_i, b_i]: the
    half widths, and the (n, 15) nodes of the rows of nonzero width (a
    zero-width row reads 0 and is never evaluated)."""
    half = 0.5 * (b - a)
    nz = half != 0.0
    hh = half[nz]
    pts = hh[:, None] * _NODES
    pts += (a[nz] + hh)[:, None]
    return half, pts


def rule_sums(half, vals):
    """The sum half: half_i · Σ_j w_j vals_ij over the nonzero-width rows
    of ``half``, whose (n, 15) values ``vals`` holds, and 0 on the others.

    Each row is summed on its own in a fixed order, so a query's value does
    not depend on the other points queried with it (a matrix product
    rounds differently with the number of rows).
    """
    out = np.zeros_like(half)
    nz = half != 0.0
    out[nz] = half[nz] * np.einsum("ij,j->i", vals, _WEIGHTS)
    return out


def _partial_panels(f, a, b):
    """Vectorized 15-point rule of f on sub-panels [a_i, b_i] (may be
    zero-width); f is not called when every width is 0."""
    half, pts = rule_nodes(a, b)
    if not len(pts):
        return np.zeros_like(half)
    return rule_sums(half, np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape))


def end_sums(values):
    """{"left": Σ values[..., :i], "right": Σ values[..., i:]} for i = 0 … K
    on the last axis, each summed from its own end so neither cancels."""
    zero = np.zeros((*values.shape[:-1], 1))
    return {"left": np.concatenate([zero, values.cumsum(-1)], -1),
            "right": np.concatenate([values[..., ::-1].cumsum(-1)[..., ::-1], zero], -1)}


@dataclass(eq=False)
class CumulativeIntegral:
    """Prefix/suffix integrals over an adaptively accepted partition.

    left(t) = integral over (lo, t), right(t) = integral over (t, hi), each
    accumulated from its own end (``end_sums``).  Queries are vectorized:
    a query lands in one accepted panel and costs one partial 15-point
    evaluation.  ``split`` gives a read's panel index and sub-panel to a
    caller that sums the panels itself (``kernel.t_transform``).  A read
    below 2^-57 of the total (``_LIGHT_FLOOR``) is accurate only
    absolutely, to about 7e-29 of the total at rel_tol 1e-9: the panels
    there are exempt against the floor.
    """

    f: Callable
    edges: np.ndarray   # the K + 1 panel ends, increasing from lo to hi
    values: np.ndarray  # the K panel integrals
    total: float
    error_bound: float

    @cached_property
    def _sums(self):
        return end_sums(self.values)

    def split(self, t, side):
        """Queries t (a float array) on ``side``, "left" or "right", as
        (i, a, b): the read is ``end_sums(values)[side][i]``, the panels it
        covers whole, plus the rule of f on the sub-panel [a, b]."""
        edges = self.edges
        tc = np.clip(t, edges[0], edges[-1])
        if side == "left":
            i = np.searchsorted(edges, tc, side="right") - 1
            return i, edges[i], tc
        i = np.minimum(np.searchsorted(edges, tc, side="left"), len(edges) - 1)
        return i, tc, edges[i]

    def left(self, t):
        return self._read(t, "left")

    def right(self, t):
        return self._read(t, "right")

    def _read(self, t, side):
        i, a, b = self.split(np.atleast_1d(np.asarray(t, dtype=float)), side)
        out = self._sums[side][i] + _partial_panels(self.f, a, b)
        return float(out[0]) if np.ndim(t) == 0 else out


def cumulative(
    f: Callable,
    lo: float,
    hi: float,
    *,
    knots: Sequence[float] = (),
    kinks: Sequence[float] = (),
) -> CumulativeIntegral:
    """Adaptively integrate f once, returning prefix/suffix query access;
    ends, tolerance, knots (seeds and shells) and kinks as in ``integrate``."""
    return _adapt(f, lo, hi, knots, kinks, lighter_side=True)
