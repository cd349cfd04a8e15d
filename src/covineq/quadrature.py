"""Adaptive Gauss-Kronrod quadrature with prefix/suffix (cumulative) queries.

The engine integrates vectorized callables f : ndarray -> ndarray over an
open finite interval (lo, hi).  Error control is panel-local: each panel is
scored by QUADPACK's embedded pair (R. Piessens et al., QUADPACK, 1983),
the 21-point Kronrod rule and the 10-point Gauss rule on 10 of its nodes,

    value_i = K21(a_i, b_i),   err_i = | K21(a_i, b_i) - G10(a_i, b_i) | ,

and accepted when err_i <= rel_tol * A_i, where A_i is the K21 integral of
|f| on the panel.  Summed over the partition this enforces
sum err_i <= rel_tol * int |f|, a budget with no absolute part, so no
result depends on the units of x or of f.  Cumulative reads cut a panel
at the query point and apply the 15-point Gauss-Legendre rule to the
sub-panel (``rule_nodes``, ``rule_sums``).

Three refinements make the scheme robust on the integrands this package
produces:

* the seed partition carries geometric ladders 2^-1 ... 2^-50 into both
  endpoints: on an infinite support's window [ppf(1e-300), isf(1e-300)]
  they are what seed panels in the body.  Without them the one window
  panel can pass by accident (x·f(x) on a symmetric window reads 0 under
  both rules of the pair): a gaussian Var(X) then reads 0.3% high;
* a panel touching an endpoint is split geometrically (the boundary child
  keeps 1/8 of the width) instead of bisected, so the endpoint
  singularities of a bounded support (a beta density with a shape below 1,
  a log- or power-type integrand at an end) grade correctly;
* a panel whose mass A_i is negligible against the running global budget
  is accepted outright.  Self-similar singular stubs have a *constant*
  err/A ratio under refinement, so the relative test alone would never
  terminate on them; the mass rule is what stops the descent once the
  remaining stub cannot affect the result.

A panel that does not pass is split until it is stuck: its split point no
longer falls strictly inside it (width underflow), or the round or panel
budget is spent.  A stuck panel that did not pass is given up on: it is
kept as it is, and its error counts against the global budget, so the
quadrature raises IntegrationError unless sum err_i <= rel_tol * int |f|
still holds.  Non-finite values poison a panel (err = inf), so a genuinely
divergent integrand ends given up on with an infinite error bound and
raises instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError
from .numerics import active

# the 15-point Gauss-Legendre rule of the cumulative reads
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
_LADDER_DEPTH = 50
_MASS_FRACTION = 0.01


def _panel_batch(f, a, b):
    """Score panels (a_i, b_i): K21 value, |K21 - G10| error, K21 |f| mass.

    One vectorized call evaluates the 21 Kronrod nodes of every panel; the
    Gauss rule reuses 10 of their values.  Panels containing non-finite
    evaluations get err = mass = inf and value 0 so they never pass any
    acceptance test but do not poison running totals.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    pts = (a + half)[:, None] + half[:, None] * _GK_NODES  # (n, 21)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        kg = half[:, None] * (vals @ _GK_WEIGHTS)
        value = kg[:, 0]
        err = np.abs(value - kg[:, 1])
        # summed as the value is, so a nonnegative f's mass is its value
        mass = half * (np.abs(vals) @ _GK_WEIGHTS)[:, 0]
    broken = ~np.isfinite(vals).all(axis=1)
    if np.any(broken):
        value = np.where(broken, 0.0, value)
        err = np.where(broken, np.inf, err)
        mass = np.where(broken, np.inf, mass)
    return value, err, mass


def _seed_edges(lo, hi, knots):
    w = hi - lo
    ladder = w * 2.0 ** -np.arange(1, _LADDER_DEPTH + 1)
    pieces = [np.array([lo, hi]), lo + ladder, hi - ladder]
    if len(knots):
        ks = np.asarray(list(knots), dtype=float)
        ks = ks[np.isfinite(ks)]
        ks = ks[(ks > lo) & (ks < hi)]
        pieces.append(ks)
    edges = np.unique(np.concatenate(pieces))
    # float fuzz can push ladder points outside [lo, hi]; clamp defensively
    return edges[(edges >= lo) & (edges <= hi)]


@dataclass(eq=False)
class _Partition:
    """Accepted panels, sorted by left edge, plus global totals."""

    lo: float
    hi: float
    edges: np.ndarray       # length K+1
    values: np.ndarray      # length K, per-panel integrals
    total: float
    error_bound: float
    mass: float


def _adapt(f, lo, hi, knots, rel_tol, deep_boundaries=False) -> _Partition:
    """Refine the seed partition of (lo, hi): each round keeps the panels
    that pass or are stuck and splits the rest.  One give-up rule: a kept
    panel that did not pass, or a spent budget, sets ``gave_up``, and then
    the summed error, kept panels' included, must meet the global budget."""
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise IntegrationError(f"empty integration interval ({lo}, {hi})", 0.0, 0.0)
    edges = _seed_edges(lo, hi, knots)
    act_a, act_b = edges[:-1], edges[1:]

    acc_a: list[np.ndarray] = []
    acc_val: list[np.ndarray] = []
    acc_err_sum = 0.0
    acc_mass_sum = 0.0
    n_accepted = 0
    gave_up = False

    for round_no in range(_MAX_ROUNDS + 1):
        val, err, mass = _panel_batch(f, act_a, act_b)
        finite_mass = mass[np.isfinite(mass)]
        mass_est = acc_mass_sum + float(np.sum(finite_mass))
        exempt_ok = mass <= _MASS_FRACTION * rel_tol * mass_est
        if deep_boundaries:
            # prefix/suffix queries inherit a boundary stub's value error as
            # an *absolute* offset, which is a relative blow-up near the
            # endpoint; drive boundary stubs to width underflow instead
            exempt_ok &= (act_a != lo) & (act_b != hi)
        with np.errstate(invalid="ignore"):
            ok = (err <= rel_tol * mass) | exempt_ok
        # a panel with non-finite error must keep splitting (inf <= inf is true)
        ok &= np.isfinite(err)
        width = act_b - act_a
        split = np.where(
            act_a == lo, act_a + width / 8.0,
            np.where(act_b == hi, act_b - width / 8.0, act_a + 0.5 * width),
        )
        spent = round_no == _MAX_ROUNDS or n_accepted + 2 * int(np.sum(~ok)) > _MAX_PANELS
        # a spent budget, or width underflow, leaves a panel stuck
        stuck = spent | ~((split > act_a) & (split < act_b))
        gave_up |= spent or bool(np.any(stuck & ~ok))
        keep = ok | stuck
        acc_a.append(act_a[keep])
        acc_val.append(val[keep])
        acc_err_sum += float(np.sum(err[keep]))
        acc_mass_sum += float(np.sum(mass[keep & np.isfinite(mass)]))
        n_accepted += int(np.sum(keep))
        if keep.all():
            break
        go = ~keep
        act_a, act_b = (np.concatenate([act_a[go], split[go]]),
                        np.concatenate([split[go], act_b[go]]))

    a_all = np.concatenate(acc_a)
    order = np.argsort(a_all, kind="stable")
    a_all, v_all = a_all[order], np.concatenate(acc_val)[order]
    total = float(np.sum(v_all))
    if gave_up and not acc_err_sum <= rel_tol * acc_mass_sum:
        raise IntegrationError(
            f"quadrature did not converge on ({lo}, {hi}): "
            f"error bound {acc_err_sum:.3e} exceeds budget "
            f"{rel_tol * acc_mass_sum:.3e}",
            estimate=total,
            error_bound=acc_err_sum,
        )
    # the kept panels tile [lo, hi]
    return _Partition(lo, hi, np.append(a_all, hi), v_all, total, acc_err_sum, acc_mass_sum)


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    *,
    knots: Sequence[float] = (),
) -> float:
    """Integral of f over (lo, hi).

    ``knots`` are abscissae where f (or a derivative) is discontinuous;
    they become seed panel edges so kinks never straddle a panel.  Raises
    IntegrationError when the tolerance cannot be met (divergent or broken
    integrands end up here).  The relative tolerance is that of the active
    numerics.NumericContext.
    """
    return _adapt(f, lo, hi, knots, active().rel_tol).total


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


@dataclass(eq=False)
class CumulativeIntegral:
    """Prefix/suffix integrals over an adaptively accepted partition.

    left(t) = integral over (lo, t), right(t) = integral over (t, hi); the
    two accumulate independently from their own end so neither suffers
    cancellation near its tail.  Queries are vectorized: a query lands in
    one accepted panel and costs one partial 15-point evaluation.
    ``split`` and ``whole`` give a read's two parts to a caller that
    evaluates the rule itself (``kernel.t_transform``).
    """

    f: Callable
    partition: _Partition

    def __post_init__(self):
        v = self.partition.values
        self._prefix = np.concatenate([[0.0], np.cumsum(v)])
        self._suffix = np.concatenate([np.cumsum(v[::-1])[::-1], [0.0]])

    @property
    def total(self) -> float:
        return self.partition.total

    @property
    def error_bound(self) -> float:
        return self.partition.error_bound

    def split(self, t, side):
        """Queries t (a float array) on ``side``, "left" or "right", as
        (i, a, b): the read is ``whole(i, side)``, the sum of the panels it
        covers whole, plus the rule of f on the sub-panel [a, b]."""
        edges = self.partition.edges
        tc = np.clip(t, self.partition.lo, self.partition.hi)
        if side == "left":
            i = np.searchsorted(edges, tc, side="right") - 1
            i = np.maximum(np.minimum(i, len(edges) - 2), 0)
            return i, edges[i], tc
        i = np.minimum(np.searchsorted(edges, tc, side="left"), len(edges) - 1)
        return i, tc, edges[i]

    def whole(self, i, side):
        return (self._prefix if side == "left" else self._suffix)[i]

    def left(self, t):
        return self._read(t, "left")

    def right(self, t):
        return self._read(t, "right")

    def _read(self, t, side):
        i, a, b = self.split(np.atleast_1d(np.asarray(t, dtype=float)), side)
        out = self.whole(i, side) + _partial_panels(self.f, a, b)
        return float(out[0]) if np.ndim(t) == 0 else out


def cumulative(
    f: Callable,
    lo: float,
    hi: float,
    *,
    knots: Sequence[float] = (),
) -> CumulativeIntegral:
    """Adaptively integrate f once, returning prefix/suffix query access."""
    part = _adapt(f, lo, hi, knots, active().rel_tol, deep_boundaries=True)
    return CumulativeIntegral(f, part)
