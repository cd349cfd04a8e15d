"""Cheeger isoperimetric constant Is(μ) = essinf f/min{F, 1−F} and its profile.

The ratio is continuous and positive for the measures in scope, so the
essential infimum is the infimum and pointwise minimization is sound: a
quantile-space grid locates the low region and a batched zoom search
(``search.golden_min``) polishes it.  Boundary probes guard against heavy
tails, where the true infimum is 0 and is approached only as t → {0, 1}.

The profile is computed once per measure instance and grid setting and kept
in the measure's private memo; later calls return the same read-only profile.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import search
from .errors import ComputationError, DomainError

DEFAULT_GRID_SIZE = 1024

# boundary probe depths for the diverging-tail guard (all below t = 1e-6)
_PROBE_LEVELS = 10.0 ** -np.arange(7.0, 14.0)
# relative drop a tail step must exceed to count as a fall; exactly
# exponential tails (laplace, exponential) wobble by ~1e-15 at some scales
_FALL_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class IsoperimetricProfile:
    """Ratio profile on a quantile grid plus the refined minimum.

    ``diverging_tail`` marks measures whose boundary ratio keeps falling
    below the interior minimum (heavy tails, Is = 0); ``is_value`` is 0
    in that case and the grid/argmin fields still describe the interior.
    """

    grid: np.ndarray
    xs: np.ndarray
    ratios: np.ndarray
    argmin_t: float
    is_value: float
    diverging_tail: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "x", "ratio"])
        for t, x, r in zip(self.grid, self.xs, self.ratios):
            writer.writerow([f"{t:.12g}", f"{x:.12g}", f"{r:.12g}"])
        return buf.getvalue()


def isoperimetric_ratio(m, x):
    """f(x)/min(F(x), 1−F(x)) for x strictly inside the support."""
    a, b = m.support
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > a) & (x_arr < b)):
        raise DomainError(f"isoperimetric ratio needs {a} < x < {b}, got {x!r}")
    out = m.pdf(x_arr) / np.minimum(m.cdf(x_arr), m.sf(x_arr))
    return float(out) if np.ndim(x) == 0 else out


def _ratio_at_t(m, t):
    # min(F(Q(t)), 1−F(Q(t))) = min(t, 1−t): exact in quantile coordinates
    t = np.asarray(t, dtype=float)
    return m.pdf(m.quantile(t)) / np.minimum(t, 1.0 - t)


def _tail_diverges(m, interior_min) -> bool:
    """Three successive decreases below t=1e-6 dipping under the interior min.

    Decreases and the dip both count only beyond a relative ``_FALL_MARGIN``.
    """
    # densities may legitimately be inf at the support edge (beta a<1);
    # inf is never below inf·(1-margin), so such steps are non-falling,
    # which is the right verdict
    with np.errstate(invalid="ignore"):
        for seq in (
            m.pdf(np.asarray(m.dist.ppf(_PROBE_LEVELS), dtype=float)) / _PROBE_LEVELS,
            m.pdf(np.asarray(m.dist.isf(_PROBE_LEVELS), dtype=float)) / _PROBE_LEVELS,
        ):
            falling = seq[1:] < seq[:-1] * (1.0 - _FALL_MARGIN)
            runs = falling[:-2] & falling[1:-1] & falling[2:]
            if np.any(runs) and np.min(seq) < interior_min * (1.0 - _FALL_MARGIN):
                return True
    return False


def isoperimetric_constant(m, grid_size: int = DEFAULT_GRID_SIZE) -> IsoperimetricProfile:
    """Grid minimum of the ratio profile plus zoom-search refinement.

    The grid is t_i = i/(grid_size+1); refinement searches brackets around
    the three lowest grid points, and the median level t = 1/2 is a
    candidate too.  Where the profile is flat, argmin_t is the candidate
    nearest 1/2, so it is exactly 0.5 on a plateau through the median.
    Heavy-tailed measures are reported as is_value = 0 with the
    diverging-tail flag set.  The result is memoized on ``m`` per
    grid_size (and, as every ``Measure.memo`` entry, per quadrature
    tolerance); its arrays are read-only.
    """
    if not grid_size >= 64:
        raise DomainError(f"grid_size must be at least 64, got {grid_size}")
    return m.memo(("iso", grid_size), lambda: _profile(m, grid_size))


def _profile(m, grid_size) -> IsoperimetricProfile:
    t = np.arange(1, grid_size + 1, dtype=float) / (grid_size + 1)
    xs = m.quantile(t)
    ratios = m.pdf(xs) / np.minimum(t, 1.0 - t)
    bad = ~(np.isfinite(ratios) & (ratios > 0))
    if np.any(bad):
        t_bad = t[bad][0]
        raise ComputationError(
            f"isoperimetric ratio evaluation failed at t={t_bad:.6g} "
            f"(x={xs[bad][0]:.6g})"
        )

    # seeds: the three lowest grid points; on a plateau (many grid values tied
    # to within 1e-9) prefer the center-most so the argmin is canonical
    rmin = float(np.min(ratios))
    band = np.flatnonzero(ratios <= rmin * (1.0 + 1e-9))
    if band.size >= 3:
        order = band[np.argsort(np.abs(t[band] - 0.5), kind="stable")[:3]]
    else:
        order = np.argsort(ratios, kind="stable")[:3]
    lo = t[np.maximum(order - 1, 0)]
    hi = t[np.minimum(order + 1, grid_size - 1)]
    t_ref, r_ref = search.golden_min(lambda tt: _ratio_at_t(m, tt), lo, hi)
    # t = 1/2 is a candidate, so a plateau through the median reads exactly 0.5
    cand_t = np.concatenate([t_ref, [t[order[0]], t[int(np.argmin(ratios))], 0.5]])
    cand_r = np.concatenate([r_ref, [ratios[order[0]], rmin, float(_ratio_at_t(m, 0.5))]])
    is_value = float(np.min(cand_r))
    near = np.flatnonzero(cand_r <= is_value * (1.0 + 1e-12))
    argmin_t = float(cand_t[near[np.argmin(np.abs(cand_t[near] - 0.5))]])

    diverging = _tail_diverges(m, is_value)
    xs = np.asarray(xs, dtype=float)
    for arr in (t, xs, ratios):
        arr.flags.writeable = False
    return IsoperimetricProfile(
        grid=t,
        xs=xs,
        ratios=ratios,
        argmin_t=argmin_t,
        is_value=0.0 if diverging else is_value,
        diverging_tail=diverging,
    )


def isoperimetric_value(m) -> float:
    """Just Is(μ) at default settings."""
    return isoperimetric_constant(m).is_value
