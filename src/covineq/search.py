"""Batched zoom search for the minimum or maximum of f on many brackets.

Each round evaluates a grid of ``GRID`` points in every bracket in one call
of f and keeps the two grid cells around the best point; ``golden_min``
says how.  The names ``golden_min``/``golden_max`` are kept from an earlier
golden-section search, because the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

GRID = 16  # interior points per bracket and round
ROUNDS = 14  # rounds, one call of f each

_STEPS = np.arange(1.0, GRID + 1.0)[:, None]


def golden_min(f: Callable, lo, hi):
    """Minimize f on each bracket [lo_i, hi_i]; returns (argmin, min) arrays.

    Each round places ``GRID`` = 16 equally spaced interior points in every
    bracket and calls f once on all of them: its argument has shape
    (16, n), the last axis indexing the n brackets, so an f that takes one
    abscissa per bracket broadcasts unchanged.  The bracket then shrinks to
    the two cells on either side of the round's best point, 2/17 of its
    width.  ``ROUNDS`` = 14 rounds, 14 calls of f, leave (2/17)^14 ~ 9.7e-14
    of the width, as tight as double precision supports for the unimodal
    profiles searched here.

    The result is the best point evaluated in any round.  A NaN value is
    never taken as the minimum; a bracket where f is NaN or +inf at every
    point reports +inf at lo.  The name is kept from an earlier
    golden-section search because the benchmark's tracer wraps this
    function by name.
    """
    a = np.atleast_1d(np.asarray(lo, dtype=float))
    b = np.atleast_1d(np.asarray(hi, dtype=float))
    cols = np.arange(a.size)
    best_x, best_f = a, np.full(a.shape, np.inf)
    for _ in range(ROUNDS):
        width = (b - a) / (GRID + 1)
        x = a + _STEPS * width
        fx = np.asarray(f(x), dtype=float)
        fx = np.where(np.isnan(fx), np.inf, fx)
        i = np.argmin(fx, axis=0)
        xr, fr = x[i, cols], fx[i, cols]
        better = fr < best_f
        best_x, best_f = np.where(better, xr, best_x), np.where(better, fr, best_f)
        # [x_(i-1), x_(i+1)], where x_(-1) = a and x_GRID = b
        a, b = a + i * width, a + (i + 2) * width
    return best_x, best_f


def golden_max(f: Callable, lo, hi):
    """Maximize f on each bracket [lo_i, hi_i]; returns (argmax, max) arrays.

    The mirror of ``golden_min``: a bracket where f is NaN or -inf at
    every point reports -inf at lo.
    """
    xm, neg = golden_min(lambda x: -f(x), lo, hi)
    return xm, -neg
