"""Golden-section search over batches of brackets.

Both routines are vectorized: ``lo`` and ``hi`` are arrays of bracket
endpoints and ``f`` maps an array of abscissae, one per bracket, to an array
of values.  Each iteration keeps one interior point and its value and
evaluates only the other (Kiefer's golden section), so ``iters`` iterations
cost ``iters + 1`` calls of ``f``.  60 iterations shrink each bracket by
phi^-60 ~ 3e-13 of its width, which is as tight as double precision
supports for the unimodal profiles searched here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_min(f: Callable, lo, hi, iters: int = 60):
    """Minimize f on each bracket [lo_i, hi_i]; returns (argmin, min) arrays.

    The result is the better of the two interior points left after the
    last iteration, so no call is spent on the bracket's midpoint.
    """
    a = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    b = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = np.asarray(f(c), dtype=float)
    fd = np.asarray(f(d), dtype=float)
    for _ in range(iters - 1):
        # the minimum lies in [a, d] (c is kept) or in [c, b] (d is kept)
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        f_new = np.asarray(f(new), dtype=float)
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
    left = fc < fd
    return np.where(left, c, d), np.where(left, fc, fd)


def golden_max(f: Callable, lo, hi, iters: int = 60):
    """Maximize f on each bracket [lo_i, hi_i]; returns (argmax, max) arrays."""
    xm, neg = golden_min(lambda x: -f(x), lo, hi, iters=iters)
    return xm, -neg
