"""Golden-section search: call count and accuracy on batched brackets."""

import numpy as np
import pytest

from covineq import search


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return f(x)

    return wrapped, calls


@pytest.mark.parametrize("iters", [1, 2, 30, 60])
def test_one_call_per_iteration(iters):
    f, calls = _counted(lambda x: (np.asarray(x) - 0.3) ** 2)
    search.golden_min(f, [0.0], [1.0], iters=iters)
    assert len(calls) == iters + 1
    assert all(c.shape == (1,) for c in calls)


def test_batched_quadratic_minima():
    targets = np.array([-2.5, 0.0, 1e-3, 0.37, 8.0])
    lo, hi = targets - 0.4, targets + 0.6

    def f(x):
        return (np.asarray(x) - targets) ** 2

    xmin, fmin = search.golden_min(f, lo, hi)
    assert np.all(np.abs(xmin - targets) <= 1e-12)
    assert np.array_equal(fmin, f(xmin))


def test_bracket_shrinks_by_inverse_phi_per_iteration():
    # the minimum at the right end: the answer lies within phi^-iters of it
    iters = 40
    xmin, _ = search.golden_min(lambda x: -np.asarray(x), [0.0], [1.0], iters=iters)
    width = ((np.sqrt(5.0) - 1.0) / 2.0) ** iters
    assert 1.0 - width <= xmin[0] < 1.0


def test_golden_max_mirrors_min():
    targets = np.array([0.25, 3.0])
    xmax, fmax = search.golden_max(
        lambda x: -((np.asarray(x) - targets) ** 2), targets - 1.0, targets + 0.5
    )
    assert np.all(np.abs(xmax - targets) <= 1e-12)
    assert np.all((fmax <= 0.0) & (fmax >= -1e-24))
