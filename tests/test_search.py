"""Batched zoom search: call count, layout and accuracy on batched brackets."""

import numpy as np
import pytest

from covineq import search


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return f(x)

    return wrapped, calls


@pytest.mark.parametrize("n", [1, 5])
def test_one_call_per_round_on_a_grid_per_bracket(n):
    targets = np.linspace(0.1, 0.9, n)
    f, calls = _counted(lambda x: (np.asarray(x) - targets) ** 2)
    search.golden_min(f, np.zeros(n), np.ones(n))
    assert len(calls) == search.ROUNDS == 14
    assert all(c.shape == (search.GRID, n) == (16, n) for c in calls)


def test_batched_quadratic_minima():
    targets = np.array([-2.5, 0.0, 1e-3, 0.37, 8.0])
    lo, hi = targets - 0.4, targets + 0.6

    def f(x):
        return (np.asarray(x) - targets) ** 2

    xmin, fmin = search.golden_min(f, lo, hi)
    assert np.all(np.abs(xmin - targets) <= 1e-12)
    assert np.array_equal(fmin, f(xmin))


def test_bracket_shrinks_to_two_cells_per_round():
    # the minimum at the right end: each round keeps 2 of 17 cells, so the
    # answer lies within (2/17)^14 of it
    xmin, _ = search.golden_min(lambda x: -np.asarray(x), [0.0], [1.0])
    width = (2.0 / 17.0) ** 14
    assert 1.0 - width <= xmin[0] < 1.0


def test_nan_region_is_never_returned():
    # f falls toward x = 0.5 and is NaN beyond it: the infimum is approached
    # from the left, and no NaN point or value is returned
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, np.nan, -x)

    xmin, fmin = search.golden_min(f, [0.0, 0.2], [1.0, 0.9])
    assert np.all(np.isfinite(fmin))
    assert np.all((0.5 - 1e-12 <= xmin) & (xmin <= 0.5))
    xmax, fmax = search.golden_max(lambda x: -f(x), [0.0], [1.0])
    assert np.isfinite(fmax[0]) and 0.5 - 1e-12 <= xmax[0] <= 0.5


def test_golden_max_mirrors_min():
    targets = np.array([0.25, 3.0])
    xmax, fmax = search.golden_max(
        lambda x: -((np.asarray(x) - targets) ** 2), targets - 1.0, targets + 0.5
    )
    assert np.all(np.abs(xmax - targets) <= 1e-12)
    assert np.all((fmax <= 0.0) & (fmax >= -1e-24))
