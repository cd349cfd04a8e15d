"""The numeric settings in force: quadrature tolerance, pass tolerance, rhs scale.

``quadrature.integrate``/``cumulative`` read the tolerance of the active
NumericContext (relative to ∫|f|; there is no absolute one) and
``certificates.certify`` its pass tolerance and rhs scale; each certificate
keeps the context it was built under, and is printed under it.
The active context lives in a ContextVar, so each thread sees its own;
``with numeric_context(NumericContext(rel_tol=1e-8)):`` activates one.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

__all__ = ["NumericContext", "active", "numeric_context"]

DEFAULT_REL_TOL = 1e-9
DEFAULT_PASS_TOL = 1e-6


@dataclass(frozen=True)
class NumericContext:
    """Settings of one run; a rhs_scale other than 1 is a negative control."""

    rel_tol: float = DEFAULT_REL_TOL
    pass_tol: float = DEFAULT_PASS_TOL
    rhs_scale: float = 1.0


_ACTIVE = contextvars.ContextVar("covineq_numerics", default=NumericContext())


def active() -> NumericContext:
    """The context in force in the calling thread."""
    return _ACTIVE.get()


@contextlib.contextmanager
def numeric_context(ctx: NumericContext):
    """Make ``ctx`` the active context inside the block, then restore."""
    token = _ACTIVE.set(ctx)
    try:
        yield ctx
    finally:
        _ACTIVE.reset(token)
