"""Semantic exception hierarchy and the one failure policy.

Every error the library raises deliberately derives from CovineqError so
callers can catch library failures without swallowing programming errors.
Each class carries its ``status``: ``skip:*`` for a cell on which the
inequality is inapplicable, ``error:*`` for a numerical failure, and
``config`` for an input rejected before any cell runs.  The runner records
``status`` on a report row; the CLI exits 3 on an ``error*`` status and 2
on any other.
"""

from __future__ import annotations


class CovineqError(Exception):
    """Base class for all library errors; one raised bare counts as a
    numerical failure."""

    status = "error:computation"


class DomainError(CovineqError, ValueError):
    """An argument is outside the mathematical domain of the operation."""

    status = "skip:domain"


class IngestionError(CovineqError, ValueError):
    """Tabulated density data violates the ingestion preconditions."""

    status = "config"


class IntegrationError(CovineqError, RuntimeError):
    """Adaptive quadrature failed to meet its tolerance.

    Carries the best available estimate and the achieved error bound so
    callers can report partial results.
    """

    status = "error:integration"

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ComputationError(CovineqError, RuntimeError):
    """A numerical computation produced an unusable intermediate value."""

    status = "error:computation"


class UnsupportedMeasureError(CovineqError, TypeError):
    """The measure lacks structure this check requires (e.g. log-concavity)."""

    status = "skip:unsupported-measure"


class HypothesisViolatedError(CovineqError, RuntimeError):
    """A conditional inequality's hypothesis fails on this instance.

    Distinct from a certificate failure: the inequality is inapplicable,
    not false.  ``condition`` names the failing hypothesis and ``value``
    is its computed magnitude.
    """

    status = "skip:hypothesis"

    def __init__(self, condition: str, value: float):
        super().__init__(f"hypothesis violated: {condition} (computed value {value!r})")
        self.condition = condition
        self.value = value


class DivergentNormError(CovineqError, RuntimeError):
    """No finite scaling brings the Orlicz modular below one."""

    status = "error:divergent-norm"


class ConfigError(CovineqError, ValueError):
    """Run configuration is invalid; ``errors`` lists every problem found."""

    status = "config"

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class ExpressionError(CovineqError, ValueError):
    """A function expression does not conform to the grammar."""

    status = "config"
