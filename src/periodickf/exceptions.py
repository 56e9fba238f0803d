"""Exception types raised by the filtering recursions.

The class names double as the error identifiers printed by the command
line tool (exit code 1), so they stay short and suffix-free.
"""

from __future__ import annotations


class PeriodicFilterError(Exception):
    """Base class for all domain and numeric failures in this package.

    ``t`` and ``season`` name the filter step during which the error was
    raised; they are None for errors raised outside a filter run.
    """

    t: int | None = None
    season: int | None = None

    def locate(self, t: int, season: int) -> None:
        """Record the filter step ``t`` and its season, and name both in
        the message."""
        self.t, self.season = t, season
        self.args = (f"{self.args[0]} during step t={t} (season {season})",
                     *self.args[1:])


class OmegaNotPD(PeriodicFilterError):
    """An innovation covariance is not positive definite.

    Raised when the smallest eigenvalue does not exceed 1e-12 times the
    largest, or when a Cholesky factorization fails outright.
    """


class NotStationary(PeriodicFilterError):
    """The model has no periodic stationary solution (spectral radius of
    the monodromy matrix is not below one)."""


class NonConvergence(PeriodicFilterError):
    """A fixed-point iteration exhausted its period budget."""

    def __init__(self, message: str, residual: float | None = None,
                 periods: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.periods = periods


class SingularLift(PeriodicFilterError):
    """The periodic Lyapunov solve cannot be trusted: its doubling did not
    settle, or its solution misses the residual gate (monodromy spectral
    radius too close to one)."""


class ResidualTooLarge(PeriodicFilterError):
    """A factorization failed to reproduce the covariance increment it is
    supposed to represent."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class MSingular(PeriodicFilterError):
    """The inner factor M is numerically singular, so the inverse-form
    recursion cannot proceed."""


class EngineInitFailed(PeriodicFilterError):
    """A filter engine could not be initialized.

    Carries the underlying factorization error as ``__cause__``.
    """
