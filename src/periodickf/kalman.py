"""Periodic Kalman filter and the associated Riccati / Lyapunov solvers.

One filter step at time t, season s = season(t), with prediction-error
covariance ``Sigma`` and state prediction ``xhat``:

    Omega = H_s' Sigma H_s + R_s          innovation covariance
    K     = F_s Sigma H_s                 (un-normalized) gain
    yhat  = H_s' xhat
    xhat+ = F_s xhat + K Omega^{-1} (y - yhat)
    Sigma+ = F_s Sigma F_s' - K Omega^{-1} K' + G_s Q_s G_s'

started from xhat = 0 and Sigma = W1. The covariance recursion alone is
the periodic Riccati difference equation (PRDE); iterating it over whole
periods to convergence yields the periodic fixed point.  The filter loop
itself, state update included, is :func:`periodickf.filter_series`; its
``kalman`` engine steps the covariance with the PRDE map here.

The monodromy matrix is the one-period state transition
``Phi = F_S F_{S-1} ... F_1``; the model is periodically stationary when
its spectral radius is below one.  In that case the stationary state
covariances solve the periodic Lyapunov equation

    W_1 = Phi W_1 Phi' + Qbar,
    Qbar = sum_{k=0}^{S-1} (F_S .. F_{S-k+1}) G_{S-k} Q_{S-k} G_{S-k}'
           (F_S .. F_{S-k+1})',

solved here by Smith's doubling on the monodromy, O(r^3) per doubling,
followed by the one-season propagation
W_{s+1} = F_s W_s F_s' + G_s Q_s G_s'.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .exceptions import NonConvergence, NotStationary, SingularLift
from .linalg import (_charge, _solve, rel_err, spd_factor, spectral_radius,
                     symmetrize)

if TYPE_CHECKING:  # pragma: no cover
    from .model import PeriodicModel

# Residual tolerance for the Lyapunov solve and its one-season propagation.
DPLE_TOL = 1e-10
# A model is periodically stationary when its monodromy radius is below
# one by more than this margin.
STATIONARY_MARGIN = 1e-9
# Doublings allowed in the Lyapunov solve; one doubling squares the
# monodromy power, so at the stationarity margin about 35 reach roundoff.
MAX_DOUBLINGS = 64


def _covariance_update(model: PeriodicModel, Sigma: np.ndarray, t: int):
    """One PRDE step. Returns (Omega, K, factor, Sigma_next), where
    ``factor`` is the gated Cholesky factor of Omega (``spd_factor``).

    The arithmetic is numpy's elementwise operators, products through
    the operands' bound ``ndarray.dot`` and one ``potrs`` solve
    (``linalg._solve``), in the expression order of the metered helpers
    in :mod:`periodickf.linalg`, so bitwise their results (see that
    module for the one exception, a zero product of one-element
    operands); the step charges the active counter once with what those
    helpers would charge, besides the factorization ``spd_factor``
    charges."""
    F, G, H, Q, R = model.at(t)
    (r, m), d = H.shape, Q.shape[0]
    U = Sigma.dot(H)                                      # r x m
    Omega = H.T.dot(U) + R
    Omega = 0.5 * (Omega + Omega.T)
    K = F.dot(U)
    factor = spd_factor(Omega)
    KtilT = _solve(factor, K.T)                           # m x r
    Sigma_next = F.dot(Sigma).dot(F.T) - K.dot(KtilT) + G.dot(Q).dot(G.T)
    Sigma_next = 0.5 * (Sigma_next + Sigma_next.T)
    # Sigma H, Omega (product, add, symmetrize), F U, the solve,
    # F Sigma, G Q, the three products of Sigma_next, its subtract, add
    # and symmetrize
    _charge(4*r*r*m + 2*m*r*m + 2*m*m + 2*m*m*r + 4*r**3 + 2*r*d*d
            + 2*r*m*r + 2*r*d*r + 3*r*r)
    return Omega, K, factor, Sigma_next


def prde_step(model: PeriodicModel, Sigma: np.ndarray, t: int) -> np.ndarray:
    """Covariance-only filter step (the PRDE map at time t)."""
    return _covariance_update(model, Sigma, t)[3]


def monodromy(model: PeriodicModel) -> np.ndarray:
    """One-period state transition ``F_S F_{S-1} ... F_1``."""
    Phi = np.eye(model.r)
    for s in range(1, model.S + 1):
        Phi = model.F[s - 1] @ Phi
    return Phi


def is_periodically_stationary(model: PeriodicModel) -> tuple[bool, float]:
    """Whether the monodromy spectral radius is below
    ``1 - STATIONARY_MARGIN``.  Returns ``(flag, radius)``.
    """
    rho = spectral_radius(monodromy(model))
    return rho < 1.0 - STATIONARY_MARGIN, rho


def dpre_fixed_point(model: PeriodicModel, tol: float = 1e-10,
                     max_periods: int = 100_000) -> list[np.ndarray]:
    """Iterate the PRDE over whole periods until the per-season
    covariances stop moving.

    Starts from W1 (zero when the model carries none) and stops when
    ``norm(Sigma[s + S k] - Sigma[s + S (k-1)]) <= tol * (1 + norm(...))``
    for every season s.  Returns the S per-season limits
    ``[P_1, .., P_S]`` with ``P_s = lim_k Sigma_{s + S k}``.

    Raises :class:`NonConvergence` when ``max_periods`` is exhausted.
    """
    S = model.S
    if model.W1 is not None:
        Sigma = symmetrize(np.asarray(model.W1, dtype=float))
    else:
        Sigma = np.zeros((model.r, model.r))
    prev: list[np.ndarray] | None = None
    residual = np.inf
    for period in range(1, max_periods + 1):
        cur = []
        for s in range(1, S + 1):
            cur.append(Sigma)
            Sigma = prde_step(model, Sigma, (period - 1) * S + s)
        if prev is not None:
            residual = max(
                float(np.linalg.norm(cur[i] - prev[i]))
                / (1.0 + float(np.linalg.norm(cur[i])))
                for i in range(S))
            if residual <= tol:
                return cur
        prev = cur
    raise NonConvergence(
        f"periodic Riccati iteration did not converge within "
        f"{max_periods} periods (last residual {residual:.3e})",
        residual=float(residual), periods=max_periods)


def period_noise(model: PeriodicModel) -> np.ndarray:
    """The one-period accumulated noise ``Qbar`` of the periodic
    Lyapunov equation ``W_1 = Phi W_1 Phi' + Qbar``."""
    S = model.S
    Qbar = model.G[S - 1] @ model.Q[S - 1] @ model.G[S - 1].T
    P = np.eye(model.r)
    for k in range(1, S):
        P = P @ model.F[S - k]          # F_S .. F_{S-k+1}
        Gk = model.G[S - k - 1]
        Qk = model.Q[S - k - 1]
        Qbar = Qbar + P @ Gk @ Qk @ Gk.T @ P.T
    return 0.5 * (Qbar + Qbar.T)


def _smith_doubling(Phi: np.ndarray, Qbar: np.ndarray) -> np.ndarray | None:
    """``sum_j Phi^j Qbar Phi'^j`` by doubling: ``W <- W + A W A'``, then
    ``A <- A A``, from ``A = Phi, W = Qbar``.  Returns None when the added
    term is still above roundoff (or not finite) after ``MAX_DOUBLINGS``."""
    A, W = Phi, Qbar
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_DOUBLINGS):
            term = A @ W @ A.T
            W = W + term
            size = float(np.linalg.norm(term))
            if not np.isfinite(size):
                return None
            if size <= np.finfo(float).eps * float(np.linalg.norm(W)):
                return W
            A = A @ A
    return None


def solve_dple(model: PeriodicModel) -> list[np.ndarray]:
    """Stationary state covariances ``[W_1, .., W_S]``.

    Solves the period-1 Lyapunov equation for W_1 by Smith's doubling on
    the monodromy, then propagates one season at a time.  Raises
    :class:`NotStationary` when the monodromy radius is not below one
    and :class:`SingularLift` when the doubling does not settle or the
    solution misses the ``DPLE_TOL`` residual gate (radius too close to
    one for the solve to be trusted).
    """
    S = model.S
    Phi = monodromy(model)
    rho = spectral_radius(Phi)
    if not rho < 1.0 - STATIONARY_MARGIN:
        raise NotStationary(
            f"monodromy spectral radius {rho:.9f} is not below 1")
    Qbar = period_noise(model)

    W1 = _smith_doubling(Phi, Qbar)
    if W1 is None:
        raise SingularLift(
            f"the Lyapunov doubling did not settle within {MAX_DOUBLINGS} "
            f"doublings (monodromy radius {rho:.12f})")
    W1 = 0.5 * (W1 + W1.T)
    residual = rel_err(W1, Phi @ W1 @ Phi.T + Qbar)
    if residual > DPLE_TOL:
        raise SingularLift(
            f"Lyapunov solve residual {residual:.3e} exceeds {DPLE_TOL:g} "
            f"(monodromy radius {rho:.12f})")

    W = [W1]
    for s in range(1, S):
        Ws = model.F[s - 1] @ W[-1] @ model.F[s - 1].T \
            + model.G[s - 1] @ model.Q[s - 1] @ model.G[s - 1].T
        W.append(0.5 * (Ws + Ws.T))
    return W
