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

The doubling first squares the monodromy, ``A_k = Phi^(2^k)``, until
those powers decide stationarity: ``rho(Phi)^(2^k) <= ||A_k||``
(Gelfand), so with ``a_k`` a bound on the Frobenius norm of the computed
power and ``e_k`` a bound on its rounding error,

    e_0 = 0,  e_{k+1} = e_k (2 a_k + e_k) + gamma_r a_k^2 + r^2 2^-1074,
    gamma_r = r eps / (1 - r eps)   (the last term covers underflow),

the model is certified stationary at the first k with
``2^-k log(a_k + e_k) < log1p(-STATIONARY_MARGIN)``.  Only when no
power certifies does :func:`solve_dple` take the monodromy eigenvalues
(``linalg.spectral_radius``) to decide: as soon as no later power can
(``e_k >= 1``) or a trace proves a radius above one (``|tr A_k| > r``
beyond the error bound), or after ``MAX_DOUBLINGS`` powers.  Only a
stationary decision is followed by the sum ``W <- W + A_k W A_k'``.

Stationarity is decided where it is computed.  :func:`solve_dple` takes
its decision from the doubling (one that certified carries no radius)
and returns the stationary covariances only on a stationary one, so a
caller that holds them holds the proof of stationarity and decides
nothing again; :func:`is_periodically_stationary` builds the monodromy
and takes its eigenvalues on every call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import NonConvergence, NotStationary, SingularLift
from .linalg import (_charge, _fro_norm, _solve, _symmetrized, rel_err,
                     spd_factor, spectral_radius, symmetrize)

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
    """One PRDE step. Returns (Omega, K, factor, Sigma_next, KtilT),
    where ``factor`` is the gated Cholesky factor of Omega
    (``spd_factor``) and ``KtilT = Omega^{-1} K'`` the solve the step
    makes (the filter loop takes its normalized gain from it).

    The arithmetic is numpy's elementwise operators, products through
    the operands' bound ``ndarray.dot`` and one ``potrs`` solve
    (``linalg._solve``), in the expression order of the metered helpers
    in :mod:`periodickf.linalg`, so bitwise their results (see that
    module for the one exception, a zero product of one-element
    operands; Omega is symmetrized by ``linalg._symmetrized``, a scalar
    operation when m = 1); the step charges the active counter once
    with what those helpers would charge, besides the factorization
    ``spd_factor`` charges."""
    F, G, H, Q, R = model.at(t)
    (r, m), d = H.shape, Q.shape[0]
    U = Sigma.dot(H)                                      # r x m
    Omega = _symmetrized(H.T.dot(U) + R)
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
    return Omega, K, factor, Sigma_next, KtilT


def prde_step(model: PeriodicModel, Sigma: np.ndarray, t: int) -> np.ndarray:
    """Covariance-only filter step (the PRDE map at time t)."""
    return _covariance_update(model, Sigma, t)[3]


def monodromy(model: PeriodicModel) -> np.ndarray:
    """One-period state transition ``F_S F_{S-1} ... F_1``."""
    Phi = np.eye(model.r)
    for s in range(1, model.S + 1):
        Phi = model.F[s - 1] @ Phi
    return Phi


def is_periodically_stationary(
        model: PeriodicModel) -> tuple[bool, float]:
    """Whether the monodromy spectral radius is below
    ``1 - STATIONARY_MARGIN``.  Returns ``(flag, radius)``, the radius
    from the monodromy eigenvalues."""
    return _decision(monodromy(model))


def _decision(Phi: np.ndarray) -> tuple[bool, float]:
    """``(flag, radius)`` from the eigenvalues of the monodromy."""
    rho = spectral_radius(Phi)
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


def _doubling_update(W: np.ndarray, A: np.ndarray, eps: float):
    """``(W + A W A', ended)``: whether the doubling ends with this
    update, because the added term is below roundoff (or not finite, in
    which case None replaces W)."""
    term = A @ W @ A.T
    W = W + term
    size = _fro_norm(term)
    if not math.isfinite(size):
        return None, True
    return W, size <= eps * _fro_norm(W)


def _certify(Phi: np.ndarray):
    """``(powers, decision)``: the powers ``A_k = Phi^(2^k)`` from
    ``A_0 = Phi`` to the one that decides stationarity, and the decision
    ``(flag, radius)``: ``(True, None)`` when that power certifies (the
    bound of the module docstring; ``a`` bounds ``||A_k||_F`` with
    ``1 + r^2 eps`` for the norm's rounding and ``r 2^-537`` for
    underflow, ``e`` bounds ``||A_k - Phi^(2^k)||_F``), else
    :func:`_decision`'s (``e >= 1`` means no later power can certify)."""
    r = Phi.shape[0]
    eps = float(np.finfo(float).eps)
    gamma = r * eps / (1.0 - r * eps)
    limit = math.log1p(-STATIONARY_MARGIN)
    A, e, powers = Phi, 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(MAX_DOUBLINGS):
            if k:
                A = A @ A
            powers.append(A)
            a = _fro_norm(A) * (1.0 + r * r * eps) + math.ldexp(r, -537)
            bound = a + e   # 0 only for an empty monodromy
            if bound == 0.0 or math.ldexp(math.log(bound), -k) < limit:
                return powers, (True, None)
            # |tr A_k| <= r rho^(2^k), and the computed trace is
            # within sqrt(r) (e + gamma a) of tr A_k
            if (e >= 1.0 or abs(float(np.trace(A)))
                    - math.sqrt(r) * (e + gamma * a) > r):
                break
            e = (e * (2.0 * a + e) + gamma * a * a
                 + math.ldexp(r * r, -1074))
        return powers, _decision(Phi)


def _smith_doubling(Phi: np.ndarray, Qbar: np.ndarray):
    """``(W, decision)``, ``W = sum_j Phi^j Qbar Phi'^j`` summed as
    ``W <- W + A_k W A_k'`` from ``W = Qbar`` over :func:`_certify`'s
    powers, squaring on where they run out, on a stationary decision
    only.  W is None when the decision is False or the added term is
    still above roundoff (or not finite) after ``MAX_DOUBLINGS``
    updates.  Where W settles before the deciding power, the
    eigenvalues replace a certified decision."""
    powers, decision = _certify(Phi)
    if not decision[0]:
        return None, decision
    eps = float(np.finfo(float).eps)
    W = Qbar
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(MAX_DOUBLINGS):
            A = powers[k] if k < len(powers) else A @ A
            W, ended = _doubling_update(W, A, eps)
            if ended:
                if k < len(powers) - 1 and decision[1] is None:
                    decision = _decision(Phi)
                return W, decision
    return None, decision


def solve_dple(model: PeriodicModel) -> list[np.ndarray]:
    """Stationary state covariances ``[W_1, .., W_S]``.

    Solves the period-1 Lyapunov equation for W_1 by Smith's doubling on
    the monodromy, then propagates one season at a time.  The doubling's
    powers certify stationarity (the bound of the module docstring); the
    monodromy eigenvalues are taken only when none does.  Raises
    :class:`NotStationary` when the monodromy radius is not below one
    and :class:`SingularLift` when the doubling does not settle or the
    solution misses the ``DPLE_TOL`` residual gate (radius too close to
    one for the solve to be trusted).
    """
    return _solve_dple(model)[0]


def _solve_dple(model: PeriodicModel):
    """``(W, residual)``: :func:`solve_dple`'s ``W`` with the Lyapunov
    residual it took on the way.  A ``SingularLift`` message takes the
    radius it prints from the monodromy eigenvalues."""
    S = model.S
    Phi = monodromy(model)
    Qbar = period_noise(model)
    W1, (stationary, rho) = _smith_doubling(Phi, Qbar)
    if not stationary:
        raise NotStationary(
            f"monodromy spectral radius {rho:.9f} is not below 1")

    if W1 is None:
        raise SingularLift(
            f"the Lyapunov doubling did not settle within {MAX_DOUBLINGS} "
            f"doublings (monodromy radius {spectral_radius(Phi):.12f})")
    W1 = 0.5 * (W1 + W1.T)
    residual = rel_err(W1, Phi @ W1 @ Phi.T + Qbar)
    if residual > DPLE_TOL:
        raise SingularLift(
            f"Lyapunov solve residual {residual:.3e} exceeds {DPLE_TOL:g} "
            f"(monodromy radius {spectral_radius(Phi):.12f})")

    W = [W1]
    for s in range(1, S):
        Ws = model.F[s - 1] @ W[-1] @ model.F[s - 1].T \
            + model.G[s - 1] @ model.Q[s - 1] @ model.G[s - 1].T
        W.append(0.5 * (Ws + Ws.T))
    return W, residual
