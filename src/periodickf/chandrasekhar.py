"""Low-rank recursions for the S-lagged covariance increment.

For a periodic model the prediction-error covariance satisfies a
periodic Riccati recursion whose per-step cost is cubic in the state
dimension r.  The S-lagged increment

    Delta_t = Sigma_{t+S} - Sigma_t

however obeys a recursion that preserves its rank, so writing
``Delta_t = Y_t M_t Y_t'`` with Y_t of width alpha turns the whole
filter into updates of (K, Omega, Y, M) whose cost is quadratic in r.
With one period of startup values (K_s, Omega_s), s = 1..S, kept in a
season-indexed ring, the updates at time t (season s, gain A read from
the ring) are:

    Omega_{t+S} = Omega_t + H' Y M Y' H
    K_{t+S}     = K_t + F Y M Y' H

and then one of two equivalent factor propagations:

  * updated-gain form (``step_alg31``):
        Y+ = (F - K_{t+S} Omega_{t+S}^{-1} H') Y
        M+ = M + M Y'H Omega_t^{-1} H'Y M
  * current-gain form (``step_alg32``):
        Y+ = (F - K_t Omega_t^{-1} H') Y
        M+ = M - M Y'H Omega_{t+S}^{-1} H'Y M

The updated-gain M recursion linearizes under the matrix inversion
lemma, giving the inverse-form variant (``step_minv``) that propagates
``M^{-1}`` by a pure subtraction:

        M+^{-1} = M^{-1} - Y'H Omega_{t+S}^{-1} H'Y,

paired with the updated-gain Y propagation.  (The current-gain Y update
does not pair with this recursion: the product Y M Y' then stops
tracking the increment.)

Three ways to factor the initial increment are provided, two of them
exact closed forms for a filter started from the periodic stationary
state covariance W_1:

  * gain form (width alpha = m S): Y_1 collects the startup gains
    propagated through the transitions,
    ``Y_1 = [K_S, F_S K_{S-1}, .., (F_S .. F_2) K_1]``, and
    ``M_1 = -blockdiag(Omega_S^{-1}, .., Omega_1^{-1})``;
  * steady form (width alpha = r): ``Y_1 = F_S`` and
    ``M_1 = Sigma_S - W_0 - (Sigma_S H_S) Omega_S^{-1} (Sigma_S H_S)'``
    with W_0 the stationary covariance entering season S (= W_S);
  * symmetric eigendecomposition of the increment itself, keeping the
    numerically nonzero eigenvalues (works for any start).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .exceptions import (MSingular, NotStationary, OmegaNotPD,
                         ResidualTooLarge, SingularLift)
from .kalman import _covariance_update, is_periodically_stationary, solve_dple
from .linalg import (_charge, _solve, factor_solve, rel_err, spd_factor, sub,
                     sym_solve, symmetrize)

# A factorization must reproduce its increment to this relative tolerance.
FACTOR_RESIDUAL_TOL = 1e-8
# Relative singular-value threshold below which M counts as singular.
M_SINGULAR_RTOL = 1e-12
# Relative eigenvalue cutoff for the eigendecomposition start.
EIG_KEEP_RTOL = 1e-12


@dataclass
class Prelude:
    """One period of exact filter quantities: ``Sigma[s-1]``,
    ``K[s-1]``, ``Omega[s-1]`` and the gated Cholesky factor
    ``factors[s-1]`` of ``Omega[s-1]`` for seasons s = 1..S, plus the
    first S-lagged increment ``DeltaSigma1 = Sigma_{S+1} - Sigma_1``."""

    Sigma: list
    K: list
    Omega: list
    DeltaSigma1: np.ndarray
    factors: list

    @property
    def S(self) -> int:
        return len(self.Sigma)


@dataclass
class Factorization:
    """``DeltaSigma1 = Y1 M1 Y1'`` with Y1 (r x alpha) and M1 symmetric
    (alpha x alpha)."""

    Y1: np.ndarray
    M1: np.ndarray
    alpha: int
    method: str  # "gain-form" | "steady-form" | "eigen"


@dataclass
class ChandrasekharState:
    """Recursion state entering time t.

    ``ring[(u-1) % S]`` holds the (K, Omega) pair for the unique time u
    in {t, .., t+S-1} with that season and ``factors[(u-1) % S]`` the
    gated Cholesky factor of that Omega, formed once when Omega was;
    stepping overwrites the slot of the current season with the values
    for t+S.  ``M`` holds the middle factor, or its inverse when
    ``m_is_inverse`` is set.  A state is not changed once built (a step
    returns a new one), so values derived from its fields may be cached
    on it.
    """

    t: int
    Y: np.ndarray
    M: np.ndarray
    ring: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    m_is_inverse: bool = False

    @property
    def alpha(self) -> int:
        return self.Y.shape[1]

    @cached_property
    def _m_singular_values(self) -> np.ndarray:
        """The singular values of the ``M`` field, largest first, taken
        once per state: for ``chand-minv`` the filter's settle test
        reads them after the step that made N, and the inverse-form
        gate at the start of the next step."""
        return np.linalg.svd(self.M, compute_uv=False)

    def current_gain(self) -> tuple[np.ndarray, np.ndarray]:
        """(K_t, Omega_t) at the state's own time."""
        return self.ring[(self.t - 1) % len(self.ring)]

    def factor_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(Y_t, M_t) with M resolved to the middle factor itself."""
        if not self.m_is_inverse:
            return self.Y, self.M
        if self.alpha == 0:
            return self.Y, self.M
        M = sym_solve(self.M, np.eye(self.alpha))
        return self.Y, 0.5 * (M + M.T)

    def increment(self) -> np.ndarray:
        """The increment ``Y_t M_t Y_t'`` this state represents."""
        Y, M = self.factor_pair()
        return Y @ M @ Y.T


def build_prelude(model, Sigma1) -> Prelude:
    """Run one period of exact covariance steps from ``Sigma1``.

    Collects (Sigma_s, K_s, Omega_s) for s = 1..S and the increment
    ``Sigma_{S+1} - Sigma_1``.  An :class:`OmegaNotPD` names the step s
    whose innovation covariance failed.
    """
    Sigma = symmetrize(np.asarray(Sigma1, dtype=float))
    Sigmas, Ks, Omegas, factors = [], [], [], []
    for s in range(1, model.S + 1):
        Sigmas.append(Sigma)
        try:
            Omega, K, factor, Sigma = _covariance_update(model, Sigma, s)
        except OmegaNotPD as exc:
            exc.locate(s, s)
            raise
        Ks.append(K)
        Omegas.append(Omega)
        factors.append(factor)
    delta = symmetrize(sub(Sigma, Sigmas[0]))
    return Prelude(Sigma=Sigmas, K=Ks, Omega=Omegas, DeltaSigma1=delta,
                   factors=factors)


def _factor_residual(Y1: np.ndarray, M1: np.ndarray,
                     delta: np.ndarray) -> float:
    return rel_err(Y1 @ M1 @ Y1.T, delta)


def _require_residual(Y1, M1, delta, method: str) -> None:
    residual = _factor_residual(Y1, M1, delta)
    if residual > FACTOR_RESIDUAL_TOL:
        raise ResidualTooLarge(
            f"{method} start reproduces the first increment only to "
            f"relative residual {residual:.3e} (> {FACTOR_RESIDUAL_TOL:g}); "
            "was the prelude built from the stationary covariance?",
            residual=residual)


def factor_gain_form(model, prelude: Prelude) -> Factorization:
    """Closed-form start of width ``alpha = m S`` from the startup gains.

    Valid when the prelude was built from the stationary W_1, in which
    case the first increment is exactly the (negative) sum of the
    one-period gain corrections.  Cheapest when ``S m < r``.
    """
    stationary, rho = is_periodically_stationary(model)
    if not stationary:
        raise NotStationary(
            f"gain-form start needs a stationary model "
            f"(monodromy radius {rho:.9f})")
    S, r, m = model.S, model.r, model.m
    blocks, inv_blocks = [], []
    P = np.eye(r)
    for k in range(S):
        i = S - k - 1  # 0-based index of season S - k
        blocks.append(P @ prelude.K[i])
        inv_blocks.append(factor_solve(prelude.factors[i], np.eye(m)))
        P = P @ model.F[i]
    Y1 = np.hstack(blocks)
    M1 = -scipy.linalg.block_diag(*inv_blocks)
    M1 = 0.5 * (M1 + M1.T)
    _require_residual(Y1, M1, prelude.DeltaSigma1, "gain-form")
    return Factorization(Y1=Y1, M1=M1, alpha=m * S, method="gain-form")


def factor_steady_form(model, prelude: Prelude, W0) -> Factorization:
    """Closed-form start of width ``alpha = r`` built on the last
    transition: ``Y_1 = F_S``,
    ``M_1 = Sigma_S - W_0 - (Sigma_S H_S) Omega_S^{-1} (Sigma_S H_S)'``.

    ``W0`` is the stationary state covariance entering season S (the
    last entry of :func:`solve_dple`).  Valid when the prelude's
    ``Sigma_1`` equals ``F_S W0 F_S' + G_S Q_S G_S'`` (the stationary
    W_1). Cheapest when ``S m >= r``.
    """
    stationary, rho = is_periodically_stationary(model)
    if not stationary:
        raise NotStationary(
            f"steady-form start needs a stationary model "
            f"(monodromy radius {rho:.9f})")
    S = model.S
    SigS = prelude.Sigma[S - 1]
    U = SigS @ model.H[S - 1]                       # r x m
    X = factor_solve(prelude.factors[S - 1], U.T)   # m x r
    M1 = SigS - np.asarray(W0, dtype=float) - U @ X
    M1 = 0.5 * (M1 + M1.T)
    Y1 = model.F[S - 1].copy()
    _require_residual(Y1, M1, prelude.DeltaSigma1, "steady-form")
    return Factorization(Y1=Y1, M1=M1, alpha=model.r, method="steady-form")


def factor_eigen(DeltaSigma1) -> Factorization:
    """Factor an increment by symmetric eigendecomposition, keeping the
    eigenvalues with ``|lambda| > EIG_KEEP_RTOL * max |lambda|``.

    Works for any start; the discarded mass bounds the reproduction
    error. A zero increment yields width alpha = 0.
    """
    delta = np.asarray(DeltaSigma1, dtype=float)
    delta = 0.5 * (delta + delta.T)
    r = delta.shape[0]
    w, v = np.linalg.eigh(delta)
    amax = float(np.max(np.abs(w))) if w.size else 0.0
    if amax == 0.0:
        return Factorization(Y1=np.zeros((r, 0)), M1=np.zeros((0, 0)),
                             alpha=0, method="eigen")
    keep = np.abs(w) > EIG_KEEP_RTOL * amax
    Y1 = v[:, keep]
    M1 = np.diag(w[keep])
    return Factorization(Y1=Y1, M1=M1, alpha=int(np.sum(keep)),
                         method="eigen")


def auto_factorize(model, prelude: Prelude, W=None) -> Factorization:
    """Dispatch on cost: gain form when ``S m < r``, steady form when
    ``S m >= r`` and the stationary covariances are available, falling
    back to the eigendecomposition whenever the closed forms do not
    apply (non-stationary model, or a prelude not started from W_1)."""
    if W is None:
        try:
            W = solve_dple(model)
        except (NotStationary, SingularLift):
            W = None
    if W is not None:
        try:
            if model.S * model.m < model.r:
                return factor_gain_form(model, prelude)
            return factor_steady_form(model, prelude, W[model.S - 1])
        except (NotStationary, ResidualTooLarge):
            pass
    return factor_eigen(prelude.DeltaSigma1)


def chand_init(model, factorization: Factorization,
               prelude: Prelude) -> ChandrasekharState:
    """Assemble the recursion state at t = 1.

    Re-checks that the factorization reproduces the prelude's first
    increment (:class:`ResidualTooLarge` otherwise) and seeds the ring
    with the startup (K_s, Omega_s) pairs and their factors.
    """
    _require_residual(factorization.Y1, factorization.M1,
                      prelude.DeltaSigma1, factorization.method)
    ring = [(prelude.K[s].copy(), prelude.Omega[s].copy())
            for s in range(model.S)]
    M1 = 0.5 * (factorization.M1 + factorization.M1.T)
    return ChandrasekharState(t=1, Y=factorization.Y1.copy(), M=M1,
                              ring=ring, factors=list(prelude.factors))


def to_inverse_state(state: ChandrasekharState) -> ChandrasekharState:
    """Replace M by its inverse so the subtraction-only recursion
    (:func:`step_minv`) can run.  Raises :class:`MSingular` when M fails
    the relative singular-value threshold."""
    if state.m_is_inverse:
        return state
    if state.alpha == 0:
        return replace(state, m_is_inverse=True)
    _require_invertible(state)
    N = sym_solve(state.M, np.eye(state.alpha))
    return replace(state, M=0.5 * (N + N.T), m_is_inverse=True)


def _require_invertible(state: ChandrasekharState) -> None:
    """Raise :class:`MSingular` unless the state's ``M`` field passes
    the relative singular-value threshold."""
    sv = state._m_singular_values
    if sv[0] == 0.0 or sv[-1] <= M_SINGULAR_RTOL * sv[0]:
        raise MSingular(
            f"middle factor has singular values in [{sv[-1]:.3e}, "
            f"{sv[0]:.3e}]; the inverse-form recursion cannot proceed")


def _step(model, state: ChandrasekharState, form: str) -> ChandrasekharState:
    """The step all three recursions share.

    ``form`` is ``"updated"`` (:func:`step_alg31`), ``"current"``
    (:func:`step_alg32`) or ``"inverse"`` (:func:`step_minv`, where the
    state's M field holds N = M^{-1}).  The prefix forming
    ``Omega_{t+S}`` and ``K_{t+S}`` is common; the forms differ in how
    T = M Y'H is obtained, which gain moves Y, and the M update.

    The arithmetic is numpy's elementwise operators, products through
    the operands' bound ``ndarray.dot`` and ``potrs`` solves
    (``linalg._solve``), in the expression order of the metered helpers
    in :mod:`periodickf.linalg`, so bitwise their results (see that
    module for the one exception, a zero product of one-element
    operands); the step charges the active counter once with what those
    helpers would charge, besides what ``spd_factor`` and ``sym_solve``
    charge.  The new state is built with the constructor, all fields
    given.
    """
    inverse = form == "inverse"
    if state.m_is_inverse != inverse:
        raise ValueError("state carries an inverted M; use step_minv"
                         if state.m_is_inverse else
                         "state carries M itself; use to_inverse_state first")
    if state.alpha == 0:
        # the increment is identically zero, (K, Omega) are periodic
        # already, and the step costs no arithmetic
        return replace(state, t=state.t + 1)
    i = (state.t - 1) % model.S
    F, H = model.F[i], model.H[i]
    (K, Omega), factor = state.ring[i], state.factors[i]
    Y, M = state.Y, state.M
    (r, a), m = Y.shape, H.shape[1]
    if inverse:
        _require_invertible(state)

    U = Y.T.dot(H)                           # alpha x m
    T = sym_solve(M, U) if inverse else M.dot(U)    # alpha x m, M U
    YT = Y.dot(T)                            # r x m
    Omega_next = Omega + U.T.dot(T)
    Omega_next = 0.5 * (Omega_next + Omega_next.T)
    K_next = K + F.dot(YT)
    factor_next = spd_factor(Omega_next)

    K_y, factor_y = (K, factor) if form == "current" else (K_next, factor_next)
    B = _solve(factor_y, U.T)                # m x alpha
    Y_next = F.dot(Y) - K_y.dot(B)
    if inverse:
        M_next = M - U.dot(B)
    elif form == "updated":
        M_next = M + T.dot(_solve(factor, T.T))
    else:
        M_next = M - T.dot(_solve(factor_next, T.T))
    M_next = 0.5 * (M_next + M_next.T)
    # U, Y T, Omega (product, add, symmetrize), K (product, add), B,
    # Y (two products, subtract), M (product, add or subtract,
    # symmetrize); M U unless inverse; the second solve unless inverse
    _charge(4*a*r*m + 2*m*a*m + 2*m*m + 2*r*r*m + r*m + 2*m*m*a
            + 2*r*r*a + 2*r*m*a + r*a + 2*a*m*a + 2*a*a
            + (0 if inverse else 2*a*a*m + 2*m*m*a))

    ring, factors = list(state.ring), list(state.factors)
    ring[i], factors[i] = (K_next, Omega_next), factor_next
    return ChandrasekharState(t=state.t + 1, Y=Y_next, M=M_next, ring=ring,
                              factors=factors, m_is_inverse=state.m_is_inverse)


def step_alg31(model, state: ChandrasekharState) -> ChandrasekharState:
    """One updated-gain step: propagate (K, Omega) by the increment and
    Y by the freshly updated gain; M grows by a congruence with the
    current-period solve."""
    return _step(model, state, "updated")


def step_alg32(model, state: ChandrasekharState) -> ChandrasekharState:
    """One current-gain step: Y propagates by the gain read from the
    ring; M shrinks by a congruence with the updated-period solve."""
    return _step(model, state, "current")


def step_minv(model, state: ChandrasekharState) -> ChandrasekharState:
    """One inverse-form step.

    The state's M field holds N = M^{-1}; the update is the subtraction
    ``N+ = N - Y'H Omega_{t+S}^{-1} H'Y`` paired with the updated-gain Y
    propagation (the pairing under which Y N^{-1} Y' keeps tracking the
    increment).  Raises :class:`MSingular` when N drifts out of the
    invertibility threshold and :class:`OmegaNotPD` on a failed solve.
    """
    return _step(model, state, "inverse")


@dataclass
class TheoremReport:
    """Maximum relative residuals of the four increment/gain identities
    over the checked window, all computed from exact filter quantities."""

    steps: int
    incr_updated_gain: float   # increment recursion using the t+S gain
    incr_current_gain: float   # increment recursion using the t gain
    gain_backward: float       # normalized gain at t from the one at t+S
    gain_forward: float        # normalized gain at t+S from the one at t

    @property
    def max_residual(self) -> float:
        return max(self.incr_updated_gain, self.incr_current_gain,
                   self.gain_backward, self.gain_forward)


def verify_theorem31(model, prelude: Prelude, steps: int) -> TheoremReport:
    """Check the increment and gain identities against an exact filter run.

    Runs the full covariance recursion for ``steps + S + 1`` times from
    the prelude's Sigma_1, forms the true increments
    ``Delta_t = Sigma_{t+S} - Sigma_t``, and measures how well the four
    identities hold at t = 1..steps:

    * ``Delta_{t+1} = A_up (Delta_t + Delta_t H Omega_t^{-1} H' Delta_t) A_up'``
      with ``A_up = F - Ktil_{t+S} H'``;
    * ``Delta_{t+1} = A_cur (Delta_t - Delta_t H Omega_{t+S}^{-1} H' Delta_t) A_cur'``
      with ``A_cur = F - Ktil_t H'``;
    * ``Ktil_t = Ktil_{t+S} - A_up Delta_t H Omega_t^{-1}``;
    * ``Ktil_{t+S} = Ktil_t + A_cur Delta_t H Omega_{t+S}^{-1}``;

    where ``Ktil = K Omega^{-1}`` is the normalized gain.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    S = model.S
    n_total = steps + S + 1
    Sigma = np.asarray(prelude.Sigma[0], dtype=float)
    Sigmas, factors, Ktils = [], [], []
    for t in range(1, n_total + 1):
        Sigmas.append(Sigma)
        _, K, factor, Sigma = _covariance_update(model, Sigma, t)
        factors.append(factor)
        Ktils.append(factor_solve(factor, K.T).T)

    r3 = r4 = r7 = r8 = 0.0
    for t0 in range(steps):  # 0-based; time t = t0 + 1
        F, _, H, _, _ = model.at(t0 + 1)
        delta = Sigmas[t0 + S] - Sigmas[t0]
        delta_next = Sigmas[t0 + S + 1] - Sigmas[t0 + 1]
        L_t, L_tS = factors[t0], factors[t0 + S]
        Kt, KtS = Ktils[t0], Ktils[t0 + S]

        DH = delta @ H
        A_up = F - KtS @ H.T
        A_cur = F - Kt @ H.T
        inner_up = delta + DH @ factor_solve(L_t, DH.T)
        inner_cur = delta - DH @ factor_solve(L_tS, DH.T)
        r3 = max(r3, rel_err(A_up @ inner_up @ A_up.T, delta_next))
        r4 = max(r4, rel_err(A_cur @ inner_cur @ A_cur.T, delta_next))
        r7 = max(r7, rel_err(Kt, KtS - A_up @ factor_solve(L_t, DH.T).T))
        r8 = max(r8, rel_err(KtS, Kt + A_cur @ factor_solve(L_tS, DH.T).T))
    return TheoremReport(steps=steps, incr_updated_gain=r3,
                         incr_current_gain=r4, gain_backward=r7,
                         gain_forward=r8)
