"""Data filtering with interchangeable covariance engines.

All engines share the same state update

    xhat[t+1] = F_s xhat[t] + K_t Omega_t^{-1} (y[t] - H_s' xhat[t])

and differ only in how the pair (K_t, Omega_t) is produced:

* ``kalman``      - the full covariance recursion (cubic in r per step);
* ``chand31``     - low-rank increment recursion, updated-gain form;
* ``chand32``     - low-rank increment recursion, current-gain form;
* ``chand-minv``  - low-rank increment recursion propagating M^{-1}.

``LOWRANK_STEPS`` maps each low-rank engine name to its step function
in :mod:`periodickf.chandrasekhar`; ``ENGINES`` is ``kalman`` followed
by those names.  An engine is built from the starting covariance by
``_make_engine`` (which :func:`periodickf.bench.count_costs` uses too)
and has one method, ``step(t)``, returning ``(K_t, Omega_t, factor_t,
Sigma_t)`` and advancing to time t + 1.  ``factor_t`` is the Cholesky
factor of Omega_t, made by ``linalg.spd_factor`` (after the
positive-definiteness gate) in the code that formed Omega_t, so each
Omega is gated and factored once and the filter loop factors nothing.
The low-rank engines never form the r x r covariance unless a sigma
trace is requested (``Sigma_t`` is None otherwise), in which case each
season's covariance is accumulated from the prelude and the increments,

    Sigma_{kS+s} = Sigma_s + sum_{j=0}^{k-1} Y_{jS+s} M_{jS+s} Y_{jS+s}'.

This trace is the package's one covariance rebuild, and
:func:`filter_series` its one filter loop.

The innovations-form Gaussian log-likelihood of a filtered series is

    loglik = -1/2 sum_t [ m log 2 pi + log det Omega_t
                          + e_t' Omega_t^{-1} e_t ],

accumulated inside the filter loop from the engine's factor of Omega_t,
which the gain solve uses too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chandrasekhar import (auto_factorize, build_prelude, chand_init,
                            step_alg31, step_alg32, step_minv,
                            to_inverse_state)
from .exceptions import (EngineInitFailed, MSingular, OmegaNotPD,
                         ResidualTooLarge)
from .kalman import _covariance_update, solve_dple
from .linalg import (add, factor_logdet_quad, factor_solve, matmul,
                     spd_logdet_quad, sub)

# Engine registry: each low-rank engine name maps to its step function.
LOWRANK_STEPS = {"chand31": step_alg31, "chand32": step_alg32,
                 "chand-minv": step_minv}
ENGINES = ("kalman", *LOWRANK_STEPS)
INITS = ("zero-state", "stationary", "explicit")

# Invariants an initial covariance must meet (looser than the model-level
# checks: a propagated covariance accumulates roundoff).
SIGMA_SYM_RTOL = 1e-10
SIGMA_EIG_FLOOR_RTOL = 1e-8

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FilterOutput:
    """Per-step filter quantities for t = 1..n.

    ``innovations[t-1]``, ``Omega[t-1]`` and ``K[t-1]`` belong to time
    t; ``xhat[t-1]`` is the prediction entering time t (so ``xhat`` has
    n + 1 rows). ``sigma_trace[t-1]`` (present on request) is the
    prediction-error covariance at time t.
    """

    engine: str
    n: int
    innovations: np.ndarray     # (n, m)
    Omega: np.ndarray           # (n, m, m)
    K: np.ndarray               # (n, r, m)
    xhat: np.ndarray            # (n + 1, r)
    loglik: float
    sigma_trace: np.ndarray | None = None


def _check_sigma1(Sigma1: np.ndarray, r: int) -> np.ndarray:
    Sigma1 = np.asarray(Sigma1, dtype=float)
    if Sigma1.shape != (r, r):
        raise ValueError(f"Sigma1 must be {r}x{r}")
    norm = float(np.linalg.norm(Sigma1))
    if float(np.linalg.norm(Sigma1 - Sigma1.T)) > SIGMA_SYM_RTOL * max(norm, 1e-300):
        raise ValueError("Sigma1 is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (Sigma1 + Sigma1.T))
    if w.size and w[0] < -SIGMA_EIG_FLOOR_RTOL * max(float(np.max(np.abs(w))), 1e-300):
        raise ValueError("Sigma1 is not positive semidefinite")
    return 0.5 * (Sigma1 + Sigma1.T)


def _initial_conditions(model, init: str, xhat1, Sigma1):
    """``(xhat1, Sigma1, W)``; ``W`` is the list of stationary
    covariances when this start solved for them, else None."""
    if init not in INITS:
        raise ValueError(f"unknown init {init!r}; expected one of {INITS}")
    if init == "explicit":
        if xhat1 is None or Sigma1 is None:
            raise ValueError("explicit init requires xhat1 and Sigma1")
        x = np.asarray(xhat1, dtype=float).reshape(model.r)
        return x, _check_sigma1(Sigma1, model.r), None
    x = np.zeros(model.r)
    # zero-state takes the model's W1, falling back to the stationary
    # covariance when none is stored.
    if init == "zero-state" and model.W1 is not None:
        return x, _check_sigma1(model.W1, model.r), None
    W = solve_dple(model)
    return x, W[0], W


class _KalmanEngine:
    alpha = None

    def __init__(self, model, Sigma1):
        self.model = model
        self.Sigma = Sigma1

    def step(self, t: int):
        Sigma = self.Sigma
        Omega, K, factor, self.Sigma = _covariance_update(self.model, Sigma, t)
        return K, Omega, factor, Sigma


class _ChandEngine:
    def __init__(self, model, Sigma1, W, variant: str, trace: bool):
        self.model = model
        self.step_fn = LOWRANK_STEPS[variant]
        prelude = build_prelude(model, Sigma1)
        try:
            factorization = auto_factorize(model, prelude, W=W)
            state = chand_init(model, factorization, prelude)
            if variant == "chand-minv":
                state = to_inverse_state(state)
        except (ResidualTooLarge, MSingular) as exc:
            raise EngineInitFailed(
                f"{variant} engine initialization failed: {exc}") from exc
        self.state = state
        self.alpha = state.alpha
        self.acc = [s.copy() for s in prelude.Sigma] if trace else None

    def step(self, t: int):
        i = (t - 1) % self.model.S
        (K, Omega), factor = self.state.ring[i], self.state.factors[i]
        Sigma = None
        if self.acc is not None:
            Sigma = self.acc[i]
            if self.state.alpha > 0:
                Y, M = self.state.factor_pair()
                self.acc[i] = Sigma + Y @ M @ Y.T
        self.state = self.step_fn(self.model, self.state)
        return K, Omega, factor, Sigma


def _make_engine(model, engine: str, Sigma1, W, trace: bool):
    """``W`` is the stationary covariance list if the caller solved for
    it; with None a low-rank start solves for it itself."""
    if engine == "kalman":
        return _KalmanEngine(model, Sigma1)
    if engine in LOWRANK_STEPS:
        return _ChandEngine(model, Sigma1, W, engine, trace)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def _coerce_observations(y, m: int) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        if m != 1:
            raise ValueError(f"observations must be (n, {m})")
        arr = arr.reshape(-1, 1)
    if arr.size == 0:
        return arr.reshape(0, m)
    if arr.ndim != 2 or arr.shape[1] != m:
        raise ValueError(f"observations must be (n, {m}), got {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        t, j = bad[0]
        raise ValueError(f"observation at t={t + 1}, column {j + 1} is not "
                         f"finite ({arr[t, j]!r})")
    return arr


def filter_series(model, y, engine: str = "kalman",
                  init: str = "zero-state", xhat1=None, Sigma1=None,
                  sigma_trace: bool = False) -> FilterOutput:
    """Filter an observation series.

    Parameters
    ----------
    model : PeriodicModel
    y : array (n, m), or (n,) when m = 1; every value must be finite
    engine : one of ``ENGINES``
    init : one of ``INITS``; ``zero-state`` uses xhat = 0 with the
        model's W1 (or the stationary covariance when none is stored),
        ``stationary`` forces the stationary covariance, ``explicit``
        takes ``xhat1``/``Sigma1``.
    sigma_trace : also record the per-step covariance Sigma_t; the
        low-rank engines rebuild it from the prelude and their
        increments, ``Sigma_{kS+s} = Sigma_s + sum_j Y_{jS+s} M_{jS+s}
        Y_{jS+s}'`` over j = 0..k-1.

    The stationary covariances are solved for at most once per call:
    a low-rank engine reuses the solution the start computed.

    Raises ``ValueError`` naming the first non-finite observation,
    ``NotStationary`` when a stationary start is requested from a
    model without one, ``EngineInitFailed`` when a low-rank engine's
    start factorization fails, and ``OmegaNotPD`` (or ``MSingular``
    from ``chand-minv``) from the recursions.  These last two carry the
    step ``t`` and ``season`` during which they were raised; a low-rank
    engine forms Omega_{t+S} in step t, so it stops one period earlier
    than ``kalman`` on the same singular Omega.
    """
    y2 = _coerce_observations(y, model.m)
    n = y2.shape[0]
    x, Sigma1v, W = _initial_conditions(model, init, xhat1, Sigma1)
    eng = _make_engine(model, engine, Sigma1v, W, sigma_trace)

    innovations = np.empty((n, model.m))
    Omegas = np.empty((n, model.m, model.m))
    Ks = np.empty((n, model.r, model.m))
    xhats = np.empty((n + 1, model.r))
    sigmas = np.empty((n, model.r, model.r)) if sigma_trace else None
    terms = np.empty(n)

    for t in range(1, n + 1):
        try:
            K, Omega, factor, Sigma = eng.step(t)
        except (OmegaNotPD, MSingular) as exc:
            exc.locate(t, model.season(t))
            raise
        F, _, H, _, _ = model.at(t)
        xhats[t - 1] = x
        e = sub(y2[t - 1], matmul(H.T, x))
        KtilT = factor_solve(factor, K.T)            # m x r
        x = add(matmul(F, x), matmul(KtilT.T, e))
        terms[t - 1] = _loglik_term(factor_logdet_quad(factor, e), model.m)
        innovations[t - 1] = e
        Omegas[t - 1] = Omega
        Ks[t - 1] = K
        if sigma_trace:
            sigmas[t - 1] = Sigma
    xhats[n] = x

    return FilterOutput(engine=engine, n=n, innovations=innovations,
                        Omega=Omegas, K=Ks, xhat=xhats,
                        loglik=float(np.sum(terms)), sigma_trace=sigmas)


def _loglik_term(logdet_quad: tuple[float, float], m: int) -> float:
    logdet, quad = logdet_quad
    return -0.5 * (m * _LOG_2PI + logdet + quad)


def loglik_terms(output: FilterOutput) -> np.ndarray:
    """Per-step contributions to the Gaussian log-likelihood."""
    m = output.innovations.shape[1]
    return np.array([_loglik_term(spd_logdet_quad(Omega, e), m)
                     for e, Omega in zip(output.innovations, output.Omega)])


def gaussian_loglik(output: FilterOutput) -> float:
    """Innovations-form Gaussian log-likelihood of a filtered series.

    Log-determinants come from Cholesky factors; no matrix is ever
    inverted explicitly. An empty series has log-likelihood 0.
    """
    return float(np.sum(loglik_terms(output)))
