"""Data filtering with interchangeable covariance engines.

All engines share the same state update

    e_t = y[t] - H_s' xhat[t],   w_t = Omega_t^{-1} e_t,
    xhat[t+1] = F_s xhat[t] + K_t w_t

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

Steady-gain switch.  Every engine also carries a flag ``settled``: set
after a step once its ``(K_t, Omega_t, factor_t, Sigma_t)`` sequence
has become exactly S-periodic.  ``kalman`` settles when the covariance
it produced equals bitwise the one from S steps back (exact, since the
PRDE map is deterministic); a low-rank engine when its ring has not
changed bitwise for S steps and a bound on the next increment lies far
below the last bit of every ring entry (a sufficient condition it
enforces, stated in ``_ChandEngine``; never with a sigma trace).  From
the next step on the loop stops calling ``step`` and runs the state
update alone, with each season's gain and factor from the last period
of steps; after the loop it copies that period's Omega, K, Sigma and
``m log 2 pi + log det Omega`` into the settled steps, season by
season.  The switch lives in
the loop, not in the engines, so ``count_costs`` keeps metering the
recursion itself; ``FilterOutput.settled_at`` is the last step that
called the engine.

The innovations-form Gaussian log-likelihood is the sum of the terms

    -1/2 [ m log 2 pi + log det Omega_t + e_t' w_t ],

which the loop forms from the same w_t as the state update: one solve
with the factor of Omega_t per step serves both.

The state update and the term are evaluated with one LAPACK ``potrs``
call on the cached factor and products through bound ``ndarray.dot``
methods (``F.dot``, ``H'.dot`` and ``K.dot`` are kept per season with
the factor, and ``e.dot(w)``), in the expression order of the metered
helpers in :mod:`periodickf.linalg` (so bitwise their results, up to
the sign of a zero product of one-element operands, see there), and
the loop charges the active flop counter once per call with what those
helpers would charge, n times the per-step
``2mr + m + 2m^2 + 2r^2 + 2rm + r``.  The loop keeps each step's
``e_t' w_t`` and forms the terms from them in one vectorized expression
after it.  The solve's checks run only when
its status or ``e_t' w_t`` flags a problem (``_check_solve``): a
non-finite innovation still raises ``ValueError`` at its step, naming
the step and season.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chandrasekhar import (auto_factorize, build_prelude, chand_init,
                            step_alg31, step_alg32, step_minv,
                            to_inverse_state)
from .exceptions import (EngineInitFailed, MSingular, OmegaNotPD,
                         ResidualTooLarge)
from .kalman import _covariance_update, solve_dple
from .linalg import _charge, _potrs, factor_logdet, factor_solve, spd_factor

# Engine registry: each low-rank engine name maps to its step function.
LOWRANK_STEPS = {"chand31": step_alg31, "chand32": step_alg32,
                 "chand-minv": step_minv}
ENGINES = ("kalman", *LOWRANK_STEPS)
INITS = ("zero-state", "stationary", "explicit")

# Invariants an initial covariance must meet (looser than the model-level
# checks: a propagated covariance accumulates roundoff).
SIGMA_SYM_RTOL = 1e-10
SIGMA_EIG_FLOOR_RTOL = 1e-8

# A low-rank engine settles only once the bound on its next increment is
# this far below every ring entry: 2^-54 (half a unit in the last place,
# relative) times a margin of 2^-20 (see ``_ChandEngine``).
SETTLE_MARGIN = 2.0 ** -74

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FilterOutput:
    """Per-step filter quantities for t = 1..n.

    ``innovations[t-1]``, ``Omega[t-1]`` and ``K[t-1]`` belong to time
    t; ``xhat[t-1]`` is the prediction entering time t (so ``xhat`` has
    n + 1 rows). ``terms[t-1]`` is time t's log-likelihood term, and
    ``loglik`` their sum. ``sigma_trace[t-1]`` (present on request) is
    the prediction-error covariance at time t. ``settled_at`` is the
    last step that called the engine before its gains were served from
    the steady-gain cache, or None when the run never settled (every
    step then called it).
    """

    engine: str
    n: int
    innovations: np.ndarray     # (n, m)
    Omega: np.ndarray           # (n, m, m)
    K: np.ndarray               # (n, r, m)
    xhat: np.ndarray            # (n + 1, r)
    loglik: float
    sigma_trace: np.ndarray | None = None
    terms: np.ndarray | None = None     # (n,)
    settled_at: int | None = None


def _check_sigma1(Sigma1: np.ndarray, r: int) -> np.ndarray:
    Sigma1 = np.asarray(Sigma1, dtype=float)
    if Sigma1.shape != (r, r):
        raise ValueError(f"Sigma1 must be {r}x{r}")
    if not np.all(np.isfinite(Sigma1)):
        raise ValueError("Sigma1 is not finite")
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
        x = np.asarray(xhat1, dtype=float)
        if x.size != model.r or not np.all(np.isfinite(x)):
            raise ValueError(f"xhat1 must be {model.r} finite values")
        return x.reshape(model.r), _check_sigma1(Sigma1, model.r), None
    x = np.zeros(model.r)
    # zero-state takes the model's W1, falling back to the stationary
    # covariance when none is stored.
    if init == "zero-state" and model.W1 is not None:
        return x, _check_sigma1(model.W1, model.r), None
    W = solve_dple(model)
    return x, W[0], W


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays of one shape hold the same bits: bitwise
    equality, stricter than ``np.array_equal`` (-0.0 differs from 0.0)
    and a tenth of its cost on small arrays."""
    return a.tobytes() == b.tobytes()


class _KalmanEngine:
    """The full covariance recursion.

    Settled once the covariance a step produces, Sigma_{t+1}, equals
    bitwise (``_same_bits``) the one from S steps back,
    Sigma_{t+1-S}.  The PRDE map is deterministic, so from then on every
    step repeats the step one period before it exactly.
    """

    alpha = None

    def __init__(self, model, Sigma1):
        self.model = model
        self.Sigma = Sigma1
        self.recent = [None] * model.S      # recent[(u-1) % S] = Sigma_u
        self.settled = False

    def step(self, t: int):
        Sigma = self.Sigma
        Omega, K, factor, self.Sigma = _covariance_update(self.model, Sigma, t)
        S = self.model.S
        self.recent[(t - 1) % S] = Sigma
        before = self.recent[t % S]         # Sigma_{t+1-S}; None while t < S
        self.settled = before is not None and _same_bits(self.Sigma, before)
        return K, Omega, factor, Sigma


class _ChandEngine:
    """A low-rank increment recursion.

    A step t is quiet when the ring entry it wrote, (K_{t+S},
    Omega_{t+S}), equals bitwise the entry (K_t, Omega_t) it replaced.
    The engine is settled when both hold:

    (a) the last S steps were quiet, so the next S steps return the S
        before them (each factor is a deterministic function of its
        Omega);
    (b) the next step's increment terms are below the last bit of every
        ring entry by a margin: with ``beta = norm(Y)^2 norm(M)``, every
        season s has ``beta norm(H_s)^2 <= SETTLE_MARGIN * min |Omega_s|``
        and ``beta norm(F_s) norm(H_s) <= SETTLE_MARGIN * min |K_s|``.
        The minima are entrywise and the norms Frobenius, except that
        ``chand-minv``, which holds N = M^{-1}, takes norm(M) as
        1 / (smallest singular value of N).  The left sides bound every
        entry of ``H'Y M Y'H`` and ``F Y M Y'H``, so an exact zero entry
        of K or Omega requires a zero increment.

    (b) is the sufficient condition this engine enforces for the steps
    after those S, not a proof: Y and M keep moving, and (b) only leaves
    a margin of ``2**-20`` against the increment regrowing (an
    oscillating or non-normal closed loop).  With a sigma trace the
    engine never settles, because its accumulator keeps adding Y M Y'
    every step.
    """

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
        # per season: the factors bounding the entries an increment adds
        # to Omega and to K, in units of norm(Y)^2 norm(M)
        self.reach = [(np.linalg.norm(H) ** 2,
                       np.linalg.norm(F) * np.linalg.norm(H))
                      for F, H in zip(model.F, model.H)]
        self.quiet = 0              # consecutive quiet steps
        self.settled = False

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
        K_next, Omega_next = self.state.ring[i]
        if (self.acc is None and _same_bits(Omega_next, Omega)
                and _same_bits(K_next, K)):
            self.quiet += 1
        else:
            self.quiet = 0
        self.settled = self.quiet >= self.model.S and self._absorbed()
        return K, Omega, factor, Sigma

    def _absorbed(self) -> bool:
        """Condition (b) on the current state."""
        Y, M = self.state.Y, self.state.M
        beta = float(np.linalg.norm(Y)) ** 2
        if beta == 0.0:
            return True
        if self.state.m_is_inverse:     # M holds N: norm(M) = 1 / min sv(N)
            # the same values the next step's invertibility gate reads
            smallest = float(self.state._m_singular_values[-1])
            if smallest == 0.0:
                return False
            beta /= smallest
        else:
            beta *= float(np.linalg.norm(M))
        return all(beta * to_omega <= SETTLE_MARGIN * np.min(np.abs(Omega))
                   and beta * to_k <= SETTLE_MARGIN * np.min(np.abs(K))
                   for (K, Omega), (to_omega, to_k)
                   in zip(self.state.ring, self.reach))


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

    Once the engine reports that its gains are exactly S-periodic (see
    the module docstring), later steps repeat ``(K, Omega, factor,
    Sigma)`` and the log-likelihood constant of the step one period
    before them, and the engine is no longer stepped;
    ``settled_at`` in the output names the last step that called it.
    Every output equals the run that steps the engine to the end, as
    long as the settle condition holds.  A consequence: the gates of
    the steps no longer run cannot raise, so a ``chand-minv`` run whose
    M would drift into ``MSingular`` after ``settled_at`` completes here.
    The settle-condition property test searches for such runs and for
    any other frozen/unfrozen difference; it has found none.

    Raises ``ValueError`` naming the first non-finite observation or,
    during the loop, the first non-finite innovation (say from a huge
    explicit ``xhat1``) with its step and season,
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
    ews = np.empty(n)           # e_t' w_t
    consts = np.empty(n)        # m log 2 pi + log det Omega_t

    # the metered cost of one step's state update: H'x, e = y - H'x,
    # w = Omega^{-1} e, F x, K w and their sum
    m, r, S = model.m, model.r, model.S
    step_flops = 2*m*r + m + 2*m*m + 2*r*r + 2*r*m + r
    # season -> (F.dot, H'.dot, K.dot, Cholesky factor of Omega, its
    # lower flag) of the last step that called the engine
    update = [None] * S
    settled_at = None
    isfinite = math.isfinite
    for t, yt in enumerate(y2, 1):          # yt = y2[t - 1]
        i = (t - 1) % S
        if settled_at is None:
            try:
                K, Omega, factor, Sigma = eng.step(t)
            except (OmegaNotPD, MSingular) as exc:
                exc.locate(t, model.season(t))
                raise
            update[i] = (model.F[i].dot, model.H[i].T.dot, K.dot, *factor)
            consts[t - 1] = _loglik_const(factor, m)
            Omegas[t - 1] = Omega
            Ks[t - 1] = K
            if sigma_trace:
                sigmas[t - 1] = Sigma
            if eng.settled:
                settled_at = t
        F_dot, HT_dot, K_dot, c, lower = update[i]
        xhats[t - 1] = x
        e = yt - HT_dot(x)
        innovations[t - 1] = e
        w, info = _potrs(c, e, lower)                   # Omega_t^{-1} e_t
        ew = e.dot(w)
        if info or not isfinite(ew):
            _check_solve(info, e, t, model.season(t))
        x = F_dot(x) + K_dot(w)
        ews[t - 1] = ew
    xhats[n] = x
    if settled_at is not None:
        # each settled step repeats the step one period before it
        # (settled_at >= S: an engine settles after S steps at the soonest)
        for j in range(settled_at, min(settled_at + S, n)):
            for out in (Omegas, Ks, consts, sigmas):
                if out is not None:
                    out[j::S] = out[j - S]
    terms = -0.5 * (consts + ews)
    _charge(step_flops * n)

    return FilterOutput(engine=engine, n=n, innovations=innovations,
                        Omega=Omegas, K=Ks, xhat=xhats,
                        loglik=float(np.sum(terms)), sigma_trace=sigmas,
                        terms=terms, settled_at=settled_at)


def _loglik_const(factor, m: int) -> float:
    """``m log 2 pi + log det Omega``, given Omega's factor."""
    return m * _LOG_2PI + factor_logdet(factor)


def _check_solve(info: int, e: np.ndarray, t: int, season: int) -> None:
    """The checks of step t's solve ``w = Omega^{-1} e``, run when its
    ``info`` is nonzero or ``e' w`` is not finite (which a non-finite e
    always makes it): a non-finite innovation raises ``ValueError``
    naming the step and season, as does an illegal LAPACK argument.  A
    finite innovation whose ``e' w`` overflows passes, and its term is
    -inf.  The factor needs no check here: ``spd_factor`` formed it from
    a matrix it checked finite."""
    if not np.isfinite(e).all():
        raise ValueError(f"innovation at t={t} (season {season}) is not "
                         f"finite ({e!r})")
    if info:
        raise ValueError(f"potrs: illegal value in argument {-info} at "
                         f"t={t} (season {season})")


def gaussian_loglik(output: FilterOutput) -> float:
    """Innovations-form Gaussian log-likelihood, recomputed from the
    stored innovations and Omegas (each factored again); an empty series
    has log-likelihood 0."""
    terms = []
    for e, Omega in zip(output.innovations, output.Omega):
        factor = spd_factor(Omega)
        terms.append(-0.5 * (_loglik_const(factor, e.size)
                             + float(e @ factor_solve(factor, e))))
    return float(np.sum(terms))
