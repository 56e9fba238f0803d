"""Data filtering with interchangeable covariance engines.

All engines share the same state update, in innovations form with the
normalized gain ``B_t = K_t Omega_t^{-1}``,

    e_t = y[t] - H_s' xhat[t],   xhat[t+1] = F_s xhat[t] + B_t e_t,

and differ only in how the pair (K_t, Omega_t) is produced:

* ``kalman``      - the full covariance recursion (cubic in r per step);
* ``chand31``     - low-rank increment recursion, updated-gain form;
* ``chand32``     - low-rank increment recursion, current-gain form;
* ``chand-minv``  - low-rank increment recursion propagating M^{-1}.

``LOWRANK_STEPS`` maps each low-rank engine name to its step function
in :mod:`periodickf.chandrasekhar`; ``ENGINES`` is ``kalman`` followed
by those names.  The start (``_initial_conditions``, the package's one
start policy), the name check and ``_make_engine``, which builds an
engine from the starting covariance, serve ``bench.count_costs`` too.
An engine has one method, ``step(t)``, returning ``(K_t, Omega_t,
factor_t, Sigma_t)`` and advancing to time t + 1.  ``factor_t`` is the
Cholesky factor of Omega_t, made by ``linalg.spd_factor`` (after the
positive-definiteness gate) in the code that formed Omega_t, so each
Omega is gated and factored once and the filter factors nothing.
After a step, ``KtilT`` holds ``Omega_t^{-1} K_t'`` when the engine
solved for it (``kalman`` does, to update its covariance), else None.
The low-rank engines never form the r x r covariance unless a sigma
trace is requested (``Sigma_t`` is None otherwise), in which case each
season's covariance is accumulated from the prelude and the increments,

    Sigma_{kS+s} = Sigma_s + sum_{j=0}^{k-1} Y_{jS+s} M_{jS+s} Y_{jS+s}'.

This trace is the package's one covariance rebuild.

:func:`filter_series` makes two passes.  The gains do not depend on the
observations, so the gain pass (``_gain_pass``) steps the engine alone,
from step 1 until it settles (below) or reaches step n, and stacks
K_t, Omega_t, the factor, Sigma_t (with a trace) and ``B_t`` per step,
taking ``B_t' = Omega_t^{-1} K_t'`` from the engine's ``KtilT`` or
solving for it with one ``potrs`` on the factor.  The state pass
(``_state_pass``), the package's one filter loop, then runs every step
with ``B_1..B_T`` of those T steps and, past them, the last period's
``B`` cycled.  Step t maps ``z_t = [xhat[t]; e_t]`` to ``z_{t+1} =
A_t z_t + [0; y[t+1]]`` (``y[n+1] = 0``), with

    A_t = [[ F_s,              B_t         ],
           [ -H_{s+1}' F_s,   -H_{s+1}' B_t ]],

in one of two forms, chosen by r + m against ``_BAND_MAX_P``.  At or
below it (``_band_pass``) all steps are one unit lower triangular
banded system ``z_{t+1} - A_t z_t = [0; y[t+1]]``, held in BLAS band
storage and solved by ``tbsv`` a chunk of steps at a time.  Above it
each step is one product: row t - 1 of a work array holds ``[xhat[t],
e_t, y[t+1]]`` (the observations written in before the loop, zeros
after the last one), and each season s keeps one (r+m) x (r+2m) matrix
``M_s = [A_t, [0; I_m]]``, so that ``M_s [xhat[t]; e_t; y[t+1]]`` is
``z_{t+1}``, written into row t; steps 1..T first write ``B_t`` and
``-H_{s+1}' B_t`` into their season's matrix, and every later step
makes the product alone.  ``-H_{s+1}' F_s`` is formed once per call in
both.  ``tbsv`` forms each block row as ``y[t+1] + sum_j A_t[i, j]
z_t[j]``, the product's coefficients times the same ``z_t`` summed in
another order, so the two forms agree to rounding.  Both are still the
innovations form, with its numerics: no product of coefficient matrices
is formed, an error in the gain enters the state only as that error
times e_t, and y only as it is (the identity block, or the band's
right-hand side), so engines whose gains agree closely still agree on
a series whose level runs far above its innovations.  The closed-loop
form ``(F - B H') xhat + B y``, which forms ``F - B H'``, loses that
agreement: on the non-stationary 5000-step series of the long-horizon
test (monodromy radius 1.05, observations up to 1e53) its engines'
log-likelihoods differ by about 20%, where here they agree to 1.3e-15.
On that series the log-likelihood itself is at rounding level, about
-3.61e74 (the same recursion in extended precision on ``kalman``'s
gains gives -2.22e74).

Steady-gain switch.  Every engine also carries a flag ``settled``: set
after a step once its ``(K_t, Omega_t, factor_t, Sigma_t)`` sequence
has become exactly S-periodic.  ``kalman`` settles when the covariance
it produced equals bitwise the one from S steps back (exact, since the
PRDE map is deterministic); a low-rank engine when its ring has not
changed bitwise for S steps and the terms the current (Y, M) would add
to each season's ring entry lie far below the last bit of every entry
(a sufficient condition it enforces, stated in ``_ChandEngine``; never
with a sigma trace).  The gain pass then stops, the state pass runs
the settled steps with each season's ``B`` from the last period of
steps, and after it that period's Omega, K, factor and Sigma are copied
into the settled steps, season by season.  The switch lives in the gain
pass, not in the engines, so ``count_costs`` keeps metering the
recursion itself; ``FilterOutput.settled_at`` is the step after which
the gains repeat with period S.

Start memo.  The start is a function of the model alone, so the module
keeps the last one computed in one slot (``_START_MEMO``), keyed by the
start kind and the model's content (``_content_key``: the dimensions
and every system matrix's dtype, shape, strides and bytes, W1
included).  A call whose key matches, a "warm" call, takes from it the
starting covariance and the stationary covariances, so it runs neither
the start's Lyapunov solve nor a monodromy eigensolve; an engine it
builds starts from these as a cold call's does, and its closed-form
start decides no stationarity, since only a stationary model has them.
The key is built and compared on every call (microseconds), so a model
mutated in place, given a new list, or flipping an entry between 0.0
and -0.0 misses.  A start that raises is
not stored, and an ``explicit`` start is never memoized.

The memo also keeps, per engine, the gain pass of a call from its
start that reached ``settled_at = T`` (not with a sigma trace):
read-only copies of its K, Omega, factor and B stacks, t = 1..T.  A
later call on that content, start kind and engine builds and steps no
engine: ``filter_series`` (not ``_make_engine``, so ``count_costs``
still steps real engines) copies the stored K, Omega and factors into
its outputs in place of the gain pass, and runs the same state pass.
A run that never settles stores nothing, so a later call on its
content builds its engine again: the prelude, from a stored W1 the
engine's own Lyapunov solve, and the start factorization.
Outputs of a warm call are bitwise those of a cold one, errors
included.  What differs: a replaying call charges the active flop
counter only for the arithmetic it does, so for no engine step and
no solve for B, and gives none of the warnings of an engine's start
(say ``to_inverse_state``'s ``LinAlgWarning``); the warnings of the
start's solve come only from the call that computed it.  The public
start functions (``solve_dple``, ``build_prelude``, ``auto_factorize``,
``chand_init``) are not memoized.

The innovations-form Gaussian log-likelihood is the sum of the terms

    -1/2 [ m log 2 pi + log det Omega_t + e_t' Omega_t^{-1} e_t ],

which are formed after the state pass for all steps at once from the
stack of factors: the log-determinants from their diagonals
(``_logdets``), the quadratic forms as ``|L_t^{-1} e_t|^2`` by one
forward substitution vectorized over the steps (``_quadratic_forms``).
No step's term depends on another row, so a settled step's term is
what the engine's own step would have given.

A non-finite innovation raises ``ValueError`` naming its step and
season, after the state pass, at the first such step (a step whose
prediction is not finite counts, since ``y - H'xhat`` would not be
finite there either); when the band finds one, the product per step
runs the pass again and names it, so that no NaN the band's zeros made
from an overflowed entry shows in the message.  The engine has by then
been stepped past it.  When the gain pass fails at step t
(``OmegaNotPD``, ``MSingular``, or ``potrs`` rejecting an argument),
the state pass first runs steps 1..t-1 and raises a non-finite
innovation among them instead, so errors keep the order of the steps.
``filter_series`` charges the active flop counter once per call with
the arithmetic it does itself, at the rates of the metered helpers in
:mod:`periodickf.linalg` (see ``filter_series``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

import numpy as np

from .chandrasekhar import (_m_invertible, _stationary_covariances,
                            auto_factorize, build_prelude, chand_init,
                            step_alg31, step_alg32, step_minv,
                            to_inverse_state)
from .exceptions import (EngineInitFailed, MSingular, OmegaNotPD,
                         ResidualTooLarge)
from .kalman import _covariance_update, solve_dple
from .linalg import (_charge, _potrs, _sym_solve, _tbsv, factor_logdet,
                     factor_solve, spd_factor)
from .model import EIG_FLOOR_RTOL, SYM_RTOL, _sym_psd_violations

# Engine registry: each low-rank engine name maps to its step function.
LOWRANK_STEPS = {"chand31": step_alg31, "chand32": step_alg32,
                 "chand-minv": step_minv}
ENGINES = ("kalman", *LOWRANK_STEPS)
INITS = ("zero-state", "stationary", "explicit")

# Invariants an explicit initial covariance must meet (looser than the
# model-level checks a stored W1 meets: a propagated covariance
# accumulates roundoff).
SIGMA_SYM_RTOL = 1e-10
SIGMA_EIG_FLOOR_RTOL = 1e-8

# A low-rank engine settles only once every term its current (Y, M) would
# add to a ring entry is this far below that entry: 2^-54 (half a unit
# in the last place, relative) times a margin of 2^-20 (see
# ``_ChandEngine``).
SETTLE_MARGIN = 2.0 ** -74

_LOG_2PI = float(np.log(2.0 * np.pi))

# The state pass solves all its steps as one banded system when r + m is
# at most ``_BAND_MAX_P`` (the cutover of the sweep of
# ``tools/state_pass_sweep.py`` in BENCH_30.json: the largest p up to
# which the band is 5% faster in the median of every (n, gains) group of
# its cases), and makes one product per step otherwise; the band
# is solved ``_BAND_STEPS`` steps at a time, rounded up to a multiple of
# S, so its workspace does not grow with n.
_BAND_MAX_P = 15
_BAND_STEPS = 256


@dataclass
class FilterOutput:
    """Per-step filter quantities for t = 1..n.

    ``innovations[t-1]``, ``Omega[t-1]`` and ``K[t-1]`` belong to time
    t; ``xhat[t-1]`` is the prediction entering time t (so ``xhat`` has
    n + 1 rows). ``terms[t-1]`` is time t's log-likelihood term, and
    ``loglik`` their sum. ``sigma_trace[t-1]`` (present on request) is
    the prediction-error covariance at time t. ``settled_at`` is the
    step after which the gains repeat with period S, or None when the
    run never settled: the last step that called the engine, or, on a
    call that replayed a stored gain trajectory (no step called the
    engine), the ``settled_at`` of the call that stored it.
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


def _check_sigma1(Sigma1: np.ndarray, r: int, name: str,
                  sym_rtol: float = SIGMA_SYM_RTOL,
                  eig_floor_rtol: float = SIGMA_EIG_FLOOR_RTOL) -> np.ndarray:
    """``Sigma1`` checked and symmetrized; messages call it ``name``.
    The covariance rule is ``validate``'s, at the given tolerances."""
    Sigma1 = np.asarray(Sigma1, dtype=float)
    if Sigma1.shape != (r, r):
        raise ValueError(f"{name} must be {r}x{r}")
    if not np.all(np.isfinite(Sigma1)):
        raise ValueError(f"{name} is not finite")
    problems = _sym_psd_violations(Sigma1, name, sym_rtol, eig_floor_rtol)
    if problems:
        raise ValueError(problems[0].partition(" (")[0])
    return 0.5 * (Sigma1 + Sigma1.T)


def _initial_conditions(model, init: str, xhat1, Sigma1):
    """``(xhat1, Sigma1, W)``; ``W`` is the list of stationary
    covariances when this start solved for them, else None.  Only an
    ``explicit`` start takes ``xhat1``/``Sigma1`` (else ``ValueError``);
    any other is served from the start memo when the model's content
    matches its key, and otherwise computed and stored there."""
    global _START_MEMO
    if init not in INITS:
        raise ValueError(f"unknown init {init!r}; expected one of {INITS}")
    if init == "explicit":
        if xhat1 is None or Sigma1 is None:
            raise ValueError("explicit init requires xhat1 and Sigma1")
        x = np.asarray(xhat1, dtype=float)
        if x.size != model.r or not np.all(np.isfinite(x)):
            raise ValueError(f"xhat1 must be {model.r} finite values")
        return (x.reshape(model.r), _check_sigma1(Sigma1, model.r, "Sigma1"),
                None)
    if xhat1 is not None or Sigma1 is not None:
        name = "xhat1" if xhat1 is not None else "Sigma1"
        raise ValueError(f"init={init!r} takes no {name}; only "
                         "init='explicit' starts from it")
    x = np.zeros(model.r)
    key = _content_key(model, init)
    memo = _START_MEMO
    if memo is not None and memo.key == key:
        return x, memo.Sigma1, memo.W
    # zero-state takes the model's W1, judged by the rule ``validate``
    # applies, falling back to the stationary covariance when none is
    # stored.
    if init == "zero-state" and model.W1 is not None:
        Sigma1v, W = _check_sigma1(model.W1, model.r, "W1", SYM_RTOL,
                                   EIG_FLOOR_RTOL), None
    else:
        W = solve_dple(model)
        Sigma1v = W[0]
    _START_MEMO = _StartMemo(key, Sigma1v, W, {})
    return x, Sigma1v, W


def _content_key(model, init: str) -> list:
    """The start memo's key: the start kind, the dimensions, and for
    each of the lists F, G, H, Q, R and [W1] (empty without W1) its
    length and each entry's dtype, shape, strides and bytes.  The
    strides are there because a product may round differently on a
    transposed layout of the same values."""
    key = [init, model.S, model.r, model.m, model.d]
    for mats in (model.F, model.G, model.H, model.Q, model.R,
                 [] if model.W1 is None else [model.W1]):
        key.append(len(mats))
        for a in mats:
            a = np.asarray(a)
            key += a.dtype, a.shape, a.strides, a.tobytes()
    return key


@dataclass
class _StartMemo:
    """The start of one model content: the starting covariance and the
    stationary covariances (None when not solved for) that
    ``_initial_conditions`` returns, and per engine name the settled
    gain trajectory of a call from this start: read-only stacks
    ``(K, Omega, L, B)`` of K_t, Omega_t, the Cholesky factor of
    Omega_t and the normalized gain B_t the loop used, for steps 1..T,
    where T = ``len(B)`` is that call's ``settled_at``."""

    key: list
    Sigma1: np.ndarray
    W: list | None
    gains: dict


# The start memo's one slot: the last start computed, or None.
_START_MEMO: _StartMemo | None = None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two matrices of one shape hold the same bits: bitwise
    equality, stricter than ``np.array_equal`` (-0.0 differs from 0.0).
    The first rows are compared before both whole matrices are copied,
    so a pair that differs there costs one row's copy."""
    return (a[0].tobytes() == b[0].tobytes()
            and a.tobytes() == b.tobytes())


class _KalmanEngine:
    """The full covariance recursion.

    Settled once the covariance a step produces, Sigma_{t+1}, equals
    bitwise (``_same_bits``) the one from S steps back,
    Sigma_{t+1-S}.  The PRDE map is deterministic, so from then on every
    step repeats the step one period before it exactly.  ``KtilT`` is
    the ``Omega_t^{-1} K_t'`` the last step solved for.
    """

    alpha = None

    def __init__(self, model, Sigma1):
        self.model = model
        self.Sigma = Sigma1
        self.recent = [None] * model.S      # recent[(u-1) % S] = Sigma_u
        self.settled = False
        self.KtilT = None

    def step(self, t: int):
        Sigma = self.Sigma
        Omega, K, factor, self.Sigma, self.KtilT = _covariance_update(
            self.model, Sigma, t)
        S = self.model.S
        self.recent[(t - 1) % S] = Sigma
        before = self.recent[t % S]         # Sigma_{t+1-S}; None while t < S
        self.settled = before is not None and _same_bits(self.Sigma, before)
        return K, Omega, factor, Sigma


class _ChandEngine:
    """A low-rank increment recursion.  Its step solves for no
    ``Omega^{-1} K'``, so ``KtilT`` is None.

    A step t is quiet when the ring entry it wrote, (K_{t+S},
    Omega_{t+S}), equals bitwise the entry (K_t, Omega_t) it replaced.
    The engine is settled when both hold:

    (a) the last S steps were quiet, so the next S steps return the S
        before them (each factor is a deterministic function of its
        Omega);
    (b) the terms a step with the current (Y, M) would add to each ring
        entry are below its last bit by a margin: for every season s,
        with ``U_s = Y'H_s`` and ``T_s = M U_s``, entrywise
        ``|U_s' T_s| <= SETTLE_MARGIN |Omega_s|`` and
        ``|F_s Y T_s| <= SETTLE_MARGIN |K_s|``.  ``chand-minv``, which
        holds N = M^{-1}, solves ``N T_s = U_s``, and is not settled
        while N fails the ``M_SINGULAR_RTOL`` test (its next step then
        raises ``MSingular``).  An exact zero entry of K or Omega thus
        requires an exact zero term.

    (b) is the sufficient condition this engine enforces for the steps
    after those S, not a proof: Y and M keep moving, and (b) only leaves
    a margin of ``2**-20`` against the increment regrowing (an
    oscillating or non-normal closed loop).  It is checked only once
    (a) holds, one season at a time (each season's ``U_s`` and ``T_s``
    are formed only when the seasons before it have passed), and
    charges no flops.  With a sigma
    trace the engine never settles, because its accumulator keeps adding
    Y M Y' every step.
    """

    KtilT = None

    def __init__(self, model, state, Sigma, variant: str, trace: bool):
        self.model = model
        self.step_fn = LOWRANK_STEPS[variant]
        self.state = state
        self.alpha = state.alpha
        self.acc = [s.copy() for s in Sigma] if trace else None
        self.quiet = 0              # consecutive quiet steps
        self.settled = False

    def step(self, t: int):
        state = self.state
        i = (t - 1) % self.model.S
        (K, Omega), factor = state.ring[i], state.factors[i]
        Sigma = None
        if self.acc is not None:
            Sigma = self.acc[i]
            if state.alpha > 0:         # adding zeros turns -0.0 to 0.0
                self.acc[i] = Sigma + state.increment()
        self.state = state = self.step_fn(self.model, state)
        K_next, Omega_next = state.ring[i]
        # quiet: the entry written holds the bits of the one it replaced
        if (self.acc is None and Omega_next.tobytes() == Omega.tobytes()
                and K_next.tobytes() == K.tobytes()):
            self.quiet += 1
            self.settled = self.quiet >= self.model.S and self._absorbed()
        else:
            self.quiet = 0
            self.settled = False
        return K, Omega, factor, Sigma

    def _absorbed(self) -> bool:
        """Condition (b) on the current state, one season at a time:
        season s forms its own ``U_s`` and ``T_s``, its Omega terms
        before its K terms, and the first comparison that fails ends
        the check (in a quiet but unsettled stretch most checks fail on
        the first season)."""
        state = self.state
        if state.alpha == 0:
            return True
        if state.m_is_inverse and not _m_invertible(state):
            return False
        Y, M = state.Y, state.M
        for (K, Omega), F, H in zip(state.ring, self.model.F, self.model.H):
            U = Y.T.dot(H)
            # an N that passed the singular-value test is too well
            # conditioned for the solve to warn
            T = _sym_solve(M, U) if state.m_is_inverse else M.dot(U)
            if not (_negligible(U.T.dot(T), Omega)
                    and _negligible(F.dot(Y.dot(T)), K)):
                return False
        return True


def _negligible(terms: np.ndarray, entries: np.ndarray) -> bool:
    """Whether ``|terms| <= SETTLE_MARGIN |entries|`` entrywise, by one
    reduction."""
    below = np.abs(terms) <= SETTLE_MARGIN * np.abs(entries)
    return np.count_nonzero(below) == below.size


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; "
                         f"expected one of {ENGINES}")


def _lowrank_start(model, Sigma1, W, variant: str):
    """``(state, Sigma)``: the initial state of a low-rank engine and
    the prelude's per-season covariances (for the sigma trace).  ``W``
    is the caller's outcome of the Lyapunov solve, the stationary
    covariance list or ``[]`` when the model has none; with None the
    start solves for it itself, after the prelude."""
    prelude = build_prelude(model, Sigma1)
    if W is None:
        W = _stationary_covariances(model)
    try:
        factorization = auto_factorize(model, prelude, W=W)
        state = chand_init(model, factorization, prelude)
        if variant == "chand-minv":
            state = to_inverse_state(state)
    except (ResidualTooLarge, MSingular) as exc:
        raise EngineInitFailed(
            f"{variant} engine initialization failed: {exc}") from exc
    return state, prelude.Sigma


def _make_engine(model, engine: str, Sigma1, W, trace: bool):
    """An engine started from ``Sigma1``; ``W`` as for
    ``_lowrank_start``."""
    if engine == "kalman":
        return _KalmanEngine(model, Sigma1)
    return _ChandEngine(model, *_lowrank_start(model, Sigma1, W, engine),
                        engine, trace)


def _coerce_observations(y, m: int) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        if m != 1:
            raise ValueError(f"observations must be (n, {m})")
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != m:
        raise ValueError(f"observations must be (n, {m}), got {arr.shape}")
    finite = np.isfinite(arr)
    if np.count_nonzero(finite) != finite.size:
        t, j = np.argwhere(~finite)[0]
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
        takes ``xhat1``/``Sigma1`` (the other inits refuse them). A
        stored W1 must pass the tolerances of
        :func:`~periodickf.model.validate`; an explicit Sigma1 gets
        looser ones (``SIGMA_SYM_RTOL``, ``SIGMA_EIG_FLOOR_RTOL``), as
        it may be a propagated covariance.
    sigma_trace : also record the per-step covariance Sigma_t; the
        low-rank engines rebuild it from the prelude and their
        increments, ``Sigma_{kS+s} = Sigma_s + sum_j Y_{jS+s} M_{jS+s}
        Y_{jS+s}'`` over j = 0..k-1.

    The stationary covariances are solved for at most once per call,
    and stationarity decided once, by that solve: a low-rank engine
    reuses the solution the start computed, and its closed-form start,
    given it, decides nothing again.

    The start is memoized in one slot, keyed by ``init`` and the
    model's content (see the module docstring): a call on the same
    content as the last start computed (the same model, or one rebuilt
    with the same bits) skips the start's Lyapunov solve and gives
    bitwise the outputs of the call that computed it.  Next to the
    start, the memo keeps each engine's gains up to ``settled_at`` from
    a call that settled without a sigma trace; a later such call with
    that engine replays them, builds and steps no engine, and its
    ``count_flops`` total leaves out the engine's charges and the solve
    for B.  The warnings of the start's solve come only from the call
    that computed it, and a replaying call gives none of an engine
    start's.  An ``explicit`` start and a start that raises are never
    stored.

    Once the engine reports that its gains are exactly S-periodic (see
    the module docstring), the gain pass stops: later steps repeat
    ``(K, Omega, factor, Sigma)`` and the normalized gain of the step
    one period before them.  ``settled_at`` in the output names the
    last step that called the engine (on a replay, the stored call's).
    Every output equals the run that steps the engine to the end, as
    long as the settle condition holds.  A consequence: the gates of
    the steps no longer run cannot raise, so a ``chand-minv`` run whose
    M would drift into ``MSingular`` after ``settled_at`` completes here.
    The settle-condition property test searches for such runs and for
    any other frozen/unfrozen difference; it has found none.

    The active flop counter is charged once per call, at the metered
    helpers' rates, by one formula per form of the state pass, each
    charging the operand its kernel works through, zeros included: per
    step ``2p(2p-1)`` (p = r + m) for the p columns of 2p - 1
    subdiagonals that ``tbsv`` runs over when the band solves the steps
    (r + m at most ``_BAND_MAX_P``), whatever its chunks, else
    ``2p(r+2m)`` for the season matrix times the work row; per step
    ``m^2 + 2m`` for the quadratic form (one triangular sweep and
    ``z'z``); per step that writes its own gain (the first ``min(T,
    n)``) ``2m^2 r`` for ``-H'B``; per step that called a low-rank engine
    ``2m^2 r`` for the solve for ``Omega^{-1} K'`` (``kalman`` hands it
    over); and once, for n > 0, ``2mr^2`` per season for ``-H'F`` and
    ``2rm + m`` for ``e_1``.  The engines charge their own
    steps; a replaying call steps no engine, so it charges the state
    pass's arithmetic alone.

    Raises ``ValueError`` naming an unknown engine (before any other
    check or solve), an ``xhat1`` or ``Sigma1`` given to an init other
    than ``explicit`` (before any solve), the first non-finite
    observation or the first non-finite innovation (say from a huge
    explicit ``xhat1``) with its step and season, ``NotStationary``
    when a stationary start is requested from a model without one,
    ``EngineInitFailed`` when a low-rank engine's start factorization
    fails, and ``OmegaNotPD`` (or ``MSingular`` from ``chand-minv``)
    from the recursions.  These last two carry the step ``t`` and
    ``season`` during which they were raised; a low-rank engine forms
    Omega_{t+S} in step t, so it stops one period earlier than
    ``kalman`` on the same singular Omega.  A non-finite innovation at
    an earlier step than such an error is raised instead of it.
    """
    _check_engine(engine)
    y2 = _coerce_observations(y, model.m)
    n = y2.shape[0]
    x1, Sigma1v, W = _initial_conditions(model, init, xhat1, Sigma1)
    # the memo this start came from: none with a sigma trace, nor for an
    # explicit start (its Sigma1 is no memo's)
    memo = _START_MEMO
    if sigma_trace or memo is None or memo.Sigma1 is not Sigma1v:
        memo = None
    gains = memo.gains.get(engine) if memo is not None else None
    eng = (None if gains is not None
           else _make_engine(model, engine, Sigma1v, W, sigma_trace))

    m, r, S = model.m, model.r, model.S
    Omegas = np.empty((n, m, m))
    Ks = np.empty((n, r, m))
    sigmas = np.empty((n, r, r)) if sigma_trace else None
    Ls = np.empty((n, m, m))    # the Cholesky factors of the Omegas
    if eng is None:
        # a replay of the stored T = settled_at steps
        Bs = gains[3]
        T = len(Bs)
        for out, stored in zip((Ks, Omegas, Ls), gains):
            out[:T] = stored[:n]
        settled_at = T if T <= n else None
    else:
        Bs = np.empty((n, r, m))
        T, error = _gain_pass(eng, model, Ks, Omegas, Ls, Bs, sigmas)
        if error is not None:
            # a non-finite innovation of the steps before raises first
            _state_pass(model, y2[:T], x1, Bs[:T])
            raise error
        settled_at = T if eng.settled else None
        if memo is not None and settled_at is not None:
            stored = tuple(a[:T].copy() for a in (Ks, Omegas, Ls, Bs))
            for a in stored:
                a.flags.writeable = False
            memo.gains[engine] = stored
    xhat, innovations = _state_pass(model, y2, x1, Bs[:T])
    if settled_at is not None:
        # each settled step repeats the step one period before it
        # (settled_at >= S: an engine settles after S steps at the soonest)
        for j in range(settled_at, min(settled_at + S, n)):
            for out in (Omegas, Ks, Ls, sigmas):
                if out is not None:
                    out[j::S] = out[j - S]
    terms = -0.5 * (m * _LOG_2PI + _logdets(Ls)
                    + _quadratic_forms(Ls, innovations))
    # every step: its p columns of the band (2p - 1 subdiagonals each)
    # or the season matrix times the work row, and the quadratic form
    # (a triangular sweep and z'z); every step that wrote its gain:
    # -H'B; every low-rank engine step: B = K Omega^{-1}; once (n > 0):
    # -H'F per season and e_1
    p = r + m
    update = 2*p*(2*p-1) if p <= _BAND_MAX_P else 2*p*(p+m)
    solves = T if isinstance(eng, _ChandEngine) else 0
    _charge(n * (update + m*m + 2*m) + min(T, n) * 2*m*m*r
            + solves * 2*m*m*r + (S * 2*m*r*r + 2*r*m + m if n else 0))

    return FilterOutput(engine=engine, n=n, innovations=innovations,
                        Omega=Omegas, K=Ks, xhat=xhat,
                        loglik=float(np.sum(terms)), sigma_trace=sigmas,
                        terms=terms, settled_at=settled_at)


def _gain_pass(eng, model, Ks, Omegas, Ls, Bs, sigmas):
    """Step ``eng`` from step 1 until it settles or the stacks are
    full, writing step t's K_t, Omega_t, the Cholesky factor of
    Omega_t, the normalized gain B_t and (with a trace) Sigma_t into
    row t - 1 of ``Ks``, ``Omegas``, ``Ls``, ``Bs`` and ``sigmas``.
    ``(T, error)``: the number T of steps made, and None or the
    ``OmegaNotPD``, ``MSingular`` or ``ValueError`` that step T + 1
    raised, naming that step and its season."""
    for t in range(1, len(Bs) + 1):
        try:
            K, Omega, factor, Sigma = eng.step(t)
        except (OmegaNotPD, MSingular) as exc:
            exc.locate(t, model.season(t))
            return t - 1, exc
        KtilT = eng.KtilT                       # Omega_t^{-1} K_t'
        if KtilT is None:
            KtilT, info = _potrs(factor[0], K.T, factor[1])
            if info:
                return t - 1, ValueError(
                    f"potrs: illegal value in argument {-info} at t={t} "
                    f"(season {model.season(t)})")
        Bs[t - 1] = KtilT.T
        Ls[t - 1] = factor[0]
        Omegas[t - 1] = Omega
        Ks[t - 1] = K
        if sigmas is not None:
            sigmas[t - 1] = Sigma
        if eng.settled:
            return t, None
    return len(Bs), None


def _state_pass(model, y: np.ndarray, x1: np.ndarray, B: np.ndarray):
    """``(xhat, innovations)`` of the state update over the rows of
    ``y`` from ``xhat[1] = x1``, with the normalized gains B_1..B_T of
    ``B`` (those past the rows of ``y`` unused) and then its last S
    cycled.  Each step t maps ``z_t = [xhat[t]; e_t]`` to ``z_{t+1} =
    A_t z_t + [0; y[t+1]]`` (``y[n+1] = 0``), with its season's ``A_t
    = [[F_s, B_t], [-H_{s+1}' F_s, -H_{s+1}' B_t]]``.  When r + m is
    at most ``_BAND_MAX_P`` all steps are one banded solve
    (``_band_pass``).  Otherwise row t - 1 of a work array holds
    ``[xhat[t], e_t, y[t+1]]``, and step t writes ``z_{t+1}`` into row t
    as one product with the season matrix ``[A_t, [0; I]]``; steps 1..T
    first write ``B_t`` and ``-H_{s+1}' B_t`` into that matrix, later
    steps find the last period's there.  Raises ``ValueError`` at the
    first step whose prediction or innovation is not finite (where
    ``y - H'xhat`` would not be), named by this loop also when the band
    found it, so that the printed innovation carries no NaN made by a
    zero of the band times an overflowed entry."""
    (n, m), r, S = y.shape, model.r, model.S
    if n == 0:
        return np.reshape(x1, (1, r)).copy(), np.empty((0, m))
    e1 = y[0] - model.H[0].T.dot(x1)
    negHT = [-model.H[(s + 1) % S].T for s in range(S)]
    negHF = [h.dot(F) for h, F in zip(negHT, model.F)]
    T = min(len(B), n)
    if r + m <= _BAND_MAX_P:
        z = _band_pass(model, y, x1, e1, B[:T], negHT, negHF)
        finite = np.isfinite(z[:n])
        if np.count_nonzero(finite) == finite.size:
            return z[:, :r].copy(), z[:n, r:].copy()
    work = np.zeros((n + 1, r + 2 * m))
    work[0, :r] = x1
    work[0, r:r + m] = e1
    work[:n - 1, r + m:] = y[1:]
    # season -> (M.dot, (-H_{s+1}').dot, M's B block, M's -H'B block)
    seasons = []
    for F, h, hF in zip(model.F, negHT, negHF):
        M = np.zeros((r + m, r + 2 * m))
        M[:r, :r] = F
        M[r:, :r] = hF
        M[r:, r + m:] = np.eye(m)
        seasons.append((M.dot, h.dot, M[:r, r:r + m], M[r:, r:r + m]))
    nexts = work[1:, :r + m]        # step t writes row t from row t - 1
    for (M_dot, negHT_dot, B_block, HB_block), Bt, row, nxt in zip(
            cycle(seasons), B[:T], work, nexts):
        B_block[...] = Bt
        HB_block[...] = negHT_dot(Bt)
        M_dot(row, nxt)
    k = T % S                       # the season of step T + 1
    M_dots = [s[0] for s in seasons[k:] + seasons[:k]]
    for M_dot, row, nxt in zip(cycle(M_dots), work[T:n], nexts[T:]):
        M_dot(row, nxt)
    finite = np.isfinite(work[:n, :r + m])
    if np.count_nonzero(finite) != finite.size:
        t = 1 + int(np.argwhere(~finite)[0, 0])
        raise ValueError(f"innovation at t={t} (season {model.season(t)}) "
                         f"is not finite ({work[t - 1, r:r + m]!r})")
    return work[:, :r].copy(), work[:n, r:r + m].copy()


def _band_pass(model, y, x1, e1, B, negHT, negHF) -> np.ndarray:
    """The (n + 1) x (r + m) rows ``z_t = [xhat[t]; e_t]`` of
    ``_state_pass``, from ``z_1 = [x1; e1]``, as the unit lower
    triangular block-bidiagonal system ``z_{t+1} - A_t z_t = [0;
    y[t+1]]`` in BLAS band storage (2p - 1 subdiagonals, p = r + m),
    solved by ``tbsv`` in chunks of C steps, the multiple of S from
    ``_BAND_STEPS``: a chunk's first block is the last of the chunk
    before it, and every chunk starts in season 1.  ``B`` holds
    B_1..B_T; step t > T takes the B of step t - kS in the last period.

    In the column-major band, entry (i, j) of step tau's ``-A`` block
    (tau = 0.. within its chunk) is element ``p + i + j(2p - 1) + tau
    2p^2``, so one strided view addresses all of them.  Each season's
    F blocks are written once.  The gain blocks ``-[B_t; -H_{s+1}'
    B_t]`` are stacked once (``-H'B`` by one ``matmul`` per season) and
    written per chunk, a slice for the steps up to T and one assignment
    per season for the cycled ones; the chunks after the first one past
    T reuse its band.  Values may be non-finite; the caller checks."""
    (n, m), r, S = y.shape, model.r, model.S
    p, T = r + m, len(B)
    z = np.zeros((n + 1, p))
    z[0, :r], z[0, r:] = x1, e1
    z[1:n, r:] = y[1:]
    gains = np.empty((T, p, m))
    gains[:, :r] = B
    for s, h in enumerate(negHT):
        gains[s::S, r:] = np.matmul(h, B[s::S])
    np.negative(gains, out=gains)
    C = -(-_BAND_STEPS // S) * S
    ab = np.zeros((2 * p, (min(C, n) + 1) * p), order="F")
    size = ab.itemsize
    # ab.T, C-contiguous, exports ab's memory in column-major order
    blocks = np.ndarray((min(C, n), p, p), buffer=ab.T, offset=p * size,
                        strides=(2 * p * p * size, size, (2 * p - 1) * size))
    for s, (F, hF) in enumerate(zip(model.F, negHF)):
        blocks[s::S, :r, :r] = -F
        blocks[s::S, r:, :r] = -hF
    settled = False                 # the band holds a chunk past T
    zf = z.reshape(-1)
    for t0 in range(0, n, C):
        c = min(C, n - t0)
        if not settled:
            k = min(max(T - t0, 0), c)      # steps with their own gains
            blocks[:k, :, r:] = gains[t0:t0 + k]
            for j in range(k, min(k + S, c)):
                blocks[j:c:S, :, r:] = gains[T - S + (t0 + j - T) % S]
            settled = k == 0
        _tbsv(2 * p - 1, ab[:, :(c + 1) * p], zf, offx=t0 * p, lower=1,
              diag=1, overwrite_x=1)
    return z


def _logdets(L: np.ndarray) -> np.ndarray:
    """``log det Omega_t`` for each t, from the stack of lower Cholesky
    factors ``L[t]`` of Omega_t, as ``factor_logdet`` forms it."""
    return 2.0 * np.log(L.diagonal(axis1=1, axis2=2)).sum(axis=1)


def _quadratic_forms(L: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``e[t]' Omega_t^{-1} e[t]`` for each t, as ``|z_t|^2`` with
    ``L[t] z_t = e[t]`` solved by forward substitution for all t at
    once (``L[t]`` is the lower Cholesky factor of Omega_t; its upper
    triangle is not read).  Every operation is elementwise across t, so
    each row's result depends on that row alone."""
    z = np.empty_like(e)
    for k in range(e.shape[1]):
        acc = e[:, k]
        for j in range(k):
            acc = acc - L[:, k, j] * z[:, j]
        z[:, k] = acc / L[:, k, k]
    return (z * z).sum(axis=1)


def gaussian_loglik(output: FilterOutput) -> float:
    """Innovations-form Gaussian log-likelihood, recomputed from the
    stored innovations and Omegas; an empty series has log-likelihood 0.

    An independent check of ``FilterOutput.loglik``: it gates and
    factors every Omega again and solves step by step, sharing no code
    with the loop's batched terms beyond ``spd_factor``.  It costs a
    factorization per step, so the loop does not use it."""
    terms = []
    for e, Omega in zip(output.innovations, output.Omega):
        factor = spd_factor(Omega)
        terms.append(-0.5 * (e.size * _LOG_2PI + factor_logdet(factor)
                             + float(e @ factor_solve(factor, e))))
    return float(np.sum(terms))
