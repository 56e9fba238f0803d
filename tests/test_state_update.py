"""The state update and log-likelihood terms of ``filter_series``.

The state pass advances ``z = [xhat; e]`` by ``A = [[F, B], [-H_next'
F, -H_next' B]]`` per step (the normalized gain ``B = K Omega^{-1}``,
``H_next`` of the next season), as one banded solve over all steps
when r + m is at most its cutover and as one product per step, each
season's matrix ``[A, [0; I]]`` times the work row ``[xhat_t, e_t,
y_{t+1}]``, above it; it forms the terms after the pass from the stack
of Omega factors.  The flop cases and series-length edges run on both
sides of the cutover, which must agree to ``PATH_TOL``.
``conftest.innovation_form_filter`` is the reference it replaced: per
step ``w = Omega^{-1} e`` and ``x = F x + K w`` through the metered
helpers, and each term from that ``w``.  The gains are the engines' and
must not move at all; the predictions, innovations and log-likelihood
are the same filter evaluated in another order, held to fixed bounds.
On the randomized draws the loop must also be no less accurate than
the reference, both measured against the reference's recursion run in
extended precision.  (The draw space holds models on which float64
misses the fixed bounds in either order, such as an ill-conditioned
non-normal F; the derandomized sample below holds none.)
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import periodickf.filtering as filtering_module
import periodickf.linalg as linalg_module
from periodickf import (ENGINES, PeriodicFilterError, PeriodicModel,
                        filter_series, load_model, simulate)
from periodickf.filtering import _initial_conditions, _make_engine
from conftest import (ROOT, assert_bitwise_equal, benchmark_round,
                      innovation_form_filter, pinned_state_model,
                      random_stationary_model, unfrozen_filter)
from test_filtering import _flop_case
from test_steady_gain import drawn_case, outcome

STATIONARY_S2 = ROOT / "demos" / "models" / "stationary_s2.json"

# of the largest entry of the reference array
XHAT_INNOVATION_TOL = 1e-9
LOGLIK_RTOL = 1e-11
# against extended precision: at most this multiple of the reference's
# error, plus a floor relative to the largest entry (or |loglik|)
ACCURACY_FACTOR = 2.0
ACCURACY_FLOOR = 1e-12
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def first_settled_step(model, y, engine, kwargs):
    """The first step after which a fresh engine, stepped on its own,
    reports ``settled``; None when it never does within ``len(y)``."""
    _, Sigma1, W = _initial_conditions(model, kwargs.get("init", "zero-state"),
                                       kwargs.get("xhat1"),
                                       kwargs.get("Sigma1"))
    eng = _make_engine(model, engine, Sigma1, W, False)
    for t in range(1, len(y) + 1):
        eng.step(t)
        if eng.settled:
            return t
    return None


def deviations(out, ref):
    """(xhat, innovations) deviations relative to the largest entry of
    ``ref``'s, and the relative log-likelihood deviation; ``ref`` is a
    ``FilterOutput`` or a tuple ``(xhat, innovations, loglik)``."""
    if not isinstance(ref, tuple):
        ref = ref.xhat, ref.innovations, ref.loglik

    def rel(got, want):
        scale = float(np.max(np.abs(want), initial=0.0))
        diff = float(np.max(np.abs(got - want), initial=0.0))
        return diff / scale if scale > 0.0 else diff
    xhat, innovations, loglik = ref
    return (rel(out.xhat, xhat), rel(out.innovations, innovations),
            float(abs(out.loglik - loglik) / abs(loglik))
            if loglik != 0.0 else abs(out.loglik))


def extended_innovation_form(model, y, ref):
    """``innovation_form_filter``'s recursion on ``ref``'s K and Omega
    and start, in extended precision (numpy's long double): per step
    ``e = y - H'x``, ``w = Omega^{-1} e`` by Gaussian elimination,
    ``x = F x + K w`` and the term.  Returns (xhat, innovations,
    loglik)."""
    ext = np.longdouble
    n, m = ref.innovations.shape
    xhat = np.empty(ref.xhat.shape, dtype=ext)
    innovations = np.empty((n, m), dtype=ext)
    x = ref.xhat[0].astype(ext)
    loglik = ext(0)
    for t in range(n):
        s = t % model.S
        xhat[t] = x
        e = y[t].astype(ext) - model.H[s].T.astype(ext) @ x
        innovations[t] = e
        A, b = ref.Omega[t].astype(ext), e.copy()
        for k in range(m):
            for i in range(k + 1, m):
                f = A[i, k] / A[k, k]
                A[i, k:] -= f * A[k, k:]
                b[i] -= f * b[k]
        w = np.zeros(m, dtype=ext)
        for k in reversed(range(m)):
            w[k] = (b[k] - A[k, k + 1:] @ w[k + 1:]) / A[k, k]
        x = model.F[s].astype(ext) @ x + ref.K[t].astype(ext) @ w
        loglik -= 0.5 * (m * np.log(2 * ext(np.pi))
                         + np.log(np.prod(A.diagonal())) + e @ w)
    xhat[n] = x
    return xhat, innovations, loglik


def assert_same_filter(model, y, engine, kwargs, accuracy=False):
    """K, Omega and ``settled_at`` exact; xhat, innovations and loglik
    within the fixed bounds and, with ``accuracy``, no further from the
    extended-precision recursion than the reference is."""
    out = outcome(filter_series, model, y, engine, kwargs)
    ref = outcome(innovation_form_filter, model, y, engine, kwargs)
    if isinstance(out, tuple) or isinstance(ref, tuple):
        assert out == ref, engine
        return
    assert out.K.tobytes() == ref.K.tobytes(), engine
    assert out.Omega.tobytes() == ref.Omega.tobytes(), engine
    assert out.settled_at == first_settled_step(model, y, engine, kwargs)
    xhat, innovations, loglik = deviations(out, ref)
    assert xhat <= XHAT_INNOVATION_TOL, (engine, xhat)
    assert innovations <= XHAT_INNOVATION_TOL, (engine, innovations)
    assert loglik <= LOGLIK_RTOL, (engine, loglik)
    if not accuracy:
        return
    exact = extended_innovation_form(model, y, ref)
    for name, got, want in zip(("xhat", "innovations", "loglik"),
                               deviations(out, exact),
                               deviations(ref, exact)):
        assert got <= ACCURACY_FACTOR * want + ACCURACY_FLOOR, \
            (engine, name, got, want)


# Series-length edges of the state pass, each at m = 1 and m = 2: n = 0,
# 1, 2, S and S + 1 (no step settled); n = settled_at and settled_at + 1
# (an empty and a one-step settled stretch); a warm call shorter than the
# stored trajectory; a gain pass that fails at step t, so that the
# state pass covers steps 1..t-1 only, with no overflow or with an
# innovation overflowing at step t - 1; and the band's chunk edges: n =
# C - 1, C, C + 1 and 2C + S - 1 for its C steps per solve, and
# settled_at just before and just after the first edge, the band then
# solving 3C + 1 steps in chunks of the multiple of S next to it.
SERIES_EDGES = [f"{kind}-m{m}" for m in (1, 2) for kind in (
    "n=0", "n=1", "n=2", "n=S", "n=S+1", "n=settled_at", "n=settled_at+1",
    "warm-prefix", "gain-fails", "gain-fails-overflow", "n=C-1", "n=C",
    "n=C+1", "n=2C+S-1", "settled-before-edge", "settled-after-edge")]

# ``filtering._BAND_MAX_P`` putting every case on one side of the
# state pass's cutover
PATHS = {"band": 10 ** 6, "loop": 0}
# the band and loop forms against each other, of the largest entry (or
# |loglik|)
PATH_TOL = 1e-13


def pinned_model(m: int) -> PeriodicModel:
    """``pinned_state_model()`` at m = 2; at m = 1 its scalar analogue:
    a fixed state observed with unit noise in season 1 and without
    noise in season 2, whose Omega_4 is exactly 0."""
    if m == 2:
        return pinned_state_model()
    one, zero = np.eye(1), np.zeros((1, 1))
    return PeriodicModel(S=2, r=1, m=1, d=1, F=[one] * 2, G=[zero] * 2,
                         H=[one] * 2, Q=[one] * 2, R=[one, zero], W1=one)


def fixed_case(name: str, engine: str):
    """``(model, y, kwargs, prior, steps)``: a flop case or a
    series-length edge for ``engine``; ``prior`` is None or the series
    of a call to make first, whose stored gain trajectory the call on
    ``y`` replays, and ``steps`` None or the band's steps per solve
    (``filtering._BAND_STEPS``) the case takes."""
    if name in ("stationary_s2", "par4-r48", "m2-r12"):
        return (*_flop_case(name), {}, None, None)
    kind, m = name.rsplit("-m", 1)
    if kind.startswith("gain-fails"):
        model = pinned_model(int(m))
        y = np.zeros((6, model.m))
        kwargs = dict(init="explicit", xhat1=np.zeros(model.r),
                      Sigma1=np.eye(model.r))
        failed = outcome(filter_series, model, y, engine, kwargs)
        if kind.endswith("overflow") and isinstance(failed, tuple):
            t = failed[1] - 1       # the last step the state pass covers
            if t == 1:
                kwargs["xhat1"] = np.full(model.r, 1.7e308)
            else:
                y[t - 2] = 1.7e308
            y[t - 1] = -1.7e308
        return model, y, kwargs, None, None
    model = random_stationary_model(60, r=2, S=3, m=int(m))
    S = model.S
    if "C" in kind or "edge" in kind:
        y = simulate(model, 1000, seed=62)[1]
        if kind.endswith("edge"):
            settled_at = first_settled_step(model, y, engine, {})
            edge = S * (settled_at // S + 1 if "before" in kind
                        else (settled_at - 1) // S)
            return model, y[:3 * edge + 1], {}, None, edge
        C = -(-filtering_module._BAND_STEPS // S) * S
        n = {"n=C-1": C - 1, "n=C": C, "n=C+1": C + 1,
             "n=2C+S-1": 2 * C + S - 1}[kind]
        return model, y[:n], {}, None, None
    y = simulate(model, 100, seed=61)[1]
    settled_at = first_settled_step(model, y, engine, {})
    n = {"n=0": 0, "n=1": 1, "n=2": 2, "n=S": 3, "n=S+1": 4,
         "n=settled_at": settled_at, "n=settled_at+1": settled_at + 1,
         "warm-prefix": 4}[kind]
    return model, y[:n], {}, y if kind == "warm-prefix" else None, None


def guarded(filter_fn, model, y, engine, kwargs):
    """``filter_fn``'s output, or the type, step and message of the
    package error or ``ValueError`` it raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return filter_fn(model, y, engine=engine, **kwargs)
        except (PeriodicFilterError, ValueError) as exc:
            return type(exc).__name__, getattr(exc, "t", None), str(exc)


def assert_frozen_equals_unfrozen(model, y, engine, kwargs):
    """``filter_series`` gives bitwise the outputs of the run that steps
    the engine at every t, or the same error at the same step."""
    out = guarded(filter_series, model, y, engine, kwargs)
    ref = guarded(unfrozen_filter, model, y, engine, kwargs)
    if isinstance(out, tuple) or isinstance(ref, tuple):
        assert out == ref, engine
    else:
        assert_bitwise_equal(out, ref)


def assert_paths_agree(model, y, engine, kwargs, monkeypatch):
    """The band and loop forms of the state pass give K, Omega and
    ``settled_at`` bitwise, xhat and the innovations within
    ``PATH_TOL`` of their largest entry and the log-likelihood within
    ``PATH_TOL`` relative; or the same error (type, step, season and
    message)."""
    runs = {}
    for path, limit in PATHS.items():
        monkeypatch.setattr(filtering_module, "_BAND_MAX_P", limit)
        runs[path] = guarded(filter_series, model, y, engine, kwargs)
    band, loop = runs["band"], runs["loop"]
    if isinstance(band, tuple) or isinstance(loop, tuple):
        assert band == loop, engine
        return
    assert band.K.tobytes() == loop.K.tobytes(), engine
    assert band.Omega.tobytes() == loop.Omega.tobytes(), engine
    assert band.settled_at == loop.settled_at, engine
    assert max(deviations(band, loop)) <= PATH_TOL, (engine,
                                                     deviations(band, loop))


class TestInnovationFormReference:
    """``filter_series`` against the innovation-form filter it
    replaced: K and Omega bitwise, ``settled_at`` where the engine
    settles; xhat and innovations within 1e-9 of their largest entry
    and the log-likelihood within 1e-11 relative; on the random draws
    also no less accurate than the reference.  On the flop cases and
    the series-length edges, in either form of the state pass, also
    bitwise the run that steps the engine at every t (or its error),
    and the band form within ``PATH_TOL`` of the product per step."""

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("workload",
                             ["long-s2", "wide-par48", "estimate-m2"])
    def test_workload_rounds(self, workload, k):
        rd = benchmark_round(workload, 1, k)
        for engine in ENGINES:
            assert_same_filter(rd.model, rd.y, engine, {})

    @pytest.mark.parametrize("path", list(PATHS))
    @pytest.mark.parametrize("case", ["stationary_s2", "par4-r48", "m2-r12",
                                      *SERIES_EDGES])
    def test_flop_cases(self, case, path, monkeypatch):
        for engine in ENGINES:
            filtering_module._START_MEMO = None
            model, y, kwargs, prior, steps = fixed_case(case, engine)
            if steps is not None:
                monkeypatch.setattr(filtering_module, "_BAND_STEPS", steps)
            if prior is not None:
                filter_series(model, prior, engine=engine, **kwargs)
            if path == "band":
                assert_paths_agree(model, y, engine, kwargs, monkeypatch)
            monkeypatch.setattr(filtering_module, "_BAND_MAX_P",
                                PATHS[path])
            assert_frozen_equals_unfrozen(model, y, engine, kwargs)
            if "overflow" in case:
                continue    # the reference does not check innovations
            assert_same_filter(model, y, engine, kwargs)

    # the settle property's draws, a fixed derandomized sample
    @pytest.mark.skipif(not EXTENDED, reason="long double is float64 here")
    @settings(max_examples=12, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.generate])
    @given(seed=st.integers(0, 10_000), r=st.integers(2, 8),
           S=st.integers(1, 6), m=st.integers(1, 3),
           radius=st.floats(0.3, 1.05),
           noise=st.sampled_from(["full", "ill", "zero"]),
           nonnormal=st.booleans(),
           init=st.sampled_from(["zero-state", "stationary", "explicit"]))
    def test_drawn_cases(self, seed, r, S, m, radius, noise, nonnormal, init):
        model, y, kwargs = drawn_case(seed, r, S, m, radius, noise,
                                      nonnormal, init)
        for engine in ENGINES:
            assert_same_filter(model, y, engine, kwargs, accuracy=True)


class TestSettledStepsSolveNothing:
    """A settled step makes no solve and does not step the engine: over
    2000 steps the loop's ``Omega^{-1} K'`` solves and the engine steps
    both number ``settled_at``.  ``kalman`` hands over the solve its
    covariance update made, so the loop makes none for it and LAPACK's
    ``potrs`` runs once per engine step."""

    @pytest.fixture
    def potrs_log(self, monkeypatch):
        """Calls of ``potrs`` by the filter loop and by the package's
        other solves."""
        log = {"loop": 0, "linalg": 0}

        def counted(key, potrs):
            def call(*args, **kwargs):
                log[key] += 1
                return potrs(*args, **kwargs)
            return call

        monkeypatch.setattr(filtering_module, "_potrs",
                            counted("loop", filtering_module._potrs))
        monkeypatch.setattr(linalg_module, "_potrs",
                            counted("linalg", linalg_module._potrs))
        return log

    @pytest.mark.parametrize("engine", ENGINES)
    def test_solves_and_steps(self, engine, step_log, potrs_log):
        model = load_model(STATIONARY_S2)
        y = simulate(model, 2000, seed=11)[1]
        out = filter_series(model, y, engine=engine)
        assert out.settled_at is not None and out.settled_at < 100
        assert len(step_log) == out.settled_at
        if engine == "kalman":
            assert potrs_log == {"loop": 0, "linalg": out.settled_at}
        else:
            assert potrs_log["loop"] == out.settled_at
