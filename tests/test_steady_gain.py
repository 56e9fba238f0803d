"""The steady-gain switch of ``filter_series``.

Once an engine reports that its ``(K, Omega, factor, Sigma)`` sequence is
exactly S-periodic, the loop serves those values from a per-season cache
and stops calling the engine.  Every output must stay bitwise equal to
the run that steps the engine to the end (``conftest.unfrozen_filter``).
"""

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from periodickf import (ENGINES, PeriodicFilterError, filter_series,
                        load_model, par_to_state_space,
                        random_stationary_par, simulate)
from conftest import (ROOT, assert_bitwise_equal, benchmark_round,
                      random_stationary_model, unfrozen_filter)

LOWRANK = ENGINES[1:]
STATIONARY_S2 = ROOT / "demos" / "models" / "stationary_s2.json"


def stationary_s2(n: int, seed: int):
    model = load_model(STATIONARY_S2)
    return model, simulate(model, n, seed=seed)[1]


class TestWorkloads:
    # the runs that never settle: kalman's covariance on estimate-m2 is
    # not bitwise periodic within its 200 steps
    UNSETTLED = {("estimate-m2", "kalman")}

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload",
                             ["long-s2", "wide-par48", "estimate-m2"])
    def test_round0_matches_unfrozen(self, workload, engine):
        rd = benchmark_round(workload, 1, 0)
        out = filter_series(rd.model, rd.y, engine=engine)
        assert_bitwise_equal(out, unfrozen_filter(rd.model, rd.y,
                                                  engine=engine))
        assert ((out.settled_at is None)
                == ((workload, engine) in self.UNSETTLED))


class TestSettling:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_stationary_s2_settles_and_stops_stepping(self, engine,
                                                      step_log):
        model, y = stationary_s2(2000, seed=11)
        out = filter_series(model, y, engine=engine)
        assert out.settled_at is not None
        assert step_log == list(range(1, out.settled_at + 1))

    @pytest.mark.parametrize("engine", LOWRANK)
    def test_lowrank_sigma_trace_never_settles(self, engine, step_log):
        model, y = stationary_s2(300, seed=12)
        assert filter_series(model, y, engine=engine).settled_at is not None
        del step_log[:]
        out = filter_series(model, y, engine=engine, sigma_trace=True)
        assert out.settled_at is None
        assert step_log == list(range(1, 301))
        assert_bitwise_equal(out, unfrozen_filter(model, y, engine=engine,
                                                  sigma_trace=True))

    def test_kalman_sigma_trace_settles(self):
        # kalman's covariance is itself periodic once settled
        model, y = stationary_s2(300, seed=12)
        out = filter_series(model, y, sigma_trace=True)
        assert out.settled_at is not None
        assert_bitwise_equal(out, unfrozen_filter(model, y,
                                                  sigma_trace=True))

    def test_minv_takes_singular_values_once_per_state(self, monkeypatch):
        # the settle test after step t and the invertibility gate at the
        # start of step t + 1 read the same N; on this round the settle
        # test runs on dozens of steps before it passes
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rd = benchmark_round("estimate-m2", 1, 0)
        out = filter_series(rd.model, rd.y, engine="chand-minv")
        # M before its inversion, the N entering each step, and the N the
        # last step made
        assert out.settled_at is not None
        assert len(calls) == out.settled_at + 2


def _scaled_to_radius(F: list, radius: float) -> list:
    # scaling every F_s by c scales the monodromy radius by c**S exactly
    Phi = np.eye(F[0].shape[0])
    for f in F:
        Phi = f @ Phi
    c = (radius / float(np.max(np.abs(np.linalg.eigvals(Phi))))) \
        ** (1.0 / len(F))
    return [c * f for f in F]


def drawn_case(seed, r, S, m, radius, noise, nonnormal, init):
    """A model, an observation series long enough to settle, and the
    start keywords.  ``noise`` is ``full``, ``ill`` (R eigenvalues
    spread over 8 decades) or ``zero`` (a PAR embedding, m = 1);
    ``nonnormal`` conjugates every F_s by one ill-conditioned unit upper
    triangular matrix; a radius of at least one takes an explicit
    start."""
    rng = np.random.default_rng(seed)
    if noise == "zero":
        model = par_to_state_space(random_stationary_par(S, r, seed))
    else:
        model = random_stationary_model(seed, r=r, S=S, m=m, radius=radius)
        if noise == "ill":
            model.R = [np.diag(np.logspace(-8, 0, m))] * S
    F = model.F
    if nonnormal:
        T = np.eye(r) + np.triu(3.0 * rng.normal(size=(r, r)), 1)
        F = [T @ f @ np.linalg.inv(T) for f in F]
    model.F = _scaled_to_radius(F, radius)
    if radius >= 1.0 and init == "stationary":
        init = "explicit"
    kwargs = dict(init=init)
    if init == "zero-state":
        model.W1 = np.eye(r)
    elif init == "explicit":
        A = rng.normal(size=(r, r))
        kwargs.update(xhat1=np.zeros(r), Sigma1=A @ A.T / r)
    y = simulate(model, 300 + 20 * S, seed=seed + 1)[1]
    return model, y, kwargs


def outcome(run, model, y, engine, kwargs):
    """The run's output, or the type, step and message of the package
    error it raised."""
    try:
        return run(model, y, engine=engine, **kwargs)
    except PeriodicFilterError as exc:
        return type(exc).__name__, getattr(exc, "t", None), str(exc)


class TestSettleProperty:
    """Tries to break the low-rank settle condition: the frozen run must
    equal the unfrozen one bitwise, or both must raise the same error at
    the same step (an unfrozen run that raises after ``settled_at`` is a
    real difference and fails here)."""

    # no shrink phase: a failing draw is reported as drawn, in seconds
    @settings(max_examples=24, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.generate])
    @given(seed=st.integers(0, 10_000), r=st.integers(2, 8),
           S=st.integers(1, 6), m=st.integers(1, 3),
           radius=st.floats(0.3, 1.05),
           noise=st.sampled_from(["full", "ill", "zero"]),
           nonnormal=st.booleans(),
           init=st.sampled_from(["zero-state", "stationary", "explicit"]))
    @example(seed=52, r=4, S=52, m=1, radius=0.9, noise="full",
             nonnormal=False, init="stationary")
    # an oscillating Y whose norm did not grow over the period at the
    # first quiet steps: K changed again four steps after a settle
    # condition without a decay margin
    @example(seed=0, r=6, S=2, m=1, radius=0.8590988452917441, noise="full",
             nonnormal=True, init="zero-state")
    # chand-minv raises MSingular during step 2, located in both runs
    @example(seed=1, r=7, S=2, m=1, radius=1.0, noise="full",
             nonnormal=True, init="zero-state")
    def test_frozen_equals_unfrozen(self, seed, r, S, m, radius, noise,
                                    nonnormal, init):
        model, y, kwargs = drawn_case(seed, r, S, m, radius, noise,
                                      nonnormal, init)
        for engine in ENGINES:
            out = outcome(filter_series, model, y, engine, kwargs)
            ref = outcome(unfrozen_filter, model, y, engine, kwargs)
            if isinstance(out, tuple) or isinstance(ref, tuple):
                assert out == ref, engine
            else:
                assert_bitwise_equal(out, ref)
