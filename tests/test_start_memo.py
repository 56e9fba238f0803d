"""The start memo of ``filter_series``: a call whose model content
matches the last start computed reuses that start, bitwise, and nothing
else does."""

import copy
import dataclasses

import numpy as np
import pytest

import periodickf.chandrasekhar as chandrasekhar_module
import periodickf.filtering as filtering_module
import periodickf.kalman as kalman_module
from periodickf import (ENGINES, EngineInitFailed, NotStationary, OmegaNotPD,
                        SingularLift, count_costs, filter_series, load_model,
                        par_family, simulate, solve_dple)
from periodickf.chandrasekhar import ChandrasekharState, Prelude
from periodickf.filtering import _initial_conditions, _make_engine
from conftest import (ROOT, assert_bitwise_equal, benchmark_round,
                      pinned_state_model, random_stationary_model)
from test_kalman import near_unit_model

INITS = ("zero-state", "stationary")


def memo():
    return filtering_module._START_MEMO


def case(stored_w1: bool = False):
    """S = 3, r = 5, m = 2, observed over 40 steps; with ``stored_w1``
    the model carries its stationary covariance as W1."""
    model = random_stationary_model(21, r=5, S=3, m=2)
    if stored_w1:
        model.W1 = solve_dple(model)[0].copy()
    _, y = simulate(model, 40, seed=22, start="stationary")
    return model, y


def settling_case(par: bool = False):
    """A model and series on which every engine settles: the demo model
    (S = 2, r = 2, m = 1) over 60 steps, settled by step 20, or with
    ``par`` PAR_4 at r = 6 over 40 steps, settled by step 15."""
    if par:
        model = par_family(4, 1)(6)
        return model, simulate(model, 40, seed=6)[1]
    model = load_model(ROOT / "demos" / "models" / "stationary_s2.json")
    return model, simulate(model, 60, seed=3)[1]


def _reachable(obj):
    """``obj`` and every object reachable from it through dataclass
    fields, dict values, lists and tuples."""
    yield obj
    if dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        children = ()
    for child in children:
        yield from _reachable(child)


@pytest.fixture
def start_calls(monkeypatch):
    """The names of the start functions called while the test runs:
    the Lyapunov solve (by the start, or by a low-rank engine's start
    or ``count_costs`` through ``chandrasekhar``), the prelude and the
    start factorization."""
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(filtering_module, "solve_dple")
    counted(chandrasekhar_module, "solve_dple")
    counted(filtering_module, "build_prelude")
    counted(filtering_module, "auto_factorize")
    return calls


class TestWarmCallIsColdCall:
    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
    @pytest.mark.parametrize("stored_w1", [False, True], ids=["W", "W1"])
    @pytest.mark.parametrize("init", INITS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bitwise(self, engine, init, stored_w1, trace, start_calls):
        model, y = case(stored_w1)
        kwargs = dict(engine=engine, init=init, sigma_trace=trace)
        cold = filter_series(model, y, **kwargs)
        assert memo() is not None
        del start_calls[:]
        # the same content in new objects, as a rebuilt model holds it
        warm = filter_series(copy.deepcopy(model), y, **kwargs)
        # no engine settles within the 40 steps, so nothing is replayed:
        # a low-rank engine builds its start again on the stored
        # covariances, and from a stored W1 (zero-state) solves for W
        # itself after its prelude
        assert cold.settled_at is None
        own_solve = stored_w1 and init == "zero-state"
        assert start_calls == ([] if engine == "kalman" else [
            "build_prelude", *["solve_dple"] * own_solve, "auto_factorize"])
        assert_bitwise_equal(warm, cold)
        assert warm.settled_at == cold.settled_at

    def test_every_engine_on_one_start(self, start_calls):
        # the four calls of an estimation round share one Lyapunov
        # solve; each low-rank engine builds its prelude and
        # factorization on it, and again in a second round, as no
        # engine settles
        model, y = case()
        for engine in ENGINES:
            filter_series(model, y, engine=engine)
        assert start_calls == ["solve_dple"] + [
            "build_prelude", "auto_factorize"] * 3
        del start_calls[:]
        for engine in ENGINES:
            filter_series(model, y, engine=engine)
        assert start_calls == ["build_prelude", "auto_factorize"] * 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_call_takes_no_eigensolve(self, engine, eigvals_log,
                                           start_calls):
        # near_unit_model(0.999999) is not certified by the doubling:
        # its cold start takes one eigensolve.  A warm low-rank call
        # builds its start again (no engine settles in 12 steps) on the
        # memoized stationary covariances
        model = near_unit_model(0.999999)
        y = np.zeros((12, 1))
        cold = filter_series(model, y, engine=engine)
        assert len(eigvals_log) == 1
        del eigvals_log[:], start_calls[:]
        warm = filter_series(model, y, engine=engine)
        assert eigvals_log == []
        assert start_calls == ([] if engine == "kalman"
                               else ["build_prelude", "auto_factorize"])
        assert_bitwise_equal(warm, cold)

    @pytest.mark.parametrize("engine", ENGINES[1:])
    def test_decision_returns_with_the_stationary_covariances(
            self, engine, eigvals_log, start_calls):
        # a low-rank start built on the W the kalman call's solve
        # memoized takes that solve's decision: its closed form takes no
        # eigensolve of its own
        model = near_unit_model(0.999999)
        y = np.zeros((12, 1))
        filter_series(model, y, engine="kalman")
        del eigvals_log[:], start_calls[:]
        filter_series(model, y, engine=engine)
        assert eigvals_log == []
        assert start_calls == ["build_prelude", "auto_factorize"]

    def test_workload_rounds(self):
        # wide-par48 rebuilds one model content every round
        cold = {}
        for engine in ENGINES:
            filtering_module._START_MEMO = None
            rd = benchmark_round("wide-par48", 1, 0)
            cold[engine] = filter_series(rd.model, rd.y, engine=engine)
        rd = benchmark_round("wide-par48", 1, 1)
        for engine in ENGINES:
            filter_series(rd.model, rd.y, engine=engine)
        rd = benchmark_round("wide-par48", 1, 0)
        for engine in ENGINES:
            out = filter_series(rd.model, rd.y, engine=engine)
            assert_bitwise_equal(out, cold[engine])
            assert out.settled_at == cold[engine].settled_at


class TestContentKey:
    def cold(self, model, y, engine):
        filtering_module._START_MEMO = None
        return filter_series(copy.deepcopy(model), y, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_array_mutated_in_place(self, engine, start_calls):
        model, y = case()
        filter_series(model, y, engine=engine)
        model.F[1][2, 3] *= 0.5
        del start_calls[:]
        out = filter_series(model, y, engine=engine)
        assert "solve_dple" in start_calls
        assert_bitwise_equal(out, self.cold(model, y, engine))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_list_replaced(self, engine, start_calls):
        model, y = case()
        filter_series(model, y, engine=engine)
        model.Q = [2.0 * q for q in model.Q]
        del start_calls[:]
        out = filter_series(model, y, engine=engine)
        assert "solve_dple" in start_calls
        assert_bitwise_equal(out, self.cold(model, y, engine))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_signed_zero_flip(self, engine, start_calls):
        model, y = case()
        model.G[0][0, 0] = 0.0
        filter_series(model, y, engine=engine)
        model.G[0][0, 0] = -0.0
        del start_calls[:]
        out = filter_series(model, y, engine=engine)
        assert "solve_dple" in start_calls
        assert_bitwise_equal(out, self.cold(model, y, engine))

    def test_stored_w1_mutated(self, start_calls):
        model, y = case(stored_w1=True)
        filter_series(model, y, engine="chand31")
        model.W1 = model.W1 * 2.0
        del start_calls[:]
        out = filter_series(model, y, engine="chand31")
        assert "build_prelude" in start_calls
        assert_bitwise_equal(out, self.cold(model, y, "chand31"))

    def test_layout_is_part_of_the_content(self, start_calls):
        model, y = case()
        filter_series(model, y)
        model.F = [np.asfortranarray(f) for f in model.F]
        del start_calls[:]
        filter_series(model, y)
        assert start_calls == ["solve_dple"]

    def test_start_kind_is_part_of_the_key(self, start_calls):
        model, y = case()
        filter_series(model, y, init="zero-state")
        filter_series(model, y, init="stationary")
        assert start_calls == ["solve_dple"] * 2

    def test_one_slot(self, start_calls):
        (a, y), b = case(), random_stationary_model(31, r=5, S=3, m=2)
        for model in (a, b, a):
            filter_series(model, y)
        assert start_calls == ["solve_dple"] * 3

    def test_explicit_start_is_not_memoized(self, start_calls):
        model, y = case()
        start = dict(init="explicit", xhat1=np.zeros(model.r),
                     Sigma1=np.eye(model.r))
        for _ in range(2):
            filter_series(model, y, engine="chand31", **start)
        assert memo() is None
        # the engine's start solves for W itself, after its prelude
        assert start_calls == ["build_prelude", "solve_dple",
                               "auto_factorize"] * 2


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value


class TestFailedStartsAreNotStored:
    def assert_raises_alike(self, call, kind):
        first, second = _raised(call), _raised(call)
        assert type(first) is type(second) is kind
        assert str(first) == str(second)
        return first, second

    @pytest.mark.parametrize("engine", ENGINES)
    def test_not_stationary(self, engine):
        model = random_stationary_model(38, r=4, S=2, radius=1.05)
        y = np.zeros((4, model.m))
        self.assert_raises_alike(
            lambda: filter_series(model, y, engine=engine, init="stationary"),
            NotStationary)
        assert memo() is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_singular_lift(self, engine, monkeypatch):
        model = random_stationary_model(43, r=3, S=2, radius=0.9)
        monkeypatch.setattr(kalman_module, "MAX_DOUBLINGS", 1)
        y = np.zeros((4, model.m))
        self.assert_raises_alike(
            lambda: filter_series(model, y, engine=engine), SingularLift)
        assert memo() is None

    def test_engine_init_failed(self):
        # Q = 0 with S m >= r: the steady-form middle factor is zero
        model = random_stationary_model(95, r=2, S=2, m=1)
        model.Q = [np.zeros_like(q) for q in model.Q]
        y = np.zeros((6, 1))
        self.assert_raises_alike(
            lambda: filter_series(model, y, engine="chand-minv",
                                  init="stationary"), EngineInitFailed)
        assert "chand-minv" not in memo().gains

    def test_omega_not_pd_in_the_prelude(self):
        model = pinned_state_model()
        model.R = [np.diag([0.0, 1.0])] * 2
        model.W1 = np.diag([0.0, 1.0])
        first, second = self.assert_raises_alike(
            lambda: filter_series(model, np.zeros((4, 2)), engine="chand31"),
            OmegaNotPD)
        assert (first.t, first.season) == (second.t, second.season) == (1, 1)
        assert memo().gains == {}


class TestForeignStart:
    def test_foreign_w_takes_the_cold_path(self, start_calls):
        # an engine started from a copy of the memo's W builds its own
        # start, leaves the memo as it was, and steps through the stored
        # trajectory bitwise
        model, y = settling_case()
        filter_series(model, y, engine="chand31")
        stored = memo().gains["chand31"]
        del start_calls[:]
        _, Sigma1, W = _initial_conditions(model, "zero-state", None, None)
        assert W is memo().W
        foreign = [w.copy() for w in W]
        eng = _make_engine(model, "chand31", Sigma1, foreign, False)
        assert start_calls == ["build_prelude", "auto_factorize"]
        assert memo().W is W and memo().gains["chand31"] is stored
        for t in range(1, len(stored[0]) + 1):
            K, Omega, factor, _ = eng.step(t)
            assert np.array_equal(K, stored[0][t - 1])
            assert np.array_equal(Omega, stored[1][t - 1])
        assert eng.settled

    def test_foreign_sigma1_takes_the_cold_path(self, start_calls):
        # an explicit start from a copy of the memo's Sigma1 is no
        # memo's start: it builds its engine (solving for W itself after
        # its prelude), stores nothing, and gives the stored gains
        model, y = settling_case()
        zero = filter_series(model, y, engine="chand32")
        stored = memo().gains["chand32"]
        del start_calls[:]
        out = filter_series(model, y, engine="chand32", init="explicit",
                            xhat1=np.zeros(model.r),
                            Sigma1=memo().Sigma1.copy())
        assert start_calls == ["build_prelude", "solve_dple",
                               "auto_factorize"]
        assert memo().gains["chand32"] is stored
        assert out.settled_at == zero.settled_at
        assert np.array_equal(out.K, zero.K)
        assert np.array_equal(out.Omega, zero.Omega)

    def test_count_costs_with_a_stored_w1(self, start_calls):
        # count_costs solves for W itself next to a stored W1: its
        # engines start from that foreign W, and the report is the
        # cold one
        model, _ = case(stored_w1=True)
        cold = count_costs(model, 2)
        del start_calls[:]
        warm = count_costs(model, 2)
        assert start_calls == ["solve_dple"] + [
            "build_prelude", "auto_factorize"] * 3
        assert warm.costs and [(c.engine, c.flops) for c in warm.costs] \
            == [(c.engine, c.flops) for c in cold.costs]
        assert warm.alpha == cold.alpha


class TestStoredTrajectory:
    """A call that settles stores its gain trajectory next to its
    start; a later call on that content, engine and start kind replays
    it, steps no engine, and gives bitwise the cold call's outputs."""

    @pytest.fixture
    def engine_steps(self, monkeypatch):
        """The names of the engines whose step function was called, once
        per call of it: the covariance update of ``kalman`` and the step
        function of each low-rank engine."""
        calls = []
        update = filtering_module._covariance_update

        def counted_update(*args):
            calls.append("kalman")
            return update(*args)

        monkeypatch.setattr(filtering_module, "_covariance_update",
                            counted_update)
        for name, fn in filtering_module.LOWRANK_STEPS.items():
            def counted_step(*args, _name=name, _fn=fn):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setitem(filtering_module.LOWRANK_STEPS, name,
                                counted_step)
        return calls

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_call_steps_no_engine(self, engine, engine_steps):
        model, y = settling_case()
        cold = filter_series(model, y, engine=engine)
        assert engine_steps == [engine] * cold.settled_at
        del engine_steps[:]
        warm = filter_series(copy.deepcopy(model), y, engine=engine)
        assert engine_steps == []
        assert_bitwise_equal(warm, cold)
        assert warm.settled_at == cold.settled_at

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stored_arrays_are_read_only(self, engine):
        model, y = settling_case()
        filter_series(model, y, engine=engine)
        for a in memo().gains[engine]:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_outputs_do_not_reach_the_memo(self, engine):
        # writing into the outputs of the call that stored the
        # trajectory, or of one that replayed it, leaves later warm
        # calls bitwise the cold call
        model, y = settling_case()
        cold = copy.deepcopy(filter_series(model, y, engine=engine))
        filtering_module._START_MEMO = None
        for _ in range(3):
            out = filter_series(model, y, engine=engine)
            assert_bitwise_equal(out, cold)
            assert out.settled_at == cold.settled_at
            for a in (out.K, out.Omega, out.xhat):
                a[...] = np.nan
        assert engine in memo().gains

    @pytest.mark.parametrize("n", [5, "T-1", "T"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_prefix(self, engine, n):
        # a series shorter than the stored trajectory replays its
        # prefix and, as a cold call, reports no settled step
        model, y = settling_case()
        T = filter_series(model, y, engine=engine).settled_at
        n = {5: 5, "T-1": T - 1, "T": T}[n]
        warm = filter_series(model, y[:n], engine=engine)
        filtering_module._START_MEMO = None
        cold = filter_series(model, y[:n], engine=engine)
        assert_bitwise_equal(warm, cold)
        assert warm.settled_at == cold.settled_at == (T if n == T else None)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_and_explicit_calls_step_the_engine(self, engine,
                                                      engine_steps):
        model, y = settling_case()
        T = filter_series(model, y, engine=engine).settled_at
        del engine_steps[:]
        traced = filter_series(model, y, engine=engine, sigma_trace=True)
        assert engine_steps.count(engine) == (
            T if engine == "kalman" else len(y))
        del engine_steps[:]
        filter_series(model, y, engine=engine, init="explicit",
                      xhat1=np.zeros(model.r), Sigma1=memo().Sigma1)
        assert len(engine_steps) == T
        assert traced.sigma_trace is not None

    def test_count_costs_steps_real_engines(self, engine_steps):
        # count_costs builds its engines through _make_engine: after
        # warm filter_series calls on the same content it still steps
        # every engine, and reports what it does on an empty memo
        model, y = settling_case()
        cold = count_costs(model, 2)
        filtering_module._START_MEMO = None
        for engine in ENGINES:
            for _ in range(2):
                filter_series(model, y, engine=engine)
        assert set(memo().gains) == set(ENGINES)
        del engine_steps[:]
        warm = count_costs(model, 2)
        assert engine_steps == [
            engine for engine in ENGINES for _ in range(2 * model.S)]
        assert [(c.engine, c.steps, c.flops) for c in warm.costs] \
            == [(c.engine, c.steps, c.flops) for c in cold.costs]
        assert warm.alpha == cold.alpha


    def test_memo_holds_the_start_and_the_trajectories(self):
        # every engine filters a content on which it settles, then one
        # on which none does: each memo entry holds the start (Sigma1
        # and W) and, per engine that settled, its four read-only
        # stacks, but no engine state and no prelude covariance
        for (model, y), settles in ((settling_case(), True), (case(), False)):
            settled_at = {engine: filter_series(model, y,
                                                engine=engine).settled_at
                          for engine in ENGINES}
            entry = memo()
            assert [f.name for f in dataclasses.fields(entry)] == [
                "key", "Sigma1", "W", "gains"]
            r, m = model.r, model.m
            covariances = [a for a in _reachable(entry)
                           if isinstance(a, np.ndarray) and a.shape == (r, r)]
            assert [id(a) for a in covariances] == [
                id(a) for a in [entry.Sigma1, *entry.W]]
            assert not any(isinstance(a, (ChandrasekharState, Prelude))
                           for a in _reachable(entry))
            if not settles:
                assert set(settled_at.values()) == {None}
                assert entry.gains == {}
                continue
            assert set(entry.gains) == set(ENGINES)
            for engine, stacks in entry.gains.items():
                T = settled_at[engine]
                assert [a.shape for a in stacks] == [
                    (T, r, m), (T, m, m), (T, m, m), (T, r, m)]
                assert not any(a.flags.writeable for a in stacks)


class TestThreads:
    def test_interleaved_models_get_their_own_start(self):
        # threads that alternate between four model contents replace the
        # one slot under each other: every call must still be bitwise
        # its model's cold call (on the last two every engine settles,
        # so a call may replay a stored gain trajectory)
        import sys
        import threading

        cases = [case(), (random_stationary_model(31, r=5, S=3, m=2),
                          case()[1]), settling_case(), settling_case(True)]
        cold = {}
        for i, (model, y) in enumerate(cases):
            for engine in ENGINES:
                filtering_module._START_MEMO = None
                cold[i, engine] = filter_series(model, y, engine=engine)
        failures = []

        def work(offset):
            for k in range(32):
                i = (k + offset) % len(cases)
                engine = ENGINES[(k // len(cases) + offset) % len(ENGINES)]
                model, y = cases[i]
                # the second call replays the trajectory the first
                # stored, unless another thread replaced the slot between
                for _ in range(2):
                    out = filter_series(copy.deepcopy(model), y,
                                        engine=engine)
                    try:
                        assert_bitwise_equal(out, cold[i, engine])
                    except AssertionError as exc:
                        failures.append(str(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,))
                       for j in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
