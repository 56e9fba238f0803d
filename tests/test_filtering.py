import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodickf import (
    EngineInitFailed,
    ENGINES,
    MSingular,
    NotStationary,
    OmegaNotPD,
    count_costs,
    count_flops,
    filter_series,
    gaussian_loglik,
    par_family,
    rel_err,
    save_model,
    simulate,
    solve_dple,
)
from periodickf.cli import main
from conftest import pinned_state_model, random_stationary_model


@pytest.fixture
def start_log(monkeypatch):
    """``(method, alpha)`` of each start factorization ``filter_series``
    makes while the test runs."""
    import periodickf.filtering as filtering_module

    factorize = filtering_module.auto_factorize
    log = []

    def recorded_factorize(*args, **kw):
        factorization = factorize(*args, **kw)
        log.append((factorization.method, factorization.alpha))
        return factorization

    monkeypatch.setattr(filtering_module, "auto_factorize",
                        recorded_factorize)
    return log


@pytest.fixture
def gate_log(monkeypatch):
    """Every matrix ``linalg._pd_gate`` checks while the test runs."""
    import periodickf.linalg as linalg_module

    gate = linalg_module._pd_gate
    log = []

    def counted_gate(a):
        log.append(a)
        gate(a)

    monkeypatch.setattr(linalg_module, "_pd_gate", counted_gate)
    return log


def direct_terms(out):
    """Per-step log-likelihood terms from ``slogdet`` and ``solve`` on
    the stored innovations and Omegas."""
    terms = []
    for e, Om in zip(out.innovations, out.Omega):
        sign, logdet = np.linalg.slogdet(Om)
        assert sign > 0
        terms.append(-0.5 * (e.size * np.log(2 * np.pi) + logdet
                             + e @ np.linalg.solve(Om, e)))
    return np.array(terms)


def simulated(seed, n=60, **dims):
    model = random_stationary_model(seed, **dims)
    _, y = simulate(model, n, seed=seed + 1000, start="stationary")
    return model, y


class TestScalarFilter:
    def test_hand_values(self, scalar_model):
        out = filter_series(scalar_model, np.array([2.0]))
        assert out.n == 1
        assert out.innovations[0, 0] == pytest.approx(2.0, abs=1e-15)
        assert out.Omega[0, 0, 0] == pytest.approx(2.0, abs=1e-15)
        assert out.K[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(out.xhat[0], np.zeros(1))
        assert out.xhat[1, 0] == pytest.approx(0.5, abs=1e-15)
        want = -0.5 * (np.log(2 * np.pi) + np.log(2.0) + 4.0 / 2.0)
        assert out.loglik == pytest.approx(want, abs=1e-14)

    def test_empty_series(self, scalar_model):
        for engine in ENGINES:
            out = filter_series(scalar_model, np.empty((0, 1)),
                                engine=engine)
            assert out.n == 0 and out.loglik == 0.0
            assert gaussian_loglik(out) == 0.0
            assert out.innovations.shape == (0, 1)
            assert out.xhat.shape == (1, 1)


class TestEngineAgreement:
    @pytest.mark.parametrize("engine", ["chand31", "chand32", "chand-minv"])
    def test_outputs_match_kalman(self, engine):
        model, y = simulated(80, n=40)
        ref = filter_series(model, y, engine="kalman", init="stationary")
        out = filter_series(model, y, engine=engine, init="stationary")
        assert rel_err(out.innovations, ref.innovations) < 1e-9
        assert rel_err(out.Omega, ref.Omega) < 1e-9
        assert rel_err(out.K, ref.K) < 1e-9
        assert rel_err(out.xhat, ref.xhat) < 1e-9
        assert out.loglik == pytest.approx(ref.loglik, rel=1e-9, abs=1e-9)

    def test_eigen_fallback_start_matches_kalman(self):
        # a non-stationary start disqualifies both closed-form
        # factorizations; the eigen start must still track exactly
        model, y = simulated(81, n=30, r=4, S=2, m=1)
        Sigma1 = 2.0 * solve_dple(model)[0]
        ref = filter_series(model, y, engine="kalman", init="explicit",
                            xhat1=np.zeros(4), Sigma1=Sigma1)
        for engine in ("chand31", "chand32", "chand-minv"):
            out = filter_series(model, y, engine=engine, init="explicit",
                                xhat1=np.zeros(4), Sigma1=Sigma1)
            assert rel_err(out.innovations, ref.innovations) < 1e-9
            assert out.loglik == pytest.approx(ref.loglik, rel=1e-9)


class TestLoglik:
    def test_matches_direct_formula(self):
        model, y = simulated(82, n=25, r=3, S=2, m=2)
        out = filter_series(model, y, engine="kalman", init="stationary")
        total = float(np.sum(direct_terms(out)))
        assert out.loglik == pytest.approx(total, rel=1e-12)
        assert gaussian_loglik(out) == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_terms_sum_to_total(self, engine):
        model, y = simulated(83, n=17)
        out = filter_series(model, y, engine=engine, init="stationary")
        terms = out.terms
        assert terms.shape == (17,)
        assert float(np.sum(terms)) == pytest.approx(out.loglik, rel=1e-13)

    def test_standardized_innovations_have_unit_variance(self):
        # chi-squared calibration of the whole simulate + filter chain:
        # e' Omega^{-1} e has mean m when the model is the truth
        model, y = simulated(84, n=2000, r=3, S=2, m=2)
        out = filter_series(model, y, engine="kalman", init="stationary")
        quads = [e @ np.linalg.solve(Om, e)
                 for e, Om in zip(out.innovations, out.Omega)]
        se = np.sqrt(2.0 * 2 / 2000)
        assert abs(np.mean(quads) - 2.0) < 4 * se

    # random stationary models; zero-state starts from W1 = I, so the
    # low-rank engines take the eigen start there
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), r=st.integers(2, 6),
           S=st.integers(1, 4), m=st.integers(1, 2),
           init=st.sampled_from(["zero-state", "stationary"]))
    def test_terms_and_engine_agreement(self, seed, r, S, m, init):
        model, y = simulated(seed, n=24, r=r, S=S, m=m)
        if init == "zero-state":
            model.W1 = np.eye(r)
        ref = filter_series(model, y, engine="kalman", init=init)
        for engine in ENGINES:
            out = filter_series(model, y, engine=engine, init=init)
            np.testing.assert_allclose(out.terms, direct_terms(out),
                                       rtol=1e-10, atol=1e-10)
            assert float(np.sum(out.terms)) == pytest.approx(out.loglik,
                                                             rel=1e-13)
            assert out.loglik == pytest.approx(ref.loglik, rel=1e-8, abs=0.0)


class TestInits:
    def test_zero_state_uses_stored_w1(self, scalar_model):
        out = filter_series(scalar_model, np.array([2.0]),
                            sigma_trace=True)
        assert out.sigma_trace[0][0, 0] == 1.0  # the fixture's W1

    def test_zero_state_falls_back_to_stationary(self):
        model, y = simulated(85, n=10)
        assert model.W1 is None
        out = filter_series(model, y, init="zero-state", sigma_trace=True)
        assert np.allclose(out.sigma_trace[0], solve_dple(model)[0],
                           atol=1e-12)

    def test_stationary_requires_stationary_model(self):
        model, y = simulated(86, n=5, r=2, S=1, m=1)
        model.F = [2.0 * f for f in model.F]
        with pytest.raises(NotStationary):
            filter_series(model, y, init="stationary")

    def test_explicit_requires_both_arguments(self):
        model, y = simulated(87, n=5, r=2)
        with pytest.raises(ValueError):
            filter_series(model, y, init="explicit", xhat1=np.zeros(2))
        with pytest.raises(ValueError):
            filter_series(model, y, init="explicit", Sigma1=np.eye(2))

    def test_explicit_validates_sigma1(self):
        model, y = simulated(88, n=5, r=2)
        x1 = np.zeros(2)
        with pytest.raises(ValueError):
            filter_series(model, y, init="explicit", xhat1=x1,
                          Sigma1=np.eye(3))
        with pytest.raises(ValueError):
            filter_series(model, y, init="explicit", xhat1=x1,
                          Sigma1=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            filter_series(model, y, init="explicit", xhat1=x1,
                          Sigma1=-np.eye(2))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_explicit_rejects_bad_start_before_any_engine(
            self, engine, monkeypatch):
        import periodickf.filtering as filtering_module

        model, y = simulated(99, n=5, r=3)
        make_engine = filtering_module._make_engine
        built = []

        def recorded_make_engine(*args):
            built.append(args)
            return make_engine(*args)

        monkeypatch.setattr(filtering_module, "_make_engine",
                            recorded_make_engine)
        x_nan = np.array([0.0, np.nan, 0.0])
        sigma_inf = np.diag([1.0, 1.0, np.inf])
        for xhat1, Sigma1, name in [(x_nan, np.eye(3), "xhat1"),
                                    (np.zeros(4), np.eye(3), "xhat1"),
                                    (np.zeros(3), sigma_inf, "Sigma1")]:
            with pytest.raises(ValueError, match=name):
                filter_series(model, y, engine=engine, init="explicit",
                              xhat1=xhat1, Sigma1=Sigma1)
        assert built == []

    def test_unknown_names_rejected(self):
        model, y = simulated(89, n=5)
        with pytest.raises(ValueError):
            filter_series(model, y, engine="riccati")
        with pytest.raises(ValueError):
            filter_series(model, y, init="diffuse")


class TestSigmaTrace:
    @pytest.mark.parametrize("engine", ["chand31", "chand32", "chand-minv"])
    def test_reconstruction_matches_kalman(self, engine):
        model, y = simulated(90, n=40)
        ref = filter_series(model, y, engine="kalman", init="stationary",
                            sigma_trace=True)
        out = filter_series(model, y, engine=engine, init="stationary",
                            sigma_trace=True)
        assert out.sigma_trace.shape == (40, model.r, model.r)
        worst = max(rel_err(a, b)
                    for a, b in zip(out.sigma_trace, ref.sigma_trace))
        assert worst < 1e-8

    def test_disabled_by_default(self):
        model, y = simulated(91, n=5)
        assert filter_series(model, y, init="stationary").sigma_trace is None


class TestObservationHandling:
    def test_flat_vector_accepted_for_scalar_output(self):
        model, y = simulated(92, n=12, m=1)
        out1 = filter_series(model, y, init="stationary")
        out2 = filter_series(model, y.ravel(), init="stationary")
        assert np.array_equal(out1.innovations, out2.innovations)

    def test_wrong_width_rejected(self):
        model, _ = simulated(93, n=5, m=2)
        with pytest.raises(ValueError):
            filter_series(model, np.zeros((5, 3)))
        with pytest.raises(ValueError):
            filter_series(model, np.zeros(5))
        with pytest.raises(ValueError):
            filter_series(model, np.zeros((0, 3)))
        with pytest.raises(ValueError):
            filter_series(model, np.zeros((0, 3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_location(self, bad):
        model, y = simulated(96, n=8, m=2)
        y = y.copy()
        y[4, 1] = bad
        y[6, 0] = np.nan
        for engine in ENGINES:
            with pytest.raises(ValueError, match=r"t=5, column 2 "):
                filter_series(model, y, engine=engine)

    def test_innovation_definition(self):
        model, y = simulated(94, n=20, m=2)
        out = filter_series(model, y, init="stationary")
        for t in range(1, 21):
            H = model.H[model.season(t) - 1]
            want = y[t - 1] - H.T @ out.xhat[t - 1]
            assert np.allclose(out.innovations[t - 1], want, atol=1e-12)


class TestLargeState:
    def test_r512_lowrank_matches_kalman(self):
        # PAR_4 at r = 512 from a zero-state start: one O(r^3) Lyapunov
        # solve per call, then the loop
        model = par_family(4, 7)(512)
        _, y = simulate(model, 20, seed=512)
        ref = filter_series(model, y, engine="kalman")
        out = filter_series(model, y, engine="chand32")
        assert np.isfinite(ref.loglik)
        assert out.loglik == pytest.approx(ref.loglik, rel=1e-8, abs=0.0)


class TestStartSolvesOnce:
    @pytest.mark.parametrize("engine", ["chand31", "chand32", "chand-minv"])
    def test_lowrank_zero_state_solves_dple_once(self, engine, monkeypatch):
        import periodickf.chandrasekhar as chandrasekhar_module
        import periodickf.filtering as filtering_module

        calls = []

        def counted(model):
            calls.append(model)
            return solve_dple(model)

        monkeypatch.setattr(filtering_module, "solve_dple", counted)
        monkeypatch.setattr(chandrasekhar_module, "solve_dple", counted)
        model, y = simulated(97, n=12)
        assert model.W1 is None
        out = filter_series(model, y, engine=engine, init="zero-state")
        assert len(calls) == 1
        ref = filter_series(model, y, engine="kalman")
        assert out.loglik == pytest.approx(ref.loglik, rel=1e-9)


class TestEngineInitFailure:
    def test_singular_steady_start_reports_cause(self):
        # Q = 0 with S m >= r: W = 0, the steady-form middle factor is
        # exactly zero, and the inverse-form engine cannot start
        model = random_stationary_model(95, r=2, S=2, m=1)
        model.Q = [np.zeros_like(q) for q in model.Q]
        y = np.zeros((6, 1))
        with pytest.raises(EngineInitFailed) as info:
            filter_series(model, y, engine="chand-minv", init="stationary")
        assert isinstance(info.value.__cause__, MSingular)
        # the direct-form engines run fine on the same model
        out = filter_series(model, y, engine="chand31", init="stationary")
        ref = filter_series(model, y, engine="kalman", init="stationary")
        assert rel_err(out.Omega, ref.Omega) < 1e-12


class TestErrorLocation:
    def test_kalman_names_the_singular_step(self):
        with pytest.raises(OmegaNotPD,
                           match=r"during step t=4 \(season 2\)") as info:
            filter_series(pinned_state_model(), np.zeros((8, 2)))
        assert (info.value.t, info.value.season) == (4, 2)

    @pytest.mark.parametrize("engine", ["chand31", "chand32", "chand-minv"])
    def test_lowrank_names_the_step_one_period_ahead(self, engine):
        # a low-rank step t forms Omega_{t+S}: the singular Omega_4 is
        # met in step 2
        with pytest.raises(OmegaNotPD,
                           match=r"during step t=2 \(season 2\)") as info:
            filter_series(pinned_state_model(), np.zeros((8, 2)),
                          engine=engine)
        assert (info.value.t, info.value.season) == (2, 2)

    def test_prelude_names_its_step(self):
        model = pinned_state_model()
        model.R = [np.diag([0.0, 1.0])] * 2
        model.W1 = np.diag([0.0, 1.0])
        with pytest.raises(OmegaNotPD, match=r"during step t=1 ") as info:
            filter_series(model, np.zeros((4, 2)), engine="chand31")
        assert (info.value.t, info.value.season) == (1, 1)


def _ill_conditioned_r_model():
    model = random_stationary_model(403, r=4, S=2, m=2)
    model.R = [np.diag([1.0, 1e-8])] * model.S
    return model


def _worst_step_rel_dev(out, ref):
    """Largest per-step ``norm(out_t - ref_t) / norm(ref_t)``."""
    num = np.linalg.norm((out - ref).reshape(len(ref), -1), axis=1)
    return float(np.max(num / np.linalg.norm(ref.reshape(len(ref), -1),
                                             axis=1)))


def _stationary_case(model):
    """A stationary model observed from its stationary distribution and
    filtered from the default start."""
    return model, simulate(model, 5000, seed=7, start="stationary")[1], {}


def _nonstationary_case():
    """Monodromy radius 1.05, simulated from the zero state and filtered
    from Sigma1 = I: neither closed-form start applies, so the low-rank
    engines take the eigen start."""
    model = random_stationary_model(404, r=4, S=2, m=1, radius=1.05)
    start = dict(init="explicit", xhat1=np.zeros(4), Sigma1=np.eye(4))
    return model, simulate(model, 5000, seed=7)[1], start


class TestLongHorizon:
    # n = 5000 steps; the low-rank recursions never see a covariance, so
    # any drift of the increment factors would show up in K and Omega.
    # ``start`` is the (method, alpha) each low-rank engine must start from.
    @pytest.mark.parametrize("build, start", [
        (lambda: _stationary_case(random_stationary_model(
            401, r=4, S=2, m=1, radius=0.999)), ("gain-form", 2)),
        (lambda: _stationary_case(random_stationary_model(
            402, r=5, S=3, m=2)), ("steady-form", 5)),
        (lambda: _stationary_case(_ill_conditioned_r_model()),
         ("steady-form", 4)),
        # PAR_4 with r = 6 observes a state entry without noise (R = 0)
        (lambda: _stationary_case(par_family(4, 7)(6)), ("gain-form", 4)),
        (_nonstationary_case, ("eigen", 4)),
    ], ids=["radius-0.999", "m2", "R-diag-1e-8", "par-R0",
            "nonstationary-eigen"])
    def test_lowrank_tracks_kalman(self, build, start, start_log):
        model, y, kwargs = build()
        ref = filter_series(model, y, engine="kalman", **kwargs)
        for engine in ENGINES[1:]:
            out = filter_series(model, y, engine=engine, **kwargs)
            assert _worst_step_rel_dev(out.K, ref.K) <= 1e-11, engine
            assert _worst_step_rel_dev(out.Omega, ref.Omega) <= 1e-11, engine
            assert out.loglik == pytest.approx(ref.loglik, rel=1e-8, abs=0.0)
        assert start_log == [start] * len(ENGINES[1:])


class TestGateOncePerOmega:
    """Each innovation covariance is gated and factored once, where it is
    formed: n Omegas for ``kalman``; S prelude Omegas plus one
    Omega_{t+S} per step for a low-rank engine."""

    STARTS = {"gain-form": (dict(r=5, S=2, m=1), False),
              "steady-form": (dict(r=3, S=2, m=2), False),
              "eigen": (dict(r=4, S=2, m=1), True)}

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("start", list(STARTS))
    def test_gate_count(self, engine, start, start_log, gate_log):
        dims, explicit = self.STARTS[start]
        model, y = simulated(98, n=15, **dims)
        kwargs = {}
        if explicit:
            # twice the stationary covariance: both closed forms miss
            # the first increment, so the eigen start is taken
            kwargs = dict(init="explicit", xhat1=np.zeros(model.r),
                          Sigma1=2.0 * solve_dple(model)[0])
        filter_series(model, y, engine=engine, **kwargs)
        if engine == "kalman":
            assert len(gate_log) == len(y)
        else:
            assert [method for method, _ in start_log] == [start]
            assert len(gate_log) == len(y) + model.S

    def test_cli_filter_gates_each_omega_once(self, tmp_path, gate_log):
        # the per-step log-likelihood column comes from the terms the
        # loop formed, not from a second pass over the Omegas
        model, y = simulated(98, n=15, r=3, S=2, m=1)
        save_model(model, tmp_path / "model.json")
        np.savetxt(tmp_path / "y.csv", y, delimiter=",")
        assert main(["filter", str(tmp_path / "model.json"),
                     str(tmp_path / "y.csv"), "--engine", "kalman",
                     "-o", str(tmp_path / "f.csv")]) == 0
        assert len(gate_log) == len(y)


class TestOneSolvePerStep:
    def test_kalman_loop_flops(self):
        # per step, next to the engine's covariance step: H'x, e, one
        # solve w = Omega^{-1} e, F x, K w and the sum; no m x r gain
        # solve
        r, m = 5, 2
        model, y = simulated(99, n=12, r=r, S=2, m=m)
        Sigma1 = solve_dple(model)[0]
        report = count_costs(model, 1, engines=("kalman",))
        engine_step = report.flops_per_step("kalman")
        with count_flops() as c:
            filter_series(model, y, init="explicit", xhat1=np.zeros(r),
                          Sigma1=Sigma1)
        loop_step = 4 * r * m + 2 * r * r + 2 * m * m + m + r   # 105
        assert c.flops == len(y) * (engine_step + loop_step)
