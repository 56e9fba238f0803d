import numpy as np
import pytest

from periodickf import (
    Factorization,
    MSingular,
    NotStationary,
    ResidualTooLarge,
    auto_factorize,
    build_prelude,
    chand_init,
    count_flops,
    factor_eigen,
    factor_gain_form,
    factor_steady_form,
    par_to_state_space,
    prde_step,
    random_stationary_par,
    rel_err,
    solve_dple,
    step_alg31,
    step_alg32,
    step_minv,
    to_inverse_state,
    verify_theorem31,
)
from conftest import random_stationary_model

STEPPERS = {"alg31": step_alg31, "alg32": step_alg32}


def scalar_state(scalar_model):
    """Eigen start for the hand example (Sigma1 = 1, Delta1 = 0.125)."""
    prelude = build_prelude(scalar_model, np.array([[1.0]]))
    fac = factor_eigen(prelude.DeltaSigma1)
    return prelude, chand_init(scalar_model, fac, prelude)


def run_lockstep(model, stepper, n_steps, inverse=False):
    """Yield (t, exact (K, Omega), chand (K, Omega), chand state) in
    lockstep."""
    W1 = solve_dple(model)[0]
    prelude = build_prelude(model, W1)
    state = chand_init(model, auto_factorize(model, prelude), prelude)
    if inverse:
        state = to_inverse_state(state)
    Sigma = W1.copy()
    for t in range(1, n_steps + 1):
        K_c, Om_c = state.current_gain()
        Om_e, K_e, _, Sigma = _exact_quadruple(model, Sigma, t)
        yield t, (K_e, Om_e), (K_c, Om_c), state
        state = stepper(model, state)


def _exact_quadruple(model, Sigma, t):
    from periodickf.kalman import _covariance_update
    return _covariance_update(model, Sigma, t)[:4]


class TestBuildPrelude:
    def test_scalar_hand_values(self, scalar_model):
        prelude = build_prelude(scalar_model, np.array([[1.0]]))
        assert prelude.S == 1
        assert prelude.Sigma[0][0, 0] == 1.0
        assert prelude.Omega[0][0, 0] == pytest.approx(2.0, abs=1e-15)
        assert prelude.K[0][0, 0] == pytest.approx(0.5, abs=1e-15)
        # Sigma2 - Sigma1 = 1.125 - 1
        assert prelude.DeltaSigma1[0, 0] == pytest.approx(0.125, abs=1e-15)

    def test_one_entry_per_season(self):
        model = random_stationary_model(40, r=3, S=3, m=2)
        prelude = build_prelude(model, solve_dple(model)[0])
        assert len(prelude.Sigma) == len(prelude.K) == len(prelude.Omega) == 3
        assert prelude.K[0].shape == (3, 2)
        assert np.array_equal(prelude.DeltaSigma1, prelude.DeltaSigma1.T)


class TestGainForm:
    def test_block_structure(self):
        # S=2, m=1, r=5: Y1 = [K_2, F_2 K_1], M1 = -diag(1/Om_2, 1/Om_1)
        model = par_to_state_space(random_stationary_par(S=2, p=5, seed=42))
        prelude = build_prelude(model, solve_dple(model)[0])
        fac = factor_gain_form(model, prelude)
        assert fac.alpha == 2 and fac.method == "gain-form"
        expect_Y = np.hstack([prelude.K[1], model.F[1] @ prelude.K[0]])
        assert np.allclose(fac.Y1, expect_Y, atol=1e-14)
        expect_M = -np.diag([1.0 / prelude.Omega[1][0, 0],
                             1.0 / prelude.Omega[0][0, 0]])
        assert np.allclose(fac.M1, expect_M, atol=1e-14)

    def test_reproduces_first_increment(self):
        for seed in range(41, 45):
            model = random_stationary_model(seed, r=5, S=2, m=1)
            prelude = build_prelude(model, solve_dple(model)[0])
            fac = factor_gain_form(model, prelude)
            assert rel_err(fac.Y1 @ fac.M1 @ fac.Y1.T,
                           prelude.DeltaSigma1) < 1e-9

    def test_rejects_nonstationary_model(self):
        model = random_stationary_model(45, r=3, S=2, m=1)
        model.F = [3.0 * f for f in model.F]
        prelude = build_prelude(model, np.eye(3))
        with pytest.raises(NotStationary):
            factor_gain_form(model, prelude)

    def test_rejects_prelude_not_started_from_w1(self):
        model = random_stationary_model(46, r=5, S=2, m=1)
        prelude = build_prelude(model, 2.0 * solve_dple(model)[0])
        with pytest.raises(ResidualTooLarge) as info:
            factor_gain_form(model, prelude)
        assert info.value.residual > 1e-8


class TestSteadyForm:
    def test_y1_is_last_transition(self):
        model = par_to_state_space(random_stationary_par(S=12, p=5, seed=7))
        W = solve_dple(model)
        prelude = build_prelude(model, W[0])
        fac = factor_steady_form(model, prelude, W[11])
        assert fac.alpha == 5 and fac.method == "steady-form"
        assert np.array_equal(fac.Y1, model.F[11])
        assert rel_err(fac.Y1 @ fac.M1 @ fac.Y1.T,
                       prelude.DeltaSigma1) < 1e-9

    def test_reproduces_first_increment(self):
        for seed in range(47, 51):
            model = random_stationary_model(seed, r=2, S=3, m=1)
            W = solve_dple(model)
            prelude = build_prelude(model, W[0])
            fac = factor_steady_form(model, prelude, W[model.S - 1])
            assert rel_err(fac.Y1 @ fac.M1 @ fac.Y1.T,
                           prelude.DeltaSigma1) < 1e-9


class TestEigenForm:
    def test_exact_rank(self):
        rng = np.random.default_rng(52)
        A = rng.normal(size=(6, 2))
        c = rng.normal(size=(6, 1))
        delta = A @ A.T - 3.0 * (c @ c.T)  # rank 3, indefinite
        fac = factor_eigen(delta)
        assert fac.alpha == 3
        assert rel_err(fac.Y1 @ fac.M1 @ fac.Y1.T, delta) < 1e-12

    def test_zero_increment(self):
        fac = factor_eigen(np.zeros((4, 4)))
        assert fac.alpha == 0 and fac.Y1.shape == (4, 0)

    def test_relative_threshold_drops_tiny_directions(self):
        fac = factor_eigen(np.diag([1.0, 1e-20]))
        assert fac.alpha == 1


class TestAutoFactorize:
    def test_prefers_gain_form_when_narrow(self):
        model = random_stationary_model(53, r=5, S=2, m=1)  # Sm = 2 < 5
        prelude = build_prelude(model, solve_dple(model)[0])
        assert auto_factorize(model, prelude).method == "gain-form"

    def test_prefers_steady_form_when_wide(self):
        model = random_stationary_model(54, r=2, S=3, m=1)  # Sm = 3 >= 2
        prelude = build_prelude(model, solve_dple(model)[0])
        assert auto_factorize(model, prelude).method == "steady-form"

    def test_falls_back_to_eigen_for_nonstationary(self):
        model = random_stationary_model(55, r=3, S=2, m=1)
        model.F = [2.0 * f for f in model.F]
        prelude = build_prelude(model, np.eye(3))
        assert auto_factorize(model, prelude).method == "eigen"

    def test_falls_back_to_eigen_for_offstationary_start(self):
        model = random_stationary_model(56, r=5, S=2, m=1)
        prelude = build_prelude(model, 2.0 * solve_dple(model)[0])
        fac = auto_factorize(model, prelude)
        assert fac.method == "eigen"
        assert rel_err(fac.Y1 @ fac.M1 @ fac.Y1.T,
                       prelude.DeltaSigma1) < 1e-12


class TestChandInit:
    def test_seeds_ring_from_prelude(self):
        model = random_stationary_model(57, r=4, S=3, m=2)
        prelude = build_prelude(model, solve_dple(model)[0])
        state = chand_init(model, auto_factorize(model, prelude), prelude)
        assert state.t == 1 and len(state.ring) == 3
        for s in range(3):
            K, Om = state.ring[s]
            assert np.array_equal(K, prelude.K[s])
            assert np.array_equal(Om, prelude.Omega[s])

    def test_rejects_mismatched_factorization(self):
        model = random_stationary_model(58, r=4, S=2, m=1)
        prelude = build_prelude(model, solve_dple(model)[0])
        fac = auto_factorize(model, prelude)
        bad = Factorization(Y1=2.0 * fac.Y1, M1=fac.M1, alpha=fac.alpha,
                            method=fac.method)
        with pytest.raises(ResidualTooLarge):
            chand_init(model, bad, prelude)


class TestScalarSteps:
    """Hand-checked one-step values for F=0.5, G=H=Q=R=1, Sigma1=1:
    Omega1=2, K1=0.5, Delta1=0.125, Sigma2=1.125, Omega2=2.125,
    K2=0.5625, alg31 M2=17/128, alg32 M2=2/17."""

    def test_alg31(self, scalar_model):
        _, state = scalar_state(scalar_model)
        nxt = step_alg31(scalar_model, state)
        K2, Om2 = nxt.current_gain()
        assert Om2[0, 0] == pytest.approx(2.125, abs=1e-15)
        assert K2[0, 0] == pytest.approx(0.5625, abs=1e-15)
        assert nxt.M[0, 0] == pytest.approx(17.0 / 128.0, abs=1e-15)
        assert nxt.Y[0, 0] == pytest.approx(4.0 / 17.0, abs=1e-15)

    def test_alg32(self, scalar_model):
        _, state = scalar_state(scalar_model)
        nxt = step_alg32(scalar_model, state)
        K2, Om2 = nxt.current_gain()
        assert Om2[0, 0] == pytest.approx(2.125, abs=1e-15)
        assert K2[0, 0] == pytest.approx(0.5625, abs=1e-15)
        assert nxt.M[0, 0] == pytest.approx(2.0 / 17.0, abs=1e-15)
        assert nxt.Y[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_minv_tracks_updated_gain_pairing(self, scalar_model):
        # N = 1/M follows the subtraction update; its inverse must equal
        # the M produced by the updated-gain recursion, not the
        # current-gain one
        _, state = scalar_state(scalar_model)
        nxt = step_minv(scalar_model, to_inverse_state(state))
        assert nxt.M[0, 0] == pytest.approx(128.0 / 17.0, abs=1e-13)
        _, M2 = nxt.factor_pair()
        assert M2[0, 0] == pytest.approx(17.0 / 128.0, abs=1e-15)
        assert nxt.Y[0, 0] == pytest.approx(4.0 / 17.0, abs=1e-15)

    def test_both_increments_track_truth(self, scalar_model):
        # Sigma3 = 0.25*1.125/2.125 + 1; Delta2 = Sigma3 - Sigma2
        delta2 = (0.25 * 1.125 / 2.125 + 1.0) - 1.125
        _, state = scalar_state(scalar_model)
        for stepper in (step_alg31, step_alg32):
            nxt = stepper(scalar_model, state)
            assert nxt.increment()[0, 0] == pytest.approx(delta2, abs=1e-15)


class TestLockstepTracking:
    @pytest.mark.parametrize("name", ["alg31", "alg32"])
    def test_gain_and_omega_match_kalman(self, name):
        for seed in (60, 61):
            model = random_stationary_model(seed)
            worst = 0.0
            for _, (K_e, Om_e), (K_c, Om_c), _ in run_lockstep(
                    model, STEPPERS[name], 20 * model.S):
                worst = max(worst, rel_err(K_c, K_e), rel_err(Om_c, Om_e))
            assert worst < 1e-9

    def test_minv_matches_kalman(self):
        for seed in (62, 63):
            model = random_stationary_model(seed)
            worst = 0.0
            for _, (K_e, Om_e), (K_c, Om_c), _ in run_lockstep(
                    model, step_minv, 20 * model.S, inverse=True):
                worst = max(worst, rel_err(K_c, K_e), rel_err(Om_c, Om_e))
            assert worst < 1e-9

    def test_increment_matches_covariance_difference(self):
        model = random_stationary_model(64, r=4, S=2, m=1)
        W1 = solve_dple(model)[0]
        prelude = build_prelude(model, W1)
        state = chand_init(model, auto_factorize(model, prelude), prelude)
        Sigmas = [W1]
        Sigma = W1
        for t in range(1, 3 * model.S + 2):
            Sigma = prde_step(model, Sigma, t)
            Sigmas.append(Sigma)
        for t in range(1, 2 * model.S + 1):  # Sigmas[i] is Sigma_{i+1}
            truth = Sigmas[t - 1 + model.S] - Sigmas[t - 1]
            assert rel_err(state.increment(), truth) < 1e-10
            state = step_alg31(model, state)


class TestSignStructure:
    def test_alg32_keeps_gain_form_negative_semidefinite(self):
        model = random_stationary_model(65, r=5, S=2, m=1)
        prelude = build_prelude(model, solve_dple(model)[0])
        state = chand_init(model, factor_gain_form(model, prelude), prelude)
        for _ in range(50 * model.S):
            w = np.linalg.eigvalsh(state.M)
            assert w[-1] <= 1e-10 * np.linalg.norm(state.M)
            state = step_alg32(model, state)


class TestInverseForm:
    def test_round_trip(self):
        model = random_stationary_model(66, r=4, S=2, m=1)
        prelude = build_prelude(model, solve_dple(model)[0])
        state = chand_init(model, auto_factorize(model, prelude), prelude)
        inv = to_inverse_state(state)
        assert inv.m_is_inverse and not state.m_is_inverse
        _, M_back = inv.factor_pair()
        assert rel_err(M_back, state.M) < 1e-12
        assert to_inverse_state(inv) is inv

    def test_rejects_singular_m(self):
        model = random_stationary_model(67, r=3, S=1, m=1)
        prelude = build_prelude(model, solve_dple(model)[0])
        state = chand_init(model, auto_factorize(model, prelude), prelude)
        state.M = np.zeros_like(state.M)
        # zeroed M no longer matches the increment, but inversion is
        # what must fail here
        with pytest.raises(MSingular):
            to_inverse_state(state)

    def test_step_guards(self, scalar_model):
        _, state = scalar_state(scalar_model)
        inv = to_inverse_state(state)
        with pytest.raises(ValueError):
            step_alg31(scalar_model, inv)
        with pytest.raises(ValueError):
            step_alg32(scalar_model, inv)
        with pytest.raises(ValueError):
            step_minv(scalar_model, state)


class TestZeroWidth:
    def make_uninformative(self):
        # Q = 0: the state is deterministically zero, Sigma stays at
        # W = 0, and the increment vanishes exactly (Omega = R stays PD)
        model = random_stationary_model(68, r=2, S=2, m=1)
        model.Q = [np.zeros_like(q) for q in model.Q]
        return model

    def test_steps_are_free_and_constant(self):
        model = self.make_uninformative()
        W1 = solve_dple(model)[0]
        prelude = build_prelude(model, W1)
        fac = factor_eigen(prelude.DeltaSigma1)
        assert fac.alpha == 0
        state = chand_init(model, fac, prelude)
        K0, Om0 = state.current_gain()
        with count_flops() as counter:
            for _ in range(6):
                state = step_alg31(model, state)
        assert counter.flops == 0
        K1, Om1 = state.current_gain()
        assert np.array_equal(K0, K1) and np.array_equal(Om0, Om1)

    def test_inverse_form_passthrough(self):
        model = self.make_uninformative()
        prelude = build_prelude(model, solve_dple(model)[0])
        state = to_inverse_state(
            chand_init(model, factor_eigen(prelude.DeltaSigma1), prelude))
        nxt = step_minv(model, state)
        assert nxt.t == state.t + 1 and nxt.alpha == 0


class TestImmutability:
    def test_step_leaves_input_state_unchanged(self):
        model = random_stationary_model(69, r=3, S=2, m=1)
        prelude = build_prelude(model, solve_dple(model)[0])
        state = chand_init(model, auto_factorize(model, prelude), prelude)
        Y0, M0 = state.Y.copy(), state.M.copy()
        ring0 = [(K.copy(), Om.copy()) for K, Om in state.ring]
        step_alg31(model, state)
        step_alg32(model, state)
        assert np.array_equal(state.Y, Y0) and np.array_equal(state.M, M0)
        for (K, Om), (K0, Om0) in zip(state.ring, ring0):
            assert np.array_equal(K, K0) and np.array_equal(Om, Om0)


class TestTheoremIdentities:
    def test_residuals_near_machine_precision(self):
        for seed in (71, 72):
            model = random_stationary_model(seed)
            prelude = build_prelude(model, solve_dple(model)[0])
            report = verify_theorem31(model, prelude, steps=10 * model.S)
            assert report.steps == 10 * model.S
            assert report.max_residual < 1e-12

    def test_holds_off_stationarity_too(self):
        # the identities are algebraic; they do not need a stationary
        # start, only a well-defined filter
        model = random_stationary_model(73, r=3, S=2, m=1)
        prelude = build_prelude(model, 3.0 * np.eye(3))
        report = verify_theorem31(model, prelude, steps=8)
        assert report.max_residual < 1e-12

    def test_rejects_bad_steps(self, scalar_model):
        prelude, _ = scalar_state(scalar_model)
        with pytest.raises(ValueError):
            verify_theorem31(scalar_model, prelude, steps=0)
