import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from periodickf import (
    NonConvergence,
    NotStationary,
    OmegaNotPD,
    PeriodicModel,
    SingularLift,
    dpre_fixed_point,
    filter_series,
    is_periodically_stationary,
    monodromy,
    par_family,
    prde_step,
    rel_err,
    solve_dple,
)
import periodickf.kalman as kalman_module
from periodickf.kalman import DPLE_TOL
from conftest import benchmark_round, random_stationary_model, traced_run
from test_steady_gain import drawn_case

# Scalar fixed point of P = 0.25 P / (P + 1) + 1, i.e. the positive root
# of P^2 - 0.25 P - 1 = 0, for the model F=0.5, G=H=Q=R=1.
SCALAR_DPRE_LIMIT = 1.1327822185373186


class TestKfStep:
    """One step of the full Kalman filter, as ``filter_series`` runs it
    with the ``kalman`` engine."""

    def test_scalar_hand_values(self, scalar_model):
        # F=0.5, G=H=Q=R=1, Sigma1=1, xhat1=0, y1=2:
        #   Omega = 1*1*1 + 1 = 2,  K = 0.5*1*1 = 0.5,  yhat = 0, e = 2
        #   xhat2 = 0 + (0.5/2)*2 = 0.5
        #   Sigma2 = 0.25*1 - 0.25/2 + 1 = 1.125
        out = traced_run(scalar_model, np.array([2.0, 0.0]), np.eye(1))
        assert out.Omega[0, 0, 0] == pytest.approx(2.0, abs=1e-15)
        assert out.K[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        assert out.xhat[0, 0] == 0.0
        assert out.innovations[0, 0] == pytest.approx(2.0, abs=1e-15)
        assert out.xhat[1, 0] == pytest.approx(0.5, abs=1e-15)
        assert out.sigma_trace[0, 0, 0] == 1.0
        assert out.sigma_trace[1, 0, 0] == pytest.approx(1.125, abs=1e-15)
        assert prde_step(scalar_model, np.eye(1), 1)[0, 0] == \
            pytest.approx(1.125, abs=1e-15)

    def test_agrees_with_prde_step(self):
        model = random_stationary_model(20, r=4, S=3, m=2)
        Sigma = np.asarray(solve_dple(model)[0])
        trace = traced_run(model, np.zeros((7, 2)), Sigma).sigma_trace
        assert np.array_equal(trace[0], Sigma)
        for t in range(1, 7):
            assert np.array_equal(trace[t],
                                  prde_step(model, trace[t - 1], t))

    def test_covariance_stays_symmetric_psd(self):
        model = random_stationary_model(21, r=5, S=2, m=2)
        rng = np.random.default_rng(0)
        out = traced_run(model, rng.normal(size=(41, 2)), np.zeros((5, 5)))
        for S in out.sigma_trace[1:]:
            assert np.array_equal(S, S.T)
            assert np.linalg.eigvalsh(S)[0] > -1e-10 * np.linalg.norm(S)

    def test_rejects_singular_innovation_covariance(self):
        model = random_stationary_model(22, r=2, m=1)
        model.H = [np.zeros_like(h) for h in model.H]
        model.R = [np.zeros_like(r) for r in model.R]
        with pytest.raises(OmegaNotPD) as info:
            traced_run(model, np.zeros((1, 1)), np.eye(2))
        assert info.value.t == 1

    def test_season_rotation_of_time_index(self):
        # stepping at t and at t + S must apply the same matrices
        model = random_stationary_model(23, r=3, S=2, m=1)
        Sigma = np.eye(3)
        assert np.array_equal(prde_step(model, Sigma, 1),
                              prde_step(model, Sigma, 3))
        assert not np.array_equal(prde_step(model, Sigma, 1),
                                  prde_step(model, Sigma, 2))


class TestMonodromy:
    def test_orders_factors_last_season_leftmost(self):
        F1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        F2 = np.array([[0.0, 0.0], [1.0, 0.0]])
        model = random_stationary_model(24, r=2, S=2, m=1)
        model.F = [F1, F2]
        # F2 @ F1, not F1 @ F2
        assert np.array_equal(monodromy(model), np.array([[0.0, 0.0],
                                                          [0.0, 1.0]]))

    def test_uses_exactly_s_factors(self):
        model = random_stationary_model(25, r=3, S=4, m=1)
        model.F = [0.5 * np.eye(3) for _ in range(4)]
        assert np.allclose(monodromy(model), 0.5 ** 4 * np.eye(3))

    def test_stationarity_flag_and_margin(self):
        model = random_stationary_model(26, r=1, S=1, m=1)
        model.F = [np.array([[1.0]])]
        ok, rho = is_periodically_stationary(model)
        assert not ok and rho == pytest.approx(1.0)
        model.F = [np.array([[1.0 - 1e-10]])]
        ok, _ = is_periodically_stationary(model)  # inside the margin
        assert not ok
        model.F = [np.array([[0.9]])]
        ok, rho = is_periodically_stationary(model)
        assert ok and rho == pytest.approx(0.9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 6))
    def test_radius_invariant_under_season_rotation(self, seed, shift):
        # the monodromy matrices of rotated seasonings are similar,
        # so the spectral radius cannot depend on the cut point
        model = random_stationary_model(seed, S=4)
        k = shift % model.S
        rotated = PeriodicModel(
            S=model.S, r=model.r, m=model.m, d=model.d,
            F=model.F[k:] + model.F[:k], G=model.G[k:] + model.G[:k],
            H=model.H[k:] + model.H[:k], Q=model.Q[k:] + model.Q[:k],
            R=model.R[k:] + model.R[:k])
        _, rho = is_periodically_stationary(model)
        _, rho_rot = is_periodically_stationary(rotated)
        assert rho_rot == pytest.approx(rho, rel=1e-8, abs=1e-12)


class TestDpreFixedPoint:
    def test_scalar_limit_matches_quadratic_root(self, scalar_model):
        P = dpre_fixed_point(scalar_model)
        root = max(np.roots([1.0, -0.25, -1.0]))
        assert P[0][0, 0] == pytest.approx(root, abs=1e-10)
        assert P[0][0, 0] == pytest.approx(SCALAR_DPRE_LIMIT, abs=1e-10)

    def test_returns_one_matrix_per_season(self):
        model = random_stationary_model(27, r=3, S=3, m=1)
        P = dpre_fixed_point(model)
        assert len(P) == 3 and all(p.shape == (3, 3) for p in P)

    def test_limit_is_prde_fixed_point(self):
        model = random_stationary_model(28, r=4, S=2, m=2)
        P = dpre_fixed_point(model, tol=1e-13)
        for s in range(model.S):
            nxt = prde_step(model, P[s], s + 1)
            target = P[(s + 1) % model.S]
            err = np.linalg.norm(nxt - target) / (1 + np.linalg.norm(target))
            assert err < 1e-10

    def test_nonconvergence_reports_residual(self):
        model = random_stationary_model(29, r=3, S=2, m=1)
        with pytest.raises(NonConvergence) as info:
            dpre_fixed_point(model, max_periods=1)
        assert info.value.periods == 1

    def test_starts_from_w1_when_present(self, scalar_model):
        scalar_model.W1 = np.array([[SCALAR_DPRE_LIMIT]])
        P = dpre_fixed_point(scalar_model)
        assert P[0][0, 0] == pytest.approx(SCALAR_DPRE_LIMIT, abs=1e-12)


def one_period_noise(model):
    """Qbar: the state covariance one period of the recursion builds up
    from zero."""
    Qbar = np.zeros((model.r, model.r))
    for s in range(1, model.S + 1):
        F, G, _, Q, _ = model.at(s)
        Qbar = F @ Qbar @ F.T + G @ Q @ G.T
    return Qbar


def lyapunov_residual(model, W1):
    Phi = monodromy(model)
    return rel_err(W1, Phi @ W1 @ Phi.T + one_period_noise(model))


def kronecker_w1(model):
    """Reference W_1 from the r^2 x r^2 system
    ``(I - Phi kron Phi) vec W_1 = vec Qbar``."""
    Phi = monodromy(model)
    r = model.r
    w = np.linalg.solve(np.eye(r * r) - np.kron(Phi, Phi),
                        one_period_noise(model).ravel())
    return w.reshape(r, r)


def near_unit_model(eigenvalue: float, r: int = 12) -> PeriodicModel:
    """S = 1 model whose (non-normal) transition has one eigenvalue at
    ``eigenvalue`` and the others inside (-0.9, 0.9)."""
    rng = np.random.default_rng(41)
    V = rng.normal(size=(r, r))
    lam = rng.uniform(-0.9, 0.9, size=r)
    lam[0] = eigenvalue
    F = V @ np.diag(lam) @ np.linalg.inv(V)
    return PeriodicModel(S=1, r=r, m=1, d=r, F=[F],
                         G=[rng.normal(size=(r, r))],
                         H=[rng.normal(size=(r, 1))], Q=[np.eye(r)],
                         R=[np.eye(1)])


class TestSolveDple:
    @pytest.mark.parametrize("r", range(1, 13))
    def test_matches_kronecker_oracle(self, r):
        for seed in (100 + r, 200 + r, 300 + r):
            model = random_stationary_model(seed, r=r)
            want = kronecker_w1(model)
            got = solve_dple(model)[0]
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-12

    @pytest.mark.parametrize("eigenvalue", [0.999999, -0.999999])
    def test_residual_at_near_unit_eigenvalue(self, eigenvalue):
        model = near_unit_model(eigenvalue)
        rho = np.max(np.abs(np.linalg.eigvals(model.F[0])))
        assert rho == pytest.approx(0.999999, abs=1e-9)
        assert lyapunov_residual(model, solve_dple(model)[0]) <= DPLE_TOL

    def test_par_at_r256_within_gate(self):
        # the r^2 x r^2 Kronecker system would need 34 GB here
        model = par_family(4, 7)(256)
        W = solve_dple(model)
        assert len(W) == 4 and W[0].shape == (256, 256)
        assert lyapunov_residual(model, W[0]) <= DPLE_TOL
        F, G, _, Q, _ = model.at(4)
        assert rel_err(W[0], F @ W[3] @ F.T + G @ Q @ G.T) <= DPLE_TOL

    def test_builds_monodromy_once(self, monkeypatch):
        calls = []

        def counted(model):
            calls.append(model)
            return monodromy(model)

        monkeypatch.setattr(kalman_module, "monodromy", counted)
        solve_dple(random_stationary_model(42, r=4, S=3))
        assert len(calls) == 1

    def test_doubling_cap_raises_singular_lift(self, monkeypatch):
        model = random_stationary_model(43, r=3, S=2, radius=0.9)
        monkeypatch.setattr(kalman_module, "MAX_DOUBLINGS", 1)
        with pytest.raises(SingularLift, match="did not settle"):
            solve_dple(model)

    def test_overflowing_doubling_raises_singular_lift(self):
        model = random_stationary_model(44, r=2, S=1)
        model.F = [np.array([[0.5, 1e200], [0.0, 0.5]])]
        with pytest.raises(SingularLift):
            solve_dple(model)

    def test_scalar_two_season_exact(self):
        one = np.array([[1.0]])
        model = PeriodicModel(S=2, r=1, m=1, d=1,
                              F=[np.array([[0.5]])] * 2, G=[one] * 2,
                              H=[one] * 2, Q=[one] * 2, R=[one] * 2)
        W = solve_dple(model)
        # W1 = (F^2 Q + Q) / (1 - F^4) = 1.25 / 0.9375 = 4/3, and the
        # propagation W2 = F W1 F + Q gives 4/3 again
        assert W[0][0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert W[1][0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_satisfies_propagation_and_closure(self):
        for seed in range(30, 36):
            model = random_stationary_model(seed)
            W = solve_dple(model)
            assert len(W) == model.S
            for s in range(model.S):
                F, G, _, Q, _ = model.at(s + 1)
                lhs = W[(s + 1) % model.S]
                rhs = F @ W[s] @ F.T + G @ Q @ G.T
                err = np.linalg.norm(lhs - rhs) / (1 + np.linalg.norm(lhs))
                assert err < 1e-10

    def test_matches_power_iteration(self):
        # independent oracle: propagate the covariance recursion from
        # zero until it stops moving
        model = random_stationary_model(36, r=4, S=3, m=1)
        W = solve_dple(model)
        V = np.zeros((model.r, model.r))
        for period in range(2000):
            for s in range(model.S):
                F, G, _, Q, _ = model.at(s + 1)
                V = F @ V @ F.T + G @ Q @ G.T
            if np.linalg.norm(V - W[0]) < 1e-12 * (1 + np.linalg.norm(V)):
                break
        err = np.linalg.norm(V - W[0]) / (1 + np.linalg.norm(W[0]))
        assert err < 1e-10

    def test_solution_is_psd_symmetric(self):
        model = random_stationary_model(37, r=5, S=2, m=2)
        for Ws in solve_dple(model):
            assert np.array_equal(Ws, Ws.T)
            assert np.linalg.eigvalsh(Ws)[0] > -1e-12 * np.linalg.norm(Ws)

    def test_rejects_nonstationary(self):
        model = random_stationary_model(38, r=2, S=2, m=1)
        model.F = [2.0 * f for f in model.F]
        with pytest.raises(NotStationary):
            solve_dple(model)

    def test_zero_dynamics(self):
        model = random_stationary_model(39, r=3, S=2, m=1)
        model.F = [np.zeros((3, 3)) for _ in range(2)]
        W = solve_dple(model)
        G, Q = model.G[1], model.Q[1]  # W1 = G_S Q_S G_S' when F = 0
        assert np.allclose(W[0], G @ Q @ G.T, atol=1e-12)


def certificate_case(seed, r, S, m, radius, noise, nonnormal):
    """A drawn model of ``TestSettleProperty``'s space, or with
    ``noise="par_family"`` the PAR_S family member ``par_family(S,
    seed)(r)`` as it stands."""
    if noise == "par_family":
        return par_family(S, seed)(r)
    return drawn_case(seed, r, S, m, radius, noise, nonnormal,
                      "explicit")[0]


class TestStationarityCertificate:
    """The Lyapunov doubling's powers certify stationarity only where the
    eigenvalues of the monodromy agree; elsewhere the decision is
    theirs, taken once, and the messages are unchanged."""

    MARGIN = 1.0 - kalman_module.STATIONARY_MARGIN

    @settings(max_examples=200, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.generate])
    @given(seed=st.integers(0, 10_000), r=st.integers(2, 8),
           S=st.integers(1, 6), m=st.integers(1, 3),
           radius=st.floats(0.3, 1.05),
           noise=st.sampled_from(["full", "ill", "zero"]),
           nonnormal=st.booleans())
    # cond(F_s) about 1e11 from the conjugation
    @example(seed=5806, r=8, S=3, m=2, radius=0.388, noise="full",
             nonnormal=True)
    @example(seed=7, r=512, S=4, m=1, radius=0.0, noise="par_family",
             nonnormal=False)
    def test_accepts_only_what_eigvals_accepts(self, seed, r, S, m, radius,
                                               noise, nonnormal):
        model = certificate_case(seed, r, S, m, radius, noise, nonnormal)
        Phi = monodromy(model)
        _, decision = kalman_module._smith_doubling(
            Phi, kalman_module.period_noise(model))
        rho = float(np.max(np.abs(np.linalg.eigvals(Phi))))
        if decision == (True, None):
            assert rho < self.MARGIN
        else:
            assert decision == (rho < self.MARGIN, rho)
        if noise == "par_family":
            assert decision == (True, None)

    @staticmethod
    def model(name: str):
        if name.startswith("near-unit"):
            return near_unit_model(float(name[len("near-unit"):]))
        if name.startswith("q-zero"):
            # W = 0: the doubling adds a zero term and stops at k = 0
            model = random_stationary_model(95, r=2, S=2, m=1)
            model.Q = [np.zeros_like(q) for q in model.Q]
            if name == "q-zero-doubled":
                model.F = [2.0 * f for f in model.F]
            return model
        workload, k = name.rsplit("-", 1)
        return benchmark_round(workload, 1, int(k)).model

    @pytest.mark.parametrize("name", [
        *(f"{w}-{k}" for w in ("long-s2", "wide-par48", "estimate-m2")
          for k in range(3)),
        "near-unit0.999999", "near-unit-0.999999", "q-zero",
        "q-zero-doubled"])
    def test_solve_decides_as_eigvals(self, name, eigvals_log):
        model = self.model(name)
        del eigvals_log[:]
        try:
            solve_dple(model)
        except NotStationary as exc:
            flag, message = False, str(exc)
        else:
            flag, message = True, None
        taken = len(eigvals_log)
        want = float(np.max(np.abs(np.linalg.eigvals(monodromy(model)))))
        assert flag == (want < self.MARGIN)
        if not flag:
            assert message == (f"monodromy spectral radius {want:.9f} "
                               "is not below 1")
        # the fallback cases take one eigensolve to decide, the others
        # are certified by the doubling's powers
        assert taken == (1 if name.startswith(("near-unit", "q-zero"))
                         else 0)

    def test_zero_dynamics_certified_at_once(self, eigvals_log):
        model = random_stationary_model(39, r=3, S=2, m=1)
        model.F = [np.zeros((3, 3)) for _ in range(2)]
        Phi = monodromy(model)
        assert not Phi.any()
        del eigvals_log[:]
        assert kalman_module._smith_doubling(
            Phi, kalman_module.period_noise(model))[1] == (True, None)
        assert eigvals_log == []

    def test_empty_state_certified_without_a_log(self, eigvals_log):
        # a 0 x 0 monodromy bounds its powers by exactly 0
        empty = np.zeros((0, 0))
        model = PeriodicModel(S=1, r=0, m=1, d=0, F=[empty], G=[empty],
                              H=[np.zeros((0, 1))], Q=[empty],
                              R=[np.eye(1)])
        assert solve_dple(model)[0].shape == (0, 0)
        assert kalman_module._smith_doubling(
            monodromy(model), kalman_module.period_noise(model))[1] == \
            (True, None)
        assert eigvals_log == []

    MESSAGES = {
        (38, 1.05): "monodromy spectral radius 1.050000000 is not below 1",
        (38, 1.0 + 1e-6):
            "monodromy spectral radius 1.000001000 is not below 1",
    }

    @pytest.mark.parametrize("seed, radius", list(MESSAGES))
    def test_not_stationary_message(self, seed, radius):
        model = random_stationary_model(seed, r=4, S=2, radius=radius)
        with pytest.raises(NotStationary) as info:
            solve_dple(model)
        assert str(info.value) == self.MESSAGES[seed, radius]
        y = np.zeros((4, model.m))
        with pytest.raises(NotStationary) as info:
            filter_series(model, y, init="stationary")
        assert str(info.value) == self.MESSAGES[seed, radius]

    # the first model is certified at k = 0, the second is not
    @pytest.mark.parametrize("radius", [0.05, 0.9])
    def test_singular_lift_message(self, radius, monkeypatch):
        model = random_stationary_model(43, r=3, S=2, radius=radius)
        monkeypatch.setattr(kalman_module, "MAX_DOUBLINGS", 1)
        with pytest.raises(SingularLift) as info:
            solve_dple(model)
        assert str(info.value) == (
            "the Lyapunov doubling did not settle within 1 doublings "
            f"(monodromy radius {radius:.12f})")


def eager_doubling(Phi, Qbar, decision=None):
    """The doubling that updates W at every squaring, decided or not:
    the reference the deferred ``_smith_doubling`` must equal."""
    r = Phi.shape[0]
    eps = float(np.finfo(float).eps)
    gamma = r * eps / (1.0 - r * eps)
    limit = math.log1p(-kalman_module.STATIONARY_MARGIN)
    A, W, e = Phi, Qbar, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(kalman_module.MAX_DOUBLINGS):
            if decision is None:
                a = (float(np.linalg.norm(A)) * (1.0 + r * r * eps)
                     + math.ldexp(r, -537))
                bound = a + e
                if bound == 0.0 or math.ldexp(math.log(bound), -k) < limit:
                    decision = True, None
                elif (e >= 1.0 or abs(float(np.trace(A)))
                      - math.sqrt(r) * (e + gamma * a) > r):
                    decision = kalman_module._decision(Phi)
                    if not decision[0]:
                        return None, decision
                e = (e * (2.0 * a + e) + gamma * a * a
                     + math.ldexp(r * r, -1074))
            term = A @ W @ A.T
            W = W + term
            size = float(np.linalg.norm(term))
            if not np.isfinite(size):
                break
            if size <= eps * float(np.linalg.norm(W)):
                return W, decision or kalman_module._decision(Phi)
            A = A @ A
    return None, decision or kalman_module._decision(Phi)


def doubling_cases():
    """A fixed numpy-drawn sample of the certificate's space, the
    near-unit models, the Q = 0 models (whose W settles at once, before
    any decision) and models past one."""
    rng = np.random.default_rng(522)
    for i in range(60):
        args = (int(rng.integers(0, 10_000)), int(rng.integers(2, 9)),
                int(rng.integers(1, 7)), int(rng.integers(1, 4)),
                float(rng.uniform(0.3, 1.05)),
                ["full", "ill", "zero"][int(rng.integers(3))],
                bool(rng.integers(2)))
        yield f"draw{i}", certificate_case(*args)
    for value in (0.999999, -0.999999, 1.0 - 1e-10, 1.0, 1.0 + 1e-6, 1.05):
        yield f"near-unit{value!r}", near_unit_model(value)
    for radius in (0.05, 0.9, 1.0 + 1e-6, 1.05):
        yield f"radius{radius!r}", random_stationary_model(38, r=4, S=2,
                                                           radius=radius)
    model = random_stationary_model(95, r=2, S=2, m=1)
    model.Q = [np.zeros_like(q) for q in model.Q]
    yield "q-zero", model
    model = random_stationary_model(95, r=2, S=2, m=1)
    model.Q = [np.zeros_like(q) for q in model.Q]
    model.F = [2.0 * f for f in model.F]
    yield "q-zero-doubled", model


class TestDeferredDoubling:
    """While undecided the doubling squares only the monodromy; its W,
    decision and eigensolve count are the eager doubling's."""

    @pytest.mark.parametrize("max_doublings", [64, 3, 1, 0])
    def test_bitwise_the_eager_doubling(self, max_doublings, monkeypatch,
                                        eigvals_log):
        monkeypatch.setattr(kalman_module, "MAX_DOUBLINGS", max_doublings)
        for name, model in doubling_cases():
            Phi = monodromy(model)
            Qbar = kalman_module.period_noise(model)
            del eigvals_log[:]
            W, decision = kalman_module._smith_doubling(Phi, Qbar)
            taken = len(eigvals_log)
            del eigvals_log[:]
            W_ref, decision_ref = eager_doubling(Phi, Qbar)
            assert (decision, taken) == (decision_ref, len(eigvals_log)), name
            # a non-stationary model's W is never read
            if decision[0]:
                assert (W is None) == (W_ref is None), name
                assert W is None or W.tobytes() == W_ref.tobytes(), name

    @pytest.mark.parametrize("radius", [1.05, 1.0 + 1e-6])
    def test_non_stationary_start_does_no_w_work(self, radius, monkeypatch):
        updates = []
        update = kalman_module._doubling_update

        def counted(*args):
            updates.append(1)
            return update(*args)

        monkeypatch.setattr(kalman_module, "_doubling_update", counted)
        model = random_stationary_model(5, r=12, S=4, radius=radius)
        with pytest.raises(NotStationary):
            solve_dple(model)
        assert updates == []


class TestCertify:
    """The certificate stage alone: its powers are the monodromy's
    repeated squares, bitwise, and its stationarity flag is the eager
    doubling's."""

    @pytest.mark.parametrize("max_doublings", [64, 3, 1, 0])
    def test_powers_and_flag(self, max_doublings, monkeypatch):
        monkeypatch.setattr(kalman_module, "MAX_DOUBLINGS", max_doublings)
        for name, model in doubling_cases():
            Phi = monodromy(model)
            powers, decision = kalman_module._certify(Phi)
            assert len(powers) <= max_doublings, name
            A = Phi
            for k, power in enumerate(powers):
                if k:
                    A = A @ A
                assert power.tobytes() == A.tobytes(), (name, k)
            _, decision_ref = eager_doubling(
                Phi, kalman_module.period_noise(model))
            assert decision[0] == decision_ref[0], name
