from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

from periodickf import (
    ENGINES,
    NotStationary,
    count_costs,
    count_flops,
    filter_series,
    format_cost_table,
    format_scaling_table,
    par_family,
    prde_step,
    save_model,
    scaling_table,
    solve_dple,
)
from periodickf.bench import cost_report_rows, scaling_table_rows
from periodickf.cli import main
from periodickf.chandrasekhar import (ChandrasekharState, auto_factorize,
                                      build_prelude, chand_init,
                                      factor_eigen, step_alg31, step_alg32,
                                      step_minv, to_inverse_state)
from periodickf.kalman import _covariance_update
from periodickf.linalg import (_charge, add, factor_solve, matmul,
                               spd_factor, spd_solve, sub, sym_solve,
                               symmetrize)
from conftest import random_stationary_model


def prde_flops(r, m, d):
    """Mirror of the documented accounting for one full covariance step."""
    return (2 * r * r * m            # Sigma H
            + 2 * m * r * m + m * m + m * m   # Omega = sym(H'U + R)
            + 2 * r * r * m          # K = F U
            + m ** 3 // 3 + 2 * m * m * r     # Omega^{-1} K'
            + 2 * r ** 3             # F Sigma
            + 2 * r * d * d          # G Q
            + 2 * r ** 3             # (F Sigma) F'
            + 2 * r * m * r          # K (Omega^{-1} K')
            + 2 * r * d * r          # (G Q) G'
            + r * r + r * r + r * r)  # subtract, add, symmetrize


def chand_direct_flops(r, m, a):
    """One step of either direct low-rank recursion (they share cost)."""
    return (2 * a * r * m            # U = Y'H
            + 2 * a * a * m          # T = M U
            + 2 * r * a * m          # Y T
            + 2 * m * a * m + m * m + m * m   # Omega update
            + 2 * r * r * m + r * m  # K update
            + m ** 3 // 3 + 2 * m * m * a     # first solve
            + 2 * r * r * a + 2 * r * m * a + r * a   # Y update
            + m ** 3 // 3 + 2 * m * m * a     # second solve
            + 2 * a * m * a + a * a + a * a)  # M update


def chand_minv_flops(r, m, a):
    """One step of the inverse-form recursion."""
    return (2 * a * r * m            # U = Y'H
            + a ** 3 // 3 + 2 * a * a * m     # T = N^{-1} U
            + 2 * r * a * m          # Y T
            + 2 * m * a * m + m * m + m * m   # Omega update
            + 2 * r * r * m + r * m  # K update
            + m ** 3 // 3 + 2 * m * m * a     # solve for B
            + 2 * r * r * a + 2 * r * m * a + r * a   # Y update
            + 2 * a * m * a + a * a + a * a)  # N update


def chand_direct_one_factor_flops(r, m, a):
    """A direct step whose second solve reuses the factor of Omega_t the
    ring carries: one factorization (of Omega_{t+S}) instead of two."""
    return chand_direct_flops(r, m, a) - m ** 3 // 3


class TestChargeRules:
    def test_matmul(self):
        with count_flops() as c:
            matmul(np.ones((3, 4)), np.ones((4, 5)))
        assert c.flops == 2 * 3 * 4 * 5
        with count_flops() as c:
            matmul(np.ones((3, 4)), np.ones(4))
        assert c.flops == 2 * 3 * 4

    def test_elementwise(self):
        a = np.ones((3, 4))
        with count_flops() as c:
            add(a, a)
            sub(a, a)
        assert c.flops == 24
        with count_flops() as c:
            symmetrize(np.ones((4, 4)))
        assert c.flops == 16

    def test_solves(self):
        a = np.eye(3) * 2.0
        b = np.ones((3, 2))
        with count_flops() as c:
            spd_solve(a, b)
        assert c.flops == 3 ** 3 // 3 + 2 * 9 * 2
        with count_flops() as c:
            sym_solve(a, np.ones((3, 3)))
        assert c.flops == 9 + 2 * 9 * 3

    def test_counters_nest_and_detach(self):
        a = np.ones((2, 2))
        with count_flops() as outer:
            matmul(a, a)
            with count_flops() as inner:
                matmul(a, a)
            assert inner.flops == 16
        assert outer.flops == 16  # the inner block went to inner only
        matmul(a, a)  # no active counter: must simply work
        assert outer.flops == 16

    def test_metering_does_not_change_results(self):
        model = random_stationary_model(100, r=4, S=2, m=2)
        Sigma = solve_dple(model)[0]
        plain = prde_step(model, Sigma, 1)
        with count_flops():
            metered = prde_step(model, Sigma, 1)
        assert np.array_equal(plain, metered)

        prelude = build_prelude(model, Sigma)
        state = chand_init(model, auto_factorize(model, prelude), prelude)
        plain = step_alg31(model, state)
        with count_flops():
            metered = step_alg31(model, state)
        assert np.array_equal(plain.Y, metered.Y)
        assert np.array_equal(plain.M, metered.M)


class TestPerStepFormulas:
    def test_prde_step(self):
        model = random_stationary_model(101, r=5, S=2, m=2, d=3)
        Sigma = solve_dple(model)[0]
        with count_flops() as c:
            prde_step(model, Sigma, 1)
        assert c.flops == prde_flops(5, 2, 3)

    @pytest.mark.parametrize("stepper,formula", [
        (step_alg31, chand_direct_flops),
        (step_alg32, chand_direct_flops),
        (step_minv, chand_minv_flops),
    ])
    def test_low_rank_steps(self, stepper, formula):
        model = random_stationary_model(102, r=6, S=2, m=1)
        prelude = build_prelude(model, solve_dple(model)[0])
        state = chand_init(model, auto_factorize(model, prelude), prelude)
        if stepper is step_minv:
            state = to_inverse_state(state)
        a = state.alpha
        assert a == 2  # S m = 2 < r: gain-form width
        with count_flops() as c:
            stepper(model, state)
        assert c.flops == formula(6, 1, a)

    @pytest.mark.parametrize("stepper,formula", [
        (step_alg31, chand_direct_one_factor_flops),
        (step_alg32, chand_direct_one_factor_flops),
        (step_minv, chand_minv_flops),
    ])
    def test_low_rank_steps_factor_once_at_m2(self, stepper, formula):
        # at m = 1 a factorization charges 1**3 // 3 = 0; at m = 2 the
        # count shows that a step factors only the Omega_{t+S} it forms
        # and solves with the factor the ring carries for Omega_t
        model = random_stationary_model(106, r=7, S=2, m=2)
        prelude = build_prelude(model, solve_dple(model)[0])
        state = chand_init(model, auto_factorize(model, prelude), prelude)
        if stepper is step_minv:
            state = to_inverse_state(state)
        a = state.alpha
        assert a == 4  # S m = 4 < r: gain-form width
        with count_flops() as c:
            stepper(model, state)
        assert c.flops == formula(7, 2, a)

    def test_low_rank_beats_full_when_r_dominates(self):
        r, m, a = 40, 1, 2
        assert prde_flops(r, m, r) / chand_direct_flops(r, m, a) > 5


# --- the helper-by-helper step bodies, kept as the kernels' reference -------

def metered_sym_solve(a, b):
    """``sym_solve`` as the scipy wrapper plus its charge."""
    n = a.shape[0]
    x = scipy.linalg.solve(a, b, assume_a="sym")
    _charge(n ** 3 // 3 + 2 * n * n * (b.shape[1] if b.ndim == 2 else 1))
    return x


def metered_step(model, state, form):
    """One low-rank step through the metered helpers, one call per
    operation, in the order the kernel ``chandrasekhar._step`` keeps."""
    inverse = form == "inverse"
    if state.alpha == 0:
        return replace(state, t=state.t + 1)
    i = (state.t - 1) % model.S
    F, H = model.F[i], model.H[i]
    (K, Omega), factor = state.ring[i], state.factors[i]
    Y, M = state.Y, state.M
    U = matmul(Y.T, H)
    T = metered_sym_solve(M, U) if inverse else matmul(M, U)
    YT = matmul(Y, T)
    Omega_next = symmetrize(add(Omega, matmul(U.T, T)))
    K_next = add(K, matmul(F, YT))
    factor_next = spd_factor(Omega_next)
    K_y, factor_y = (K, factor) if form == "current" else (K_next, factor_next)
    B = factor_solve(factor_y, U.T)
    Y_next = sub(matmul(F, Y), matmul(K_y, B))
    if inverse:
        M_next = symmetrize(sub(M, matmul(U, B)))
    elif form == "updated":
        M_next = symmetrize(add(M, matmul(T, factor_solve(factor, T.T))))
    else:
        M_next = symmetrize(sub(M, matmul(T, factor_solve(factor_next, T.T))))
    ring, factors = list(state.ring), list(state.factors)
    ring[i], factors[i] = (K_next, Omega_next), factor_next
    return replace(state, t=state.t + 1, Y=Y_next, M=M_next, ring=ring,
                   factors=factors)


def metered_covariance_update(model, Sigma, t):
    """One PRDE step through the metered helpers, in the order the
    kernel ``kalman._covariance_update`` keeps."""
    F, G, H, Q, R = model.at(t)
    U = matmul(Sigma, H)
    Omega = symmetrize(add(matmul(H.T, U), R))
    K = matmul(F, U)
    factor = spd_factor(Omega)
    KtilT = factor_solve(factor, K.T)
    FS = matmul(F, Sigma)
    GQ = matmul(G, Q)
    Sigma_next = symmetrize(
        add(sub(matmul(FS, F.T), matmul(K, KtilT)), matmul(GQ, G.T)))
    return Omega, K, factor, Sigma_next, KtilT


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def same_value(got, want):
    """Equal values of one type; arrays bitwise, sequences item by item."""
    if type(got) is not type(want):
        return False
    if isinstance(got, np.ndarray):
        return same_bits(got, want)
    if isinstance(got, (list, tuple)):
        return len(got) == len(want) and all(
            same_value(g, w) for g, w in zip(got, want))
    return got == want


def assert_same_state(got, want):
    """Every ``ChandrasekharState`` field equal, ``t`` and
    ``m_is_inverse`` included: the kernel builds its state with the
    constructor and the reference with ``replace``, so a field the
    constructor call leaves out differs here."""
    assert type(got) is type(want) is ChandrasekharState
    for f in fields(ChandrasekharState):
        assert same_value(getattr(got, f.name), getattr(want, f.name)), f.name


def start_state(start, m):
    """A model and a t = 1 recursion state from the named start, at
    output dimension m."""
    if start == "gain-form":       # S m < r
        model = random_stationary_model(110 + m, r=6, S=2, m=m)
    elif start == "steady-form":   # S m >= r
        model = random_stationary_model(120 + m, r=m + 1, S=2, m=m)
    elif start == "eigen":         # a start off the stationary covariance
        model = random_stationary_model(130 + m, r=4, S=2, m=m)
    else:                          # Q = 0: the increment vanishes
        model = random_stationary_model(140 + m, r=2, S=2, m=m)
        model.Q = [np.zeros_like(q) for q in model.Q]
    if start == "eigen":
        prelude = build_prelude(model, np.eye(model.r))
        factorization = factor_eigen(prelude.DeltaSigma1)
    else:
        prelude = build_prelude(model, solve_dple(model)[0])
        factorization = (factor_eigen(prelude.DeltaSigma1) if start == "zero"
                         else auto_factorize(model, prelude))
    assert factorization.method == ("eigen" if start == "zero" else start)
    assert (factorization.alpha == 0) == (start == "zero")
    return model, chand_init(model, factorization, prelude)


class TestStepKernelsMatchMeteredReference:
    """The bare step kernels against the helper-by-helper bodies they
    replaced: bitwise equal states and equal flop counts, step by step
    over three periods."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("start",
                             ["gain-form", "steady-form", "eigen", "zero"])
    @pytest.mark.parametrize("form,stepper", [("updated", step_alg31),
                                              ("current", step_alg32),
                                              ("inverse", step_minv)])
    def test_low_rank_step(self, form, stepper, start, m):
        model, state = start_state(start, m)
        if form == "inverse":
            state = to_inverse_state(state)
        ref = state
        for _ in range(3 * model.S):
            with count_flops() as counted:
                state = stepper(model, state)
            with count_flops() as metered:
                ref = metered_step(model, ref, form)
            assert_same_state(state, ref)
            assert counted.flops == metered.flops
            assert (counted.flops == 0) == (start == "zero")

    @pytest.mark.parametrize("m,d", [(1, 4), (2, 3)])
    @pytest.mark.parametrize("start", ["stationary", "identity"])
    def test_covariance_update(self, start, m, d):
        model = random_stationary_model(150 + m, r=4, S=3, m=m, d=d)
        Sigma = (solve_dple(model)[0] if start == "stationary"
                 else np.eye(model.r))
        ref = Sigma
        for t in range(1, 3 * model.S + 1):
            with count_flops() as counted:
                *got, Sigma, KtilT = _covariance_update(model, Sigma, t)
            with count_flops() as metered:
                *want, ref, KtilT0 = metered_covariance_update(model, ref, t)
            (Omega, K, (c, lower)), (Omega0, K0, (c0, lower0)) = got, want
            assert same_bits(Omega, Omega0) and same_bits(K, K0)
            assert same_bits(KtilT, KtilT0)
            assert same_bits(c, c0) and lower == lower0
            assert same_bits(Sigma, ref)
            assert counted.flops == metered.flops == prde_flops(4, m, d)


class TestCountCosts:
    def test_exact_totals_and_ratio(self):
        model = random_stationary_model(103, r=5, S=2, m=1)
        report = count_costs(model, n_periods=3)
        kal = report.cost("kalman")
        assert kal.steps == 6
        assert kal.flops == 6 * prde_flops(5, 1, 5)
        a = report.alpha
        assert report.cost("chand31").flops == 6 * chand_direct_flops(5, 1, a)
        assert report.cost("chand32").flops == 6 * chand_direct_flops(5, 1, a)
        assert report.cost("chand-minv").flops == 6 * chand_minv_flops(5, 1, a)
        want = kal.flops / report.cost("chand31").flops
        assert report.ratio_vs_kalman("chand31") == pytest.approx(want)
        assert report.flops_per_step("kalman") == pytest.approx(kal.flops / 6)
        assert report.flops_per_period("kalman") == pytest.approx(
            kal.flops / 3)

    def test_deterministic(self):
        model = random_stationary_model(104, r=4, S=3, m=2)
        a = count_costs(model, 2)
        b = count_costs(model, 2)
        for ca, cb in zip(a.costs, b.costs):
            assert ca.flops == cb.flops

    def test_argument_validation(self):
        model = random_stationary_model(105, r=3, S=1, m=1)
        with pytest.raises(ValueError):
            count_costs(model, 0)
        with pytest.raises(ValueError):
            count_costs(model, 1, engines=("sorcery",))
        with pytest.raises(ValueError, match="no engine given"):
            count_costs(model, 1, engines=())

    def test_nonstationary_model_starts_from_zero(self):
        # no stored W1 and no stationary covariance: count_costs starts
        # its engines from a zero covariance, a start filter_series
        # refuses
        model = random_stationary_model(7000, r=2, S=2, m=1)
        model.F = [2.0 * f for f in model.F]
        report = count_costs(model, 2)
        assert [c.engine for c in report.costs] == list(ENGINES)
        assert report.alpha == 2
        with pytest.raises(NotStationary):
            filter_series(model, np.zeros((4, 1)))

    def test_kalman_only_reports_no_alpha(self):
        model = random_stationary_model(106, r=3, S=1, m=1)
        report = count_costs(model, 1, engines=("kalman",))
        assert report.alpha is None
        with pytest.raises(KeyError):
            report.cost("chand31")


class TestScalingTable:
    def test_par_family_slopes(self):
        table = scaling_table(par_family(S=2, seed=7), [8, 16, 32],
                              engines=("kalman", "chand31"), n_periods=2)
        assert [row.r for row in table.rows] == [8, 16, 32]
        assert all(row.alpha == 2 for row in table.rows)
        assert 2.5 < table.slopes["kalman"] < 3.3
        assert 1.5 < table.slopes["chand31"] < 2.3

    def test_single_size_has_no_slope(self):
        table = scaling_table(par_family(S=2, seed=7), [6],
                              engines=("kalman",), n_periods=1)
        assert table.slopes["kalman"] is None


class TestRendering:
    def test_cost_table_text(self):
        model = random_stationary_model(107, r=4, S=2, m=1)
        report = count_costs(model, 2)
        text = format_cost_table(report)
        for name in ("kalman", "chand31", "chand32", "chand-minv"):
            assert name in text
        assert "flops/step" in text and "O(r^3)" in text
        header, rows = cost_report_rows(report)
        assert all(len(row) == len(header) for row in rows)

    def test_scaling_table_text(self):
        table = scaling_table(par_family(S=2, seed=7), [6, 12],
                              engines=("kalman", "chand31"), n_periods=1)
        text = format_scaling_table(table)
        assert "log-log slope [kalman]:" in text
        header, rows = scaling_table_rows(table)
        assert all(len(row) == len(header) for row in rows)


class TestStoredW1Start:
    """``count_costs`` starts from the covariance ``filter_series``
    starts from: a stored W1 comes first, so the low-rank engines meter
    the factor width a filter run uses (eigen start, alpha = r, on this
    model, where the stationary W_1 would give the gain form's S m)."""

    @pytest.fixture
    def model(self):
        model = random_stationary_model(110, r=5, S=2, m=1)
        model.W1 = np.eye(5)
        return model

    def test_alpha_is_the_filter_engine_alpha(self, model, monkeypatch):
        import periodickf.filtering as filtering_module

        make_engine = filtering_module._make_engine
        built = []

        def recorded_make_engine(*args):
            built.append(make_engine(*args))
            return built[-1]

        monkeypatch.setattr(filtering_module, "_make_engine",
                            recorded_make_engine)
        filter_series(model, np.zeros((4, 1)), engine="chand31")
        assert built[0].alpha == 5
        assert count_costs(model, 2).alpha == built[0].alpha

    def test_bench_command_prints_filter_alpha(self, model, tmp_path,
                                               capsys):
        path = tmp_path / "model.json"
        save_model(model, path)
        assert main(["bench", str(path), "--periods", "1"]) == 0
        assert "alpha=5 " in capsys.readouterr().out
