import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodickf import (
    ModelFormatError,
    ParModel,
    PeriodicModel,
    load_model,
    model_from_dict,
    model_to_dict,
    par_from_dict,
    par_to_dict,
    par_to_state_space,
    random_stationary_par,
    save_model,
    simulate,
    validate,
    validate_par,
)
from periodickf.kalman import solve_dple
from periodickf.linalg import psd_sqrt
from conftest import random_stationary_model


def step_by_step_simulate(model, n, seed, start="zero-state"):
    """``simulate`` as a per-step loop: step t draws its m measurement
    normals, then its d state normals, after the r normals of a
    stationary start. The reference for the stream contract."""
    rng = np.random.default_rng(seed)
    sqQ = [psd_sqrt(np.asarray(q, dtype=float)) for q in model.Q]
    sqR = [psd_sqrt(np.asarray(rr, dtype=float)) for rr in model.R]
    if start == "stationary":
        x = psd_sqrt(solve_dple(model)[0]) @ rng.standard_normal(model.r)
    else:
        x = np.zeros(model.r)
    xs = np.empty((n, model.r))
    ys = np.empty((n, model.m))
    for t in range(1, n + 1):
        F, G, H, _, _ = model.at(t)
        i = model.season(t) - 1
        xs[t - 1] = x
        ys[t - 1] = H.T @ x + sqR[i] @ rng.standard_normal(model.m)
        x = F @ x + G @ (sqQ[i] @ rng.standard_normal(model.d))
    return xs, ys


class TestSeasonArithmetic:
    def test_season_cycles(self):
        model = random_stationary_model(0, r=2, S=4)
        assert [model.season(t) for t in range(1, 10)] == [1, 2, 3, 4, 1, 2, 3, 4, 1]

    def test_single_season(self):
        model = random_stationary_model(1, r=2, S=1)
        assert all(model.season(t) == 1 for t in range(1, 8))

    def test_time_starts_at_one(self):
        model = random_stationary_model(1, r=2, S=2)
        with pytest.raises(ValueError):
            model.season(0)

    def test_at_returns_season_matrices(self):
        model = random_stationary_model(2, r=3, S=3)
        F, G, H, Q, R = model.at(5)
        assert F is model.F[1] and Q is model.Q[1]


class TestValidate:
    def test_valid_model_is_clean(self):
        assert validate(random_stationary_model(3)) == []

    def test_reports_wrong_list_length(self):
        model = random_stationary_model(4, S=3)
        model.F = model.F[:2]
        msgs = validate(model)
        assert any("F" in v and "3" in v for v in msgs)

    def test_reports_wrong_shape(self):
        model = random_stationary_model(5, r=3, m=2)
        model.H[0] = model.H[0].T
        assert any("H[1]" in v for v in validate(model))

    def test_reports_indefinite_q(self):
        model = random_stationary_model(6, S=2)
        model.Q[1] = -np.eye(model.d)
        msgs = validate(model)
        assert any("Q[2]" in v and "positive semidefinite" in v for v in msgs)

    def test_reports_asymmetric_r(self):
        model = random_stationary_model(7, m=2)
        model.R[0] = model.R[0] + np.triu(np.ones((2, 2)), k=1)
        assert any("R[1]" in v and "symmetric" in v for v in validate(model))

    def test_reports_nonfinite(self):
        model = random_stationary_model(8)
        model.F[0][0, 0] = np.nan
        assert any("finite" in v for v in validate(model))

    def test_reports_bad_dims(self):
        model = random_stationary_model(9)
        model.r = 0
        assert any("r" in v for v in validate(model))

    def test_numpy_dimension_shown_plain(self):
        model = random_stationary_model(9)
        model.m = np.int64(0)
        assert validate(model) == ["m must be a positive integer, got 0"]

    def test_w1_checked_when_present(self):
        model = random_stationary_model(10, r=2)
        model.W1 = np.ones((3, 3))
        assert any("W1" in v for v in validate(model))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 4), st.integers(0, 3))
    def test_total_on_mangled_models(self, seed, which, mangle):
        # validate must return a list, never raise, whatever we break
        model = random_stationary_model(seed % 50, r=2, S=2)
        rng = np.random.default_rng(seed)
        name = ["F", "G", "H", "Q", "R"][which]
        seq = getattr(model, name)
        if mangle == 0:
            seq[0] = np.full_like(seq[0], np.inf)
        elif mangle == 1:
            seq[0] = rng.normal(size=(1, 7))
        elif mangle == 2:
            setattr(model, name, [])
        else:
            model.S = -1
        assert isinstance(validate(model), list)


class TestParConversion:
    def test_shapes_and_structure(self):
        par = random_stationary_par(S=4, p=3, seed=0)
        model = par_to_state_space(par)
        assert (model.S, model.r, model.m, model.d) == (4, 3, 1, 1)
        e1 = np.zeros((3, 1))
        e1[0, 0] = 1.0
        for s in range(4):
            assert np.array_equal(model.H[s], e1)
            assert np.array_equal(model.G[s], e1)
            assert np.array_equal(model.R[s], np.zeros((1, 1)))
            assert np.array_equal(model.F[s][1:, :-1], np.eye(2))
            assert np.array_equal(model.F[s][1:, -1:], np.zeros((2, 1)))

    def test_season_shift(self):
        # the transition out of season s applies the coefficients of
        # season s+1 (cyclically) and injects that season's shock
        par = ParModel(S=2, p=1, phi=np.array([[0.3], [0.7]]),
                       sigma2=np.array([1.0, 4.0]))
        model = par_to_state_space(par)
        assert model.F[0][0, 0] == 0.7 and model.F[1][0, 0] == 0.3
        assert model.Q[0][0, 0] == 4.0 and model.Q[1][0, 0] == 1.0

    def test_rejects_invalid(self):
        par = ParModel(S=1, p=1, phi=np.array([[0.5]]), sigma2=np.array([-1.0]))
        with pytest.raises(ValueError):
            par_to_state_space(par)
        assert any("sigma2" in v for v in validate_par(par))

    def test_sigma2_shown_plain(self):
        par = ParModel(S=2, p=1, phi=np.array([[0.5], [0.3]]),
                       sigma2=np.array([1.0, -1.0]))
        assert validate_par(par) == ["sigma2[2] must be positive, got -1.0"]

    def test_state_space_matches_difference_equation(self):
        # drive the PAR recursion and its state-space embedding with the
        # same shock sequence; outputs must agree to rounding
        par = random_stationary_par(S=2, p=2, seed=3)
        model = par_to_state_space(par)
        phi = np.asarray(par.phi, dtype=float)
        sig = np.asarray(par.sigma2, dtype=float)
        rng = np.random.default_rng(11)
        eps = rng.normal(size=13)
        eps[0] = eps[1] = 0.0  # so y1 = y2 = 0 on both sides
        y = [0.0, 0.0]
        for tau in range(3, 13):
            s0 = (tau - 1) % 2
            y.append(phi[s0, 0] * y[-1] + phi[s0, 1] * y[-2]
                     + np.sqrt(sig[s0]) * eps[tau - 1])
        x = np.zeros(2)
        ys = []
        for tau in range(1, 13):
            ys.append(x[0])
            s0 = (tau - 1) % 2
            shock = np.sqrt(model.Q[s0][0, 0]) * eps[tau]
            x = model.F[s0] @ x + model.G[s0][:, 0] * shock
        assert np.allclose(ys, y, atol=1e-12)


class TestSimulate:
    def test_deterministic_under_seed(self):
        model = random_stationary_model(12)
        x1, y1 = simulate(model, 50, seed=99)
        x2, y2 = simulate(model, 50, seed=99)
        assert np.array_equal(y1, y2) and np.array_equal(x1, x2)

    def test_shapes(self):
        model = random_stationary_model(13, r=3, m=2)
        x, y = simulate(model, 17, seed=0)
        assert x.shape == (17, 3) and y.shape == (17, 2)

    def test_noise_free_zero_start_stays_zero(self):
        model = random_stationary_model(14, r=2, m=1)
        model.Q = [np.zeros_like(q) for q in model.Q]
        model.R = [np.zeros_like(r) for r in model.R]
        x, y = simulate(model, 10, seed=0, start="zero-state")
        assert np.all(y == 0) and np.all(x == 0)

    def test_unknown_start_rejected(self):
        model = random_stationary_model(15, r=2)
        with pytest.raises(ValueError):
            simulate(model, 5, seed=0, start="midair")
        with pytest.raises(ValueError):
            simulate(model, -1, seed=0)

    # n = 2 and n = S: one step, and a run whose last step writes the
    # last work row; d = 3r: a state-noise block wider than F; radius
    # 1.05 and 1.5: non-stationary models, so zero-state only, and at
    # n = 300 so that the state has time to grow
    @pytest.mark.parametrize("start, radius, d, n", [
        *[(start, None, "r+1", n) for start in ("zero-state", "stationary")
          for n in (0, 1, 2, "S", "S+1", 300)],
        ("zero-state", None, "3r", 300),
        *[("stationary", None, "3r", n) for n in (2, "S", 300)],
        ("zero-state", 1.05, "r+1", 300), ("zero-state", 1.5, "r+1", 300)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize("S", [1, 3])
    def test_matches_step_by_step_reference(self, S, r, m, start, radius,
                                            d, n):
        n = {"S": S, "S+1": S + 1}.get(n, n)
        d = r + 1 if d == "r+1" else 3 * r
        model = random_stationary_model(100 * S + 10 * r + m, r=r, S=S,
                                        m=m, d=d, radius=radius)
        x, y = simulate(model, n, seed=5, start=start)
        x_ref, y_ref = step_by_step_simulate(model, n, 5, start)
        assert x.shape == x_ref.shape and y.shape == y_ref.shape
        # fresh C-ordered arrays: no (n, r + d) work buffer is kept alive
        for got in (x, y):
            assert got.flags.c_contiguous and got.base is None
        for got, ref in ((x, x_ref), (y, y_ref)):
            scale = np.max(np.abs(ref), initial=0.0)
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * scale

    def test_stationary_start_matches_marginal_variance(self):
        # scalar AR(1) with phi = 0.5, sigma2 = 1: Var(y) = 1/(1-0.25) = 4/3
        par = ParModel(S=1, p=1, phi=np.array([[0.5]]), sigma2=np.array([1.0]))
        model = par_to_state_space(par)
        _, y = simulate(model, 200_000, seed=7, start="stationary")
        assert abs(np.var(y) - 4.0 / 3.0) < 0.05


class TestSerialization:
    def test_model_round_trip(self, tmp_path):
        model = random_stationary_model(16, r=3, S=2, m=2)
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, PeriodicModel)
        for a, b in zip(model.F + model.Q, back.F + back.Q):
            assert np.array_equal(a, b)

    def test_par_round_trip(self):
        par = random_stationary_par(S=3, p=2, seed=4)
        back = par_from_dict(par_to_dict(par))
        assert back.S == 3 and back.p == 2
        assert np.array_equal(np.asarray(par.phi), np.asarray(back.phi))
        assert np.asarray(par.sigma2) == pytest.approx(np.asarray(back.sigma2))

    def test_load_dispatches_on_phi_key(self, tmp_path):
        par = random_stationary_par(S=2, p=1, seed=5)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(par_to_dict(par)))
        assert isinstance(load_model(path), ParModel)

    def test_malformed_raises_model_format_error(self):
        with pytest.raises(ModelFormatError):
            model_from_dict({"S": 1, "r": 1})
        with pytest.raises(ModelFormatError):
            par_from_dict({"S": 1, "p": 1, "phi": [[0.5]], "sigma2": "x"})

    def test_format_error_is_value_error(self):
        assert issubclass(ModelFormatError, ValueError)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_par_dict_round_trip_exact(self, S, p, seed):
        par = random_stationary_par(S=S, p=p, seed=seed)
        back = par_from_dict(par_to_dict(par))
        assert np.array_equal(np.asarray(par.phi, dtype=float),
                              np.asarray(back.phi, dtype=float))


def _par(**fields):
    return ParModel(**{"S": 2, "p": 1, "phi": np.array([[0.5], [0.3]]),
                       "sigma2": np.array([1.0, 2.0]), **fields})


def _state_space(name, value):
    model = random_stationary_model(17, r=2, S=2, m=1)
    setattr(model, name, value)
    return model


_GOOD_DICT = model_to_dict(random_stationary_model(18, r=1, S=1, m=1))
_GOOD_PAR_DICT = {"S": 2, "p": 1, "phi": [[0.5], [0.3]], "sigma2": [1, 2]}


class TestRejections:
    """Each message of the validators and the loaders: ``validate`` and
    ``validate_par`` list it, ``load_model`` raises it."""

    @pytest.mark.parametrize("subject, message", [
        (_state_space("F", [np.eye(2), "x"]), "F[2] must be a 2x2 matrix"),
        (_state_space("G", 3), "G is not a sequence of 2 matrices"),
        (_par(S=0), "S must be a positive integer, got 0"),
        (_par(phi="x"), "phi must be an 2x1 array"),
        (_par(phi=np.array([[0.5], [np.nan]])), "phi has non-finite entries"),
        (_par(sigma2=[[1.0], [1.0, 2.0]]), "sigma2 must be a length-2 array"),
        (_par(sigma2=np.ones(3)), "sigma2 must be a length-2 array"),
        ([], "model file must hold a JSON object"),
        ({**_GOOD_DICT, "S": "one"}, "field 'S' must be an integer"),
        ({**_GOOD_DICT, "r": 1.5}, "field 'r' must be an integer"),
        ({k: v for k, v in _GOOD_DICT.items() if k != "d"},
         "missing field 'd'"),
        ({k: v for k, v in _GOOD_DICT.items() if k != "H"},
         "missing field 'H'"),
        ({**_GOOD_DICT, "F": 0.5}, "field 'F' must be a list of matrices"),
        ({**_GOOD_DICT, "Q": [[["a"]]]}, "Q[1] is not a numeric array"),
        ({**_GOOD_DICT, "W1": [[1.0], [1.0, 2.0]]},
         "W1 is not a numeric array"),
        ({"S": 2, "p": 1, "phi": [[0.5], [0.3]]}, "missing field 'sigma2'"),
        ({**_GOOD_PAR_DICT, "phi": [[0.5], [0.3, 0.1]]},
         "phi/sigma2 are not numeric arrays"),
    ])
    def test_message(self, subject, message, tmp_path):
        if isinstance(subject, ParModel):
            assert message in validate_par(subject)
        elif isinstance(subject, PeriodicModel):
            assert message in validate(subject)
        else:
            path = tmp_path / "m.json"
            path.write_text(json.dumps(subject))
            with pytest.raises(ModelFormatError) as info:
                load_model(path)
            assert str(info.value) == message


class TestRandomStationaryPar:
    def test_is_stationary(self):
        from periodickf import is_periodically_stationary
        for seed in range(5):
            par = random_stationary_par(S=4, p=2, seed=seed)
            ok, rho = is_periodically_stationary(par_to_state_space(par))
            assert ok and rho <= 0.9 + 1e-12

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError, match="S must be a positive integer"):
            random_stationary_par(0, 2, 1)
