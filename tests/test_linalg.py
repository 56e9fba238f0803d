"""The Cholesky helpers against the scipy wrappers they replace.

``spd_factor`` and ``factor_solve`` call LAPACK ``potrf``/``potrs``
directly; their results must be bitwise those of
``scipy.linalg.cho_factor(lower=True)`` and ``cho_solve``, and every
check those wrappers made must still raise.
"""

import numpy as np
import pytest
import scipy.linalg

import periodickf.linalg as linalg_module
from periodickf import OmegaNotPD
from periodickf.linalg import factor_logdet, factor_solve, spd_factor


def random_spd(rng, m: int) -> np.ndarray:
    A = rng.normal(size=(m, m))
    return A @ A.T + 0.1 * np.eye(m)


def right_hand_sides(rng, m: int):
    """1-D, 2-D and transposed-view right-hand sides of height m."""
    K = rng.normal(size=(5, m))
    return {"1-D": rng.normal(size=m), "2-D": rng.normal(size=(m, 3)),
            "K.T": K.T, "eye": np.eye(m)}


@pytest.mark.parametrize("m", range(1, 7))
def test_bitwise_equal_to_scipy(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(5):
        a = random_spd(rng, m)
        factor = spd_factor(a)
        want = scipy.linalg.cho_factor(a, lower=True)
        assert factor[1] is True and want[1] is True
        assert factor[0].tobytes() == want[0].tobytes()
        assert factor_logdet(factor) == factor_logdet(want)
        for name, b in right_hand_sides(rng, m).items():
            got = factor_solve(factor, b)
            ref = scipy.linalg.cho_solve(want, b)
            assert got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("m", [1, 3])
def test_upper_factor_is_honoured(m):
    rng = np.random.default_rng(7)
    a = random_spd(rng, m)
    upper = scipy.linalg.cho_factor(a, lower=False)
    for name, b in right_hand_sides(rng, m).items():
        got = factor_solve(upper, b)
        assert got.tobytes() == scipy.linalg.cho_solve(upper, b).tobytes(), \
            name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_raises_value_error(bad, monkeypatch):
    # with the gate off, so the finite check itself is reached
    monkeypatch.setattr(linalg_module, "_pd_gate", lambda a: None)
    a = np.eye(3)
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        spd_factor(a)
    with pytest.raises(ValueError):
        scipy.linalg.cho_factor(a, lower=True)


def test_infinite_matrix_passes_gate_and_raises_value_error():
    # eigvalsh gives NaN eigenvalues, which the gate's comparisons let by
    with pytest.raises(ValueError, match="infs or NaNs"):
        spd_factor(np.diag([1.0, np.inf]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_right_hand_side_or_factor_raises_value_error(bad):
    rng = np.random.default_rng(8)
    factor = spd_factor(random_spd(rng, 3))
    for b in (np.array([1.0, bad, 0.0]), np.full((3, 2), bad)):
        with pytest.raises(ValueError, match="right-hand side"):
            factor_solve(factor, b)
        with pytest.raises(ValueError):
            scipy.linalg.cho_solve(factor, b)
    c = factor[0].copy()
    c[2, 0] = bad
    with pytest.raises(ValueError, match="Cholesky factor"):
        factor_solve((c, True), np.ones(3))


def test_wrong_height_raises_value_error():
    factor = spd_factor(np.eye(3))
    with pytest.raises(ValueError):
        factor_solve(factor, np.ones(4))


def test_potrf_failure_past_the_gate_raises_omega_not_pd(monkeypatch):
    monkeypatch.setattr(linalg_module, "_pd_gate", lambda a: None)
    for a in (np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
              np.zeros((1, 1))):
        with pytest.raises(OmegaNotPD, match="Cholesky factorization"):
            spd_factor(a)
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(a, lower=True)


def test_gate_still_rejects_before_factoring():
    with pytest.raises(OmegaNotPD, match="eigenvalues"):
        spd_factor(np.diag([1.0, 1e-14]))
