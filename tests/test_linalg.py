"""The LAPACK helpers against the scipy wrappers they replace.

``spd_factor`` and ``factor_solve`` call LAPACK ``potrf``/``potrs``
directly, and ``sym_solve`` calls ``sytrf``/``sytrs``; their results
must be bitwise those of ``scipy.linalg.cho_factor(lower=True)``,
``cho_solve`` and ``solve(assume_a="sym")``, and every check those
wrappers made must still raise.  The per-step code makes its products
through bound ``ndarray.dot``, which must match ``@`` bitwise on every
operand layout it uses.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

import periodickf.linalg as linalg_module
from periodickf import OmegaNotPD, count_flops
from periodickf.linalg import (_solve, factor_logdet, factor_solve,
                               spd_factor, sym_solve)


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
        with pytest.raises(ValueError, match="right-hand side"):
            linalg_module._solve(factor, b)     # the step kernels' solve
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


def eigvalsh_gate(a):
    """``_pd_gate`` with its eigenvalues from ``eigvalsh`` at every
    size, as it read before a 1 x 1 matrix took its entry."""
    w = np.linalg.eigvalsh(a)
    if w[-1] <= 0.0 or w[0] <= linalg_module.PD_RTOL * w[-1]:
        raise OmegaNotPD(
            f"innovation covariance: eigenvalues in [{w[0]:.6e}, "
            f"{w[-1]:.6e}] fail the positive-definiteness threshold "
            f"(min > {linalg_module.PD_RTOL:g} * max)")


def factor_outcome(a):
    """The factor ``spd_factor(a)`` returns, or the error it raises."""
    try:
        c, lower = spd_factor(a)
    except (OmegaNotPD, ValueError) as exc:
        return type(exc), str(exc)
    return c.tobytes(), lower


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -2.5, np.inf, np.nan,
                                   1.0, 1e300])
def test_one_by_one_gate_reads_the_entry(value, monkeypatch):
    a = np.array([[value]])
    got = factor_outcome(a)
    monkeypatch.setattr(linalg_module, "_pd_gate", eigvalsh_gate)
    assert got == factor_outcome(a)
    if np.isnan(value):     # past the gate, the finite check raises
        assert got == (ValueError,
                       "matrix to factor must not contain infs or NaNs")


def random_symmetric(rng, n: int) -> np.ndarray:
    """Symmetric and indefinite."""
    A = rng.normal(size=(n, n))
    return A + A.T


@pytest.mark.parametrize("n", [1, 2, 8, 24, 96])
def test_sym_solve_bitwise_equal_to_scipy(n):
    # n = 96 takes the blocked factorization (block size 64)
    rng = np.random.default_rng(200 + n)
    for _ in range(5):
        a = random_symmetric(rng, n)
        # only the upper triangle is read
        skew = np.triu(a) + np.tril(rng.normal(size=(n, n)), -1)
        for name, b in right_hand_sides(rng, n).items():
            for mat in (a, skew):
                got = sym_solve(mat, b)
                want = scipy.linalg.solve(mat, b, assume_a="sym")
                assert got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
                assert got.flags.c_contiguous == want.flags.c_contiguous


def test_sym_solve_queries_the_workspace_once_per_order(monkeypatch):
    queried = []

    def counting_lwork(n, lower):
        queried.append(n)
        return real_lwork(n, lower=lower)

    real_lwork = linalg_module._sytrf_lwork
    monkeypatch.setattr(linalg_module, "_sytrf_lwork", counting_lwork)
    linalg_module._sytrf_optimal_lwork.cache_clear()
    try:
        rng = np.random.default_rng(11)
        for n in (3, 96, 3, 96, 3):
            a = random_symmetric(rng, n)
            b = rng.normal(size=n)
            got = sym_solve(a, b)
            assert got.tobytes() == scipy.linalg.solve(
                a, b, assume_a="sym").tobytes()
    finally:
        linalg_module._sytrf_optimal_lwork.cache_clear()
    assert queried == [3, 96]


def test_sym_solve_charges_per_call():
    for n, b in ((1, np.ones(1)), (1, np.ones((1, 3))), (4, np.ones(4))):
        with count_flops() as c:
            sym_solve(2.0 * np.eye(n), b)
        assert c.flops == n ** 3 // 3 + 2 * n * n * (b.size // n)


@pytest.mark.parametrize("a", [np.zeros((1, 1)), np.zeros((3, 3)),
                               np.ones((2, 2)), np.diag([1.0, 0.0, 2.0])],
                         ids=["zero-1x1", "zero-3x3", "ones", "zero-pivot"])
def test_sym_solve_singular_raises_lin_alg_error(a):
    b = np.ones(a.shape[0])
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.solve(a, b, assume_a="sym")
    with pytest.raises(scipy.linalg.LinAlgError, match="singular"):
        sym_solve(a, b)


def test_sym_solve_warns_when_ill_conditioned():
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    d = np.array([1e-18, 1.0, -2.0, 3.0, -4.0, 5.0])
    a = Q @ np.diag(d) @ Q.T
    a = 0.5 * (a + a.T)
    b = np.ones(6)
    with pytest.warns(scipy.linalg.LinAlgWarning):
        want = scipy.linalg.solve(a, b, assume_a="sym")
    with pytest.warns(scipy.linalg.LinAlgWarning, match="ill-conditioned"):
        got = sym_solve(a, b)
    assert got.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sym_solve(random_symmetric(rng, 6), b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [1, 3])
def test_sym_solve_non_finite_input_raises_value_error(bad, n):
    rng = np.random.default_rng(10)
    a, b = random_symmetric(rng, n), np.ones(n)
    a_bad = a.copy()
    a_bad[n - 1, 0] = bad       # for n > 1 below the diagonal: not read
    b_bad = b.copy()
    b_bad[0] = bad
    for args in ((a_bad, b), (a, b_bad)):
        with pytest.raises(ValueError):
            scipy.linalg.solve(*args, assume_a="sym")
        with pytest.raises(ValueError, match="infs or NaNs"):
            sym_solve(*args)


def kernel_products(rng, r: int, m: int, a: int, draw):
    """The (left, right) operands of every product the per-step code
    makes through ``ndarray.dot``, by site, laid out as that code lays
    them out: C-contiguous model matrices and results, transposed views
    (``H.T``, ``Y.T``, ``U.T``, ``F.T``, ``G.T``), a (1, r) row for
    ``H.T`` at m = 1, single-column ``K`` and ``U`` at m = 1, and the
    ``potrs`` solutions ``B`` and ``Omega^{-1} K'``.  ``draw(shape)``
    makes the entries."""
    F, H, Sigma, Y, M = (draw((r, r)), draw((r, m)), draw((r, r)),
                         draw((r, a)), draw((a, a)))
    G, Q, K, x, w, e = (draw((r, 3)), draw((3, 3)), draw((r, m)), draw(r),
                        draw(m), draw(m))
    factor = spd_factor(random_spd(rng, m))
    U = Y.T.dot(H)
    T = M.dot(U)
    B = _solve(factor, U.T)
    return {
        # filtering.filter_series: the state update and e' w
        "H.T x": (H.T, x), "F x": (F, x), "K w": (K, w), "e w": (e, w),
        # chandrasekhar._step
        "Y.T H": (Y.T, H), "M U": (M, U), "Y T": (Y, T),
        "U.T T": (U.T, T), "F (Y T)": (F, Y.dot(T)), "F Y": (F, Y),
        "K B": (K, B), "U B": (U, B),
        "T (Omega^-1 T.T)": (T, _solve(factor, T.T)),
        # kalman._covariance_update
        "Sigma H": (Sigma, H), "H.T U": (H.T, Sigma.dot(H)),
        "F U": (F, Sigma.dot(H)), "F Sigma": (F, Sigma),
        "(F Sigma) F.T": (F.dot(Sigma), F.T),
        "K (Omega^-1 K.T)": (K, _solve(factor, K.T)), "G Q": (G, Q),
        "(G Q) G.T": (G.dot(Q), G.T),
    }


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 24, 48, 128])
def test_dot_is_bitwise_matmul_on_kernel_layouts(r, m):
    rng = np.random.default_rng(300 + 10 * r + m)

    def nonzero(shape):
        return rng.normal(size=shape)

    def with_zeros(shape):
        v = rng.normal(size=shape)
        v[rng.random(size=shape) < 0.3] = 0.0
        return v

    for a in sorted({1, 2, 8, r}):
        for draw in (nonzero, with_zeros):
            for name, (x, y) in kernel_products(rng, r, m, a, draw).items():
                got, want = x.dot(y), x @ y
                layout = (f"{name}: {x.shape} {x.strides} . {y.shape} "
                          f"{y.strides}, {draw.__name__}")
                assert np.array_equal(got, want), layout
                # the one exception: an exactly zero product of two
                # one-element operands, which dot returns as multiplied
                # and @ adds to +0.0
                if draw is nonzero or x.size > 1 or y.size > 1:
                    assert got.tobytes() == want.tobytes(), layout
