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
from periodickf import OmegaNotPD, count_flops, filter_series
from periodickf.linalg import (_solve, factor_logdet, factor_solve,
                               spd_factor, sym_solve)
from conftest import benchmark_round


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


def test_logdet_bitwise_equal_to_np_sum():
    rng = np.random.default_rng(11)
    for m in range(1, 25):
        for _ in range(20):
            factor = spd_factor(random_spd(rng, m))
            want = 2.0 * float(np.sum(np.log(factor[0].diagonal())))
            assert np.float64(factor_logdet(factor)).tobytes() \
                == np.float64(want).tobytes()


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


def gate_inputs():
    """Symmetric matrices of the kinds the gate sees: the innovation
    covariances of an m = 2 workload, random SPD matrices of sizes
    2-8 (some nearly singular, some indefinite), two sizes above
    ``syevd``'s block size, and non-finite ones."""
    rd = benchmark_round("estimate-m2", 1, 0)
    yield from filter_series(rd.model, rd.y).Omega
    rng = np.random.default_rng(31)
    for m in range(2, 9):
        for k in range(40):
            a = random_spd(rng, m)
            if k % 4 == 1:
                a[0, 0] = a[0, 0] - 1e16 * np.finfo(float).eps * a[0, 0]
            elif k % 4 == 2:
                a = random_symmetric(rng, m)
            yield a * 10.0 ** rng.integers(-100, 100)
    yield from (random_spd(rng, 40), random_spd(rng, 96))
    for bad in (np.nan, np.inf, -np.inf):
        a = np.eye(3)
        a[1, 0] = a[0, 1] = bad
        yield a
        yield np.full((2, 2), bad)


def test_gate_eigenvalues_bitwise_equal_to_eigvalsh():
    for a in gate_inputs():
        assert (linalg_module._eigvalsh(a).tobytes()
                == np.linalg.eigvalsh(a).tobytes()), a


def test_gate_decisions_and_messages_unchanged(monkeypatch):
    inputs = list(gate_inputs())
    got = [factor_outcome(a) for a in inputs]
    monkeypatch.setattr(linalg_module, "_pd_gate", eigvalsh_gate)
    assert got == [factor_outcome(a) for a in inputs]
    # factored, rejected by the gate and rejected as non-finite
    assert {g[0] if isinstance(g[0], type) else bytes for g in got} == \
        {bytes, OmegaNotPD, ValueError}


def test_gate_falls_back_to_numpy_when_syevd_fails(monkeypatch):
    monkeypatch.setattr(linalg_module, "_syevd",
                        lambda a, **kwargs: (np.zeros(len(a)), None, 1))
    a = random_spd(np.random.default_rng(5), 4)
    assert linalg_module._eigvalsh(a).tobytes() == \
        np.linalg.eigvalsh(a).tobytes()


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
    ``H.T`` at m = 1, single-column ``K`` and ``U`` at m = 1, the
    negated ``-H.T`` (F-contiguous, as negating the view makes it), the
    ``potrs`` solutions ``B``, ``Omega^{-1} K'`` and its transpose; and
    (left, right, out) where the product is written with ``out=``: the
    state pass's (r+m) x (r+2m) season matrix times row t - 1 of its
    work array, into the first r + m entries of row t.  A right operand
    with three axes is a stack, multiplied by one ``matmul`` where the
    per-step code multiplies each slice by ``dot``: the band form's
    ``-H'B_t`` over every S-th gain of a C-ordered (T, r, m) stack.
    ``draw(shape)`` makes the entries."""
    F, H, Sigma, Y, M = (draw((r, r)), draw((r, m)), draw((r, r)),
                         draw((r, a)), draw((a, a)))
    G, Q, K, x = draw((r, 3)), draw((3, 3)), draw((r, m)), draw(r)
    season, work, gain = (draw((r + m, r + 2 * m)), draw((3, r + 2 * m)),
                          draw((r, m)))
    gains = draw((7, r, m))
    factor = spd_factor(random_spd(rng, m))
    U = Y.T.dot(H)
    T = M.dot(U)
    B = _solve(factor, U.T)
    return {
        # filtering._state_pass: e_1, the season matrices' -H'F and
        # -H'B_t, and the one product per step above the band's cutover
        "H.T x": (H.T, x), "-H.T F": (-H.T, F), "-H.T B_t": (-H.T, gain),
        "M [x; e; y]": (season, work[0], work[1, :r + m]),
        # the band form of filtering._state_pass: -H'B_t over the steps
        # of one season
        "-H.T B_t stack": (-H.T, gains[1::3]),
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
            for name, (x, y, *out) in kernel_products(rng, r, m, a,
                                                       draw).items():
                if y.ndim == 3:
                    got, want = np.array([x.dot(b) for b in y]), x @ y
                else:
                    got, want = x.dot(y, *out), x @ y
                layout = (f"{name}: {x.shape} {x.strides} . {y.shape} "
                          f"{y.strides}, {draw.__name__}")
                assert np.array_equal(got, want), layout
                # the one exception: an exactly zero product of two
                # one-element operands, which dot returns as multiplied
                # and @ adds to +0.0
                right = y[0] if y.ndim == 3 else y
                if draw is nonzero or x.size > 1 or right.size > 1:
                    assert got.tobytes() == want.tobytes(), layout


def one_by_one_values():
    """Positive 1 x 1 entries: a derandomized draw of mantissas with
    exponents from -300 to 300, the subnormal range (down to the
    smallest, 5e-324), the largest normal values and powers of two."""
    rng = np.random.default_rng(2020)
    yield from rng.uniform(1.0, 10.0, 5000) * 10.0 ** rng.integers(
        -300, 301, 5000)
    yield from rng.uniform(0.0, 1.0, 500) * np.finfo(float).tiny
    tiny = np.finfo(float).smallest_subnormal
    yield from (tiny, 2 * tiny, 3 * tiny, np.finfo(float).tiny,
                np.nextafter(np.finfo(float).tiny, 0.0))
    huge = np.finfo(float).max
    yield from (huge, np.nextafter(huge, 0.0), 2.0 ** 1023, 1e308, 1.0, 0.5)
    yield from (2.0 ** k for k in range(-1074, 1024, 7))


def test_one_by_one_factor_bitwise_potrf():
    for value in one_by_one_values():
        a = np.array([[value]])
        assert value > 0.0
        c, lower = spd_factor(a)
        want, info = linalg_module._potrf(a, lower=1, clean=0)
        assert info == 0 and lower is True
        assert c.tobytes() == want.tobytes(), value
        assert c.shape == (1, 1) and c is not a


@pytest.mark.parametrize("value", [0.0, -0.0, -2.5, -5e-324, -1e308])
def test_one_by_one_factor_fails_where_potrf_fails(value, monkeypatch):
    monkeypatch.setattr(linalg_module, "_pd_gate", lambda a: None)
    a = np.array([[value]])
    assert linalg_module._potrf(a, lower=1, clean=0)[1] == 1
    with pytest.raises(OmegaNotPD) as info:
        spd_factor(a)
    assert str(info.value) == ("innovation covariance: Cholesky "
                               "factorization failed (1-th leading minor "
                               "not positive definite)")


def symmetrize_cases():
    """1 x 1 entries for the scalar symmetrization: signed zeros,
    subnormals, ordinary values, and both sides of the overflow of
    ``o + o`` at magnitude 2**1023."""
    edge = 2.0 ** 1023
    huge = np.finfo(float).max
    return [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -2.5, 1e300,
            np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0), edge, -edge,
            huge, -huge, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("value", symmetrize_cases())
def test_one_by_one_symmetrize_is_the_array_operation(value):
    a = np.array([[value]])
    with np.errstate(over="ignore"):
        want = 0.5 * (a + a.T)
        got = linalg_module._symmetrized(a.copy())
    assert got.tobytes() == want.tobytes()
    overflows = abs(value) >= 2.0 ** 1023 and np.isfinite(value)
    assert np.isinf(got[0, 0]) == (overflows or np.isinf(value))
    if not overflows:       # the identity, -0.0 and NaN included
        assert got.tobytes() == a.tobytes()


def test_one_by_one_symmetrize_overflow_warns_as_before():
    a = np.array([[2.0 ** 1023]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        0.5 * (a + a.T)
    with pytest.warns(RuntimeWarning, match="overflow"):
        linalg_module._symmetrized(a.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        linalg_module._symmetrized(np.array([[np.nextafter(2.0 ** 1023,
                                                           0.0)]]))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_symmetrize_larger_matrices_bitwise(n):
    a = np.random.default_rng(40 + n).normal(size=(n, n))
    assert (linalg_module._symmetrized(a.copy()).tobytes()
            == (0.5 * (a + a.T)).tobytes())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [1, 3])
def test_non_finite_messages_unchanged(bad, n, monkeypatch):
    monkeypatch.setattr(linalg_module, "_pd_gate", lambda a: None)
    a = np.diag(np.full(n, bad))
    with pytest.raises(ValueError) as info:
        spd_factor(a)
    assert str(info.value) == "matrix to factor must not contain infs or NaNs"
    factor = spd_factor(np.eye(n))
    b = np.ones((n, 2))
    b[n - 1, 1] = bad
    for solve in (factor_solve, _solve):
        with pytest.raises(ValueError) as info:
            solve(factor, b)
        assert str(info.value) == \
            "right-hand side must not contain infs or NaNs"
    c = factor[0].copy()
    c[n - 1, n - 1] = bad
    with pytest.raises(ValueError) as info:
        factor_solve((c, True), np.ones(n))
    assert str(info.value) == "Cholesky factor must not contain infs or NaNs"
    sym = np.eye(n)
    sym[0, n - 1] = bad     # upper triangle, which sym_solve reads
    with pytest.raises(ValueError) as info:
        sym_solve(sym, np.ones(n))
    assert str(info.value) == "matrix must not contain infs or NaNs"
    with pytest.raises(ValueError) as info:
        sym_solve(np.eye(n), b)
    assert str(info.value) == "right-hand side must not contain infs or NaNs"


@pytest.mark.parametrize("n", [1, 3])
def test_finite_solve_that_overflows_returns_inf_quietly(n):
    # potrs's own result: inf at n = 1; at n = 3 the zero off-diagonal
    # entries times inf make NaN
    factor = spd_factor(1e-300 * np.eye(n))
    b = np.full((n, 2), 1e300)
    want = linalg_module._potrs(factor[0], b, lower=True)[0]
    assert not np.isfinite(want).any()
    assert np.isposinf(want).all() == (n == 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (_solve(factor, b), factor_solve(factor, b)):
            assert x.tobytes() == want.tobytes()


# --- the Frobenius norm and the singular values without numpy's wrappers --

def norm_operands():
    """Operands of every layout and scale ``_fro_norm`` may meet."""
    rng = np.random.default_rng(520)
    base = rng.normal(size=(7, 5))
    out = {"C": base, "F": np.asfortranarray(base), "transposed": base.T,
           "strided": base[::2, ::3], "1-D": base[2], "1x1": base[:1, :1],
           "empty": np.zeros((0, 0)), "empty-rows": np.zeros((0, 3)),
           "signed-zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]),
           "subnormal": np.full((3, 3), 5e-324)}
    for scale in (1e-300, 1e-160, 1e150, 1e160, 1e300):
        out[f"scale{scale:g}"] = scale * base
        out[f"scale{scale:g}-F"] = np.asfortranarray(scale * base)
    for bad in (np.nan, np.inf, -np.inf):
        a = base.copy()
        a[3, 1] = bad
        out[f"{bad}"] = a
        out[f"{bad}-transposed"] = a.T
    both = base.copy()
    both[0, 0], both[1, 1] = np.inf, np.nan
    out["inf-and-nan"] = both
    return out


@pytest.mark.parametrize("name", list(norm_operands()))
def test_fro_norm_is_bitwise_numpy_norm(name):
    # with numpy's warnings too (an overflowing x'x warns in both)
    a = norm_operands()[name]
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = linalg_module._fro_norm(a)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = float(np.linalg.norm(a))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert ([(w.category, str(w.message)) for w in got_warnings]
            == [(w.category, str(w.message)) for w in want_warnings])


def singular_value_operands():
    """Symmetric matrices of orders 1-130 (random, and with spectra down
    to 1e-15) at scales 1e-200 to 1e200, and a few general ones."""
    rng = np.random.default_rng(521)
    for n in [*range(1, 21), 31, 32, 33, 63, 64, 65, 100, 127, 128, 129,
              130]:
        A = rng.normal(size=(n, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        graded = (q * np.logspace(0, -15, n)) @ q.T
        for kind, a in (("random", A + A.T), ("graded", graded + graded.T)):
            for scale in (1e-200, 1.0, 1e200):
                yield f"{kind}-{n}-{scale:g}", scale * a
    for shape in ((3, 5), (5, 3), (40, 7)):
        yield f"general-{shape}", rng.normal(size=shape)
    yield "F-order", np.asfortranarray(rng.normal(size=(6, 6)))
    yield "zero", np.zeros((4, 4))
    yield "inf", np.array([[np.inf, 1.0], [1.0, 2.0]])


def test_singular_values_bitwise_numpy_svd():
    for name, a in singular_value_operands():
        got = linalg_module._singular_values(a)
        want = np.linalg.svd(a, compute_uv=False)
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("a", [np.full((3, 3), np.nan), np.zeros((0, 0)),
                               np.zeros((0, 4))],
                         ids=["nan", "empty", "empty-rows"])
def test_singular_values_fall_back_to_numpy(a):
    # gesdd reports NaN input as an illegal argument (info = -4), and an
    # empty matrix is not handed to it: numpy's result or error stands
    try:
        want = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            linalg_module._singular_values(a)
    else:
        assert linalg_module._singular_values(a).tobytes() == want.tobytes()
