from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import periodickf.filtering as filtering_module
import periodickf.linalg as linalg_module
from periodickf import (FilterOutput, MSingular, OmegaNotPD, PeriodicModel,
                        filter_series)
from periodickf.filtering import (_coerce_observations, _initial_conditions,
                                  _logdets, _make_engine, _quadratic_forms)
from periodickf.linalg import (_tbsv, add, factor_logdet, factor_solve, matmul,
                               sub)

ROOT = Path(__file__).resolve().parents[1]


def declared_scripts() -> dict[str, str]:
    """The ``[project.scripts]`` table of pyproject.toml as
    ``{name: "module:attr"}``."""
    scripts, inside = {}, False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, target = line.split("=", 1)
            scripts[name.strip()] = target.strip().strip('"\'')
    return scripts


@pytest.fixture(scope="session", autouse=True)
def console_scripts(tmp_path_factory):
    """Put a launcher for each declared console script on PATH, running
    this checkout's entry point, so tests can call the scripts as an
    installed package would provide them; and put this checkout's
    ``src`` first on PYTHONPATH, so ``python -m periodickf`` in a
    subprocess imports it too."""
    bindir = tmp_path_factory.mktemp("bin")
    for name, target in declared_scripts().items():
        module, attr = target.split(":")
        launcher = bindir / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n")
        launcher.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        yield bindir


@pytest.fixture(autouse=True)
def cold_start_memo():
    """Every test starts with an empty start memo, so that no test's
    outcome depends on which test ran before it."""
    filtering_module._START_MEMO = None


@pytest.fixture
def eigvals_log(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.eigvals``."""
    log = []
    eigvals = np.linalg.eigvals

    def counting_eigvals(a):
        log.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    return log


@pytest.fixture
def start_log(monkeypatch):
    """``(method, alpha)`` of each start factorization ``filter_series``
    makes while the test runs."""
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
def step_log(monkeypatch):
    """The times t at which ``filter_series`` called its engine's step."""
    make_engine = filtering_module._make_engine
    log = []

    def recorded_make_engine(*args):
        eng = make_engine(*args)
        step = eng.step

        def counted_step(t):
            log.append(t)
            return step(t)

        eng.step = counted_step
        return eng

    monkeypatch.setattr(filtering_module, "_make_engine",
                        recorded_make_engine)
    return log


def traced_run(model, y, Sigma1, engine: str = "kalman"):
    """``filter_series`` from xhat = 0 and ``Sigma1``, recording the
    covariance trace."""
    return filter_series(model, y, engine=engine, init="explicit",
                         xhat1=np.zeros(model.r), Sigma1=Sigma1,
                         sigma_trace=True)


def unfrozen_filter(model, y, engine: str = "kalman",
                    init: str = "zero-state", xhat1=None, Sigma1=None,
                    sigma_trace: bool = False) -> FilterOutput:
    """``filter_series`` without the steady-gain switch: the engine built
    by ``_make_engine`` is stepped at every t, whatever its ``settled``
    flag says, and the state pass's own expressions are applied to what
    it returns: the normalized gain ``B = K Omega^{-1}`` (from the
    engine's ``KtilT`` when it made that solve), ``e_1 = y_1 - H_1'
    xhat_1``, and per step a fresh matrix ``M_t = [[F, B, 0], [-H_next'
    F, -H_next' B, I]]`` (``H_next`` of the season after step t); then
    the states (``unfrozen_states``), and the log-determinants and
    quadratic forms ``e' Omega^{-1} e`` from the stack of Omega
    factors.  An engine error at step t is raised after the states of
    steps 1..t-1, so a non-finite innovation among them comes first."""
    y2 = _coerce_observations(y, model.m)
    n, m, r = y2.shape[0], model.m, model.r
    x, Sigma1v, W = _initial_conditions(model, init, xhat1, Sigma1)
    eng = _make_engine(model, engine, Sigma1v, W, sigma_trace)
    Omegas = np.empty((n, m, m))
    Ks = np.empty((n, r, m))
    sigmas = np.empty((n, r, r)) if sigma_trace else None
    Ls = np.empty((n, m, m))
    Ms, error = [], None
    for t in range(1, n + 1):
        try:
            K, Omega, factor, Sigma = eng.step(t)
        except (OmegaNotPD, MSingular) as exc:
            exc.locate(t, model.season(t))
            error = exc
            break
        F = model.F[(t - 1) % model.S]
        negHT = -model.H[t % model.S].T
        KtilT = eng.KtilT
        if KtilT is None:
            KtilT = factor_solve(factor, K.T)
        B = KtilT.T
        M = np.zeros((r + m, r + 2 * m))
        M[:r, :r] = F
        M[r:, :r] = negHT.dot(F)
        M[r:, r + m:] = np.eye(m)
        M[:r, r:r + m] = B
        M[r:, r:r + m] = negHT.dot(B)
        Ms.append(M)
        Ls[t - 1] = factor[0]
        Omegas[t - 1] = Omega
        Ks[t - 1] = K
        if sigma_trace:
            sigmas[t - 1] = Sigma
    xhat, innovations = unfrozen_states(model, y2[:len(Ms)], x, Ms)
    if error is not None:
        raise error
    terms = -0.5 * (m * float(np.log(2.0 * np.pi)) + _logdets(Ls)
                    + _quadratic_forms(Ls, innovations))
    return FilterOutput(engine=engine, n=n, innovations=innovations,
                        Omega=Omegas, K=Ks, xhat=xhat,
                        loglik=float(np.sum(terms)), sigma_trace=sigmas,
                        terms=terms)


def unfrozen_states(model, y, x, Ms):
    """``(xhat, innovations)`` over the rows of ``y`` from ``xhat_1 =
    x``, step t mapping ``z_t = [x; e]`` to ``M_t [z_t; y_{t+1}]``
    (``y_{n+1} = 0``).  When r + m is at most the state pass's cutover
    (``filtering._BAND_MAX_P``), the z_t are solved from the BLAS lower
    band of the system ``z_{t+1} - A_t z_t = [0; y_{t+1}]`` (``A_t``
    the first r + m columns of ``M_t``), in chunks of the pass's length
    with one ``tbsv`` call each: every chunk gets a band of its own,
    into which each step writes its block by the band's definition,
    entry (row, col) at ``(row - col, col)``.  Otherwise, or when that
    solution is not finite, row t - 1 of a work array holding ``[x,
    e, y_next]`` times ``M_t`` is written into row t; its first
    non-finite row raises ``ValueError`` naming the step."""
    (n, m), r = y.shape, model.r
    p = r + m
    work = np.zeros((n + 1, r + 2 * m))
    work[0, :r] = x
    if n == 0:
        return work[:, :r].copy(), np.empty((0, m))
    work[0, r:p] = y[0] - model.H[0].T.dot(x)
    work[:n - 1, p:] = y[1:]
    if p <= filtering_module._BAND_MAX_P:
        z = np.zeros((n + 1, p))
        z[0] = work[0, :p]
        z[1:n, r:] = y[1:]
        chunk = -(-linalg_module._BAND_STEPS // model.S) * model.S
        block = np.arange(p)
        for t0 in range(0, n, chunk):
            c = min(chunk, n - t0)
            ab = np.zeros((2 * p, (c + 1) * p), order="F")
            for tau in range(c):
                rows, cols = (tau + 1) * p + block[:, None], tau * p + block
                ab[rows - cols, cols] = -Ms[t0 + tau][:, :p]
            _tbsv(2 * p - 1, ab, z.reshape(-1), offx=t0 * p, lower=1,
                  diag=1, overwrite_x=1)
        if np.isfinite(z[:n]).all():
            return z[:, :r].copy(), z[:n, r:].copy()
    for t in range(1, n + 1):
        Ms[t - 1].dot(work[t - 1], out=work[t, :p])
    for t in range(1, n + 1):
        if not np.isfinite(work[t - 1, :p]).all():
            raise ValueError(f"innovation at t={t} (season "
                             f"{model.season(t)}) is not finite "
                             f"({work[t - 1, r:p]!r})")
    return work[:, :r].copy(), work[:n, r:p].copy()


def innovation_form_filter(model, y, engine: str = "kalman",
                           init: str = "zero-state", xhat1=None,
                           Sigma1=None,
                           sigma_trace: bool = False) -> FilterOutput:
    """The filter in innovation form, without the steady-gain switch:
    the engine built by ``_make_engine`` is stepped at every t, and each
    step forms ``e = y - H'x``, ``w = Omega^{-1} e``, ``x = F x + K w``
    and its term ``-1/2 (m log 2 pi + log det Omega + e'w)`` through the
    metered helpers.  ``filter_series`` evaluates the same filter with a
    cached normalized gain ``K Omega^{-1}`` and forms the terms after
    its loop; this is the reference it is checked against."""
    y2 = _coerce_observations(y, model.m)
    n = y2.shape[0]
    x, Sigma1v, W = _initial_conditions(model, init, xhat1, Sigma1)
    eng = _make_engine(model, engine, Sigma1v, W, sigma_trace)
    innovations = np.empty((n, model.m))
    Omegas = np.empty((n, model.m, model.m))
    Ks = np.empty((n, model.r, model.m))
    xhats = np.empty((n + 1, model.r))
    sigmas = np.empty((n, model.r, model.r)) if sigma_trace else None
    terms = np.empty(n)
    log_2pi = float(np.log(2.0 * np.pi))
    for t in range(1, n + 1):
        try:
            K, Omega, factor, Sigma = eng.step(t)
        except (OmegaNotPD, MSingular) as exc:
            exc.locate(t, model.season(t))
            raise
        F, _, H, _, _ = model.at(t)
        xhats[t - 1] = x
        e = sub(y2[t - 1], matmul(H.T, x))
        w = factor_solve(factor, e)
        x = add(matmul(F, x), matmul(K, w))
        terms[t - 1] = -0.5 * (e.size * log_2pi + factor_logdet(factor)
                               + float(e @ w))
        innovations[t - 1] = e
        Omegas[t - 1] = Omega
        Ks[t - 1] = K
        if sigma_trace:
            sigmas[t - 1] = Sigma
    xhats[n] = x
    return FilterOutput(engine=engine, n=n, innovations=innovations,
                        Omega=Omegas, K=Ks, xhat=xhats,
                        loglik=float(np.sum(terms)), sigma_trace=sigmas,
                        terms=terms)


def assert_bitwise_equal(out: FilterOutput, ref: FilterOutput) -> None:
    """``K``, ``Omega``, ``xhat``, ``innovations``, ``terms``, ``loglik``
    and the covariance trace of ``out`` equal ``ref``'s exactly."""
    for name in ("K", "Omega", "xhat", "innovations", "terms",
                 "sigma_trace"):
        got, want = getattr(out, name), getattr(ref, name)
        assert (got is None and want is None) or np.array_equal(got, want), \
            f"{out.engine}: {name} differs"
    assert out.loglik == ref.loglik, out.engine


def benchmark_round(name: str, seed: int, k: int):
    """Round ``k`` of benchmark workload ``name`` under ``seed``, built by
    ``perfbench/workloads.py`` (imported read-only)."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["perfbench_workloads"] = module
        spec.loader.exec_module(module)
    return module.build_round(name, seed, k)


def random_stationary_model(seed: int, r: int | None = None,
                            S: int | None = None, m: int | None = None,
                            d: int | None = None,
                            radius: float | None = None) -> PeriodicModel:
    """Random model with PD noise covariances, rescaled so the monodromy
    spectral radius hits a target below one (scaling every F_s by c
    scales the radius by c**S exactly)."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 7)) if r is None else r
    S = int(rng.integers(1, 5)) if S is None else S
    m = int(rng.integers(1, 3)) if m is None else m
    d = r if d is None else d
    radius = float(rng.uniform(0.3, 0.9)) if radius is None else radius

    F = [rng.normal(size=(r, r)) / np.sqrt(r) for _ in range(S)]
    Phi = np.eye(r)
    for f in F:
        Phi = f @ Phi
    rho = float(np.max(np.abs(np.linalg.eigvals(Phi))))
    if rho > 0.0:
        scale = (radius / rho) ** (1.0 / S)
        F = [scale * f for f in F]
    H = [rng.normal(size=(r, m)) for _ in range(S)]
    G = [rng.normal(size=(r, d)) for _ in range(S)]
    Q, R = [], []
    for _ in range(S):
        A = rng.normal(size=(d, d))
        Q.append(A @ A.T + 0.1 * np.eye(d))
        B = 0.5 * rng.normal(size=(m, m))
        R.append(B @ B.T + 0.3 * np.eye(m))
    return PeriodicModel(S=S, r=r, m=m, d=d, F=F, G=G, H=H, Q=Q, R=R)


@pytest.fixture
def scalar_model() -> PeriodicModel:
    """F = 0.5, G = H = Q = R = 1, W1 = 1: the hand-checked example."""
    one = np.array([[1.0]])
    return PeriodicModel(S=1, r=1, m=1, d=1,
                         F=[np.array([[0.5]])], G=[one.copy()],
                         H=[one.copy()], Q=[one.copy()], R=[one.copy()],
                         W1=one.copy())


def pinned_state_model() -> PeriodicModel:
    """S = 2, state (a, b) with a held fixed and b a random walk, both
    observed (H = I, W1 = I); season 2 observes a without noise.  Step 2
    pins a exactly, so the innovation covariance Omega_4 (season 2) is
    singular while Omega_1..Omega_3 are positive definite."""
    return PeriodicModel(S=2, r=2, m=2, d=1,
                         F=[np.eye(2)] * 2,
                         G=[np.array([[0.0], [1.0]])] * 2,
                         H=[np.eye(2)] * 2, Q=[np.eye(1)] * 2,
                         R=[np.eye(2), np.diag([0.0, 1.0])],
                         W1=np.eye(2))
