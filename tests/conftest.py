from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from periodickf import PeriodicModel, filter_series

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


def traced_run(model, y, Sigma1, engine: str = "kalman"):
    """``filter_series`` from xhat = 0 and ``Sigma1``, recording the
    covariance trace."""
    return filter_series(model, y, engine=engine, init="explicit",
                         xhat1=np.zeros(model.r), Sigma1=Sigma1,
                         sigma_trace=True)


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
