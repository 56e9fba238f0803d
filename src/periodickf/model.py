"""Periodic linear state-space models.

A model of period ``S`` couples an r-dimensional latent state ``x`` to an
m-dimensional observation ``y`` through

    x[t+1] = F_s x[t] + G_s eps[t]
    y[t]   = H_s' x[t] + e[t],          s = season(t),

where ``eps`` (d-dimensional) and ``e`` are zero-mean white noises with
season-dependent covariances ``Q_s`` and ``R_s``, and
``season(t) = ((t - 1) mod S) + 1`` for t = 1, 2, ....  All system
matrices repeat with period S.  ``H_s`` is stored as an r-by-m matrix and
applied transposed, matching the display above.

The module also covers periodic autoregressions (one output, one noise):
a PAR model of order p specifies, per season, coefficients
``phi[s] = (phi_1 .. phi_p)`` and an innovation variance ``sigma2[s]`` for

    y[t] = sum_j phi_j^(season(t)) y[t-j] + eps[t].

``par_to_state_space`` embeds this in the state-space form with the lagged
outputs stacked in the state.

JSON schemas (the on-disk formats the command line tool reads):

* state-space model: ``{"S", "r", "m", "d", "F", "G", "H", "Q", "R"}``
  with the matrix fields holding S row-major 2-D arrays each
  (F: r x r, G: r x d, H: r x m, Q: d x d, R: m x m), plus an optional
  ``"W1"`` (r x r) initial state covariance;
* PAR model: ``{"S", "p", "phi", "sigma2"}`` with ``phi`` an S x p array
  and ``sigma2`` a length-S positive array.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import json

import numpy as np

from .linalg import _band_solve, psd_sqrt

# Validation tolerances: symmetry relative to the matrix norm, eigenvalue
# floor relative to the spectral norm.
SYM_RTOL = 1e-12
EIG_FLOOR_RTOL = 1e-10

# ``simulate`` solves its state recursion as one banded system when r is
# at most ``_BAND_MAX_R`` (the cutover of the ``simulate`` sweep of
# ``tools/state_pass_sweep.py`` in BENCH_32.json, by the state pass's
# rule over r), and makes one product per step otherwise.
_BAND_MAX_R = 8


@dataclass
class PeriodicModel:
    """Season-indexed system matrices. Fields F, G, H, Q, R are lists of
    length S; entry ``[s-1]`` belongs to season s."""

    S: int
    r: int
    m: int
    d: int
    F: list
    G: list
    H: list
    Q: list
    R: list
    W1: np.ndarray | None = None

    def season(self, t: int) -> int:
        if t < 1:
            raise ValueError("time indices start at 1")
        return (t - 1) % self.S + 1

    def at(self, t: int):
        """System matrices (F, G, H, Q, R) active at time t."""
        i = self.season(t) - 1
        return self.F[i], self.G[i], self.H[i], self.Q[i], self.R[i]


@dataclass
class ParModel:
    """Periodic autoregression: S seasons, order p, coefficients ``phi``
    (S x p) and innovation variances ``sigma2`` (length S)."""

    S: int
    p: int
    phi: np.ndarray
    sigma2: np.ndarray


class ModelFormatError(ValueError):
    """A model file / dict could not be decoded into a model object."""


def _plain(val) -> str:
    """``repr`` of a value, with a numpy scalar shown as the Python one."""
    return repr(val.item() if isinstance(val, np.generic) else val)


def _dim_violations(**dims) -> list[str]:
    """One message per dimension that is not a positive integer."""
    return [f"{name} must be a positive integer, got {_plain(val)}"
            for name, val in dims.items()
            if isinstance(val, bool) or not isinstance(val, (int, np.integer))
            or val < 1]


def _sym_psd_violations(arr: np.ndarray, label: str,
                        sym_rtol: float = SYM_RTOL,
                        eig_floor_rtol: float = EIG_FLOOR_RTOL) -> list[str]:
    """One message per failed covariance condition: asymmetry above
    ``sym_rtol`` of the Frobenius norm, or an eigenvalue below
    ``-eig_floor_rtol`` times the spectral radius."""
    out = []
    asym = float(np.linalg.norm(arr - arr.T))
    norm = float(np.linalg.norm(arr))
    if asym > sym_rtol * norm:
        out.append(f"{label} is not symmetric "
                   f"(relative asymmetry {asym / max(norm, 1e-300):.3e})")
    w = np.linalg.eigvalsh(0.5 * (arr + arr.T))
    spectral = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -eig_floor_rtol * spectral:
        out.append(f"{label} is not positive semidefinite "
                   f"(smallest eigenvalue {w[0]:.6e})")
    return out


def _matrix_violations(entry, label: str, shape: tuple[int, int],
                       covariance: bool) -> list[str]:
    """Shape and finiteness of one matrix; symmetric PSD too when it is a
    covariance."""
    try:
        arr = np.asarray(entry, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape:
        return [f"{label} must be a {shape[0]}x{shape[1]} matrix"]
    if not np.all(np.isfinite(arr)):
        return [f"{label} has non-finite entries"]
    return _sym_psd_violations(arr, label) if covariance else []


def validate(model: PeriodicModel) -> list[str]:
    """Check a model against its structural contract.

    Returns a list of human-readable violations, empty when the model is
    well formed. Never raises: any finite numeric content, of whatever
    shape, yields messages rather than exceptions.

    Checked: positive dimensions; each of F, G, H, Q, R a length-S
    sequence of finite matrices of the right shape; Q, R (and W1 when
    present) symmetric within 1e-12 of their norm with no eigenvalue
    below -1e-10 times their spectral norm.
    """
    S, r, m, d = model.S, model.r, model.m, model.d
    violations = _dim_violations(S=S, r=r, m=m, d=d)
    if violations:
        return violations
    shapes = {"F": (r, r), "G": (r, d), "H": (r, m), "Q": (d, d), "R": (m, m)}
    for name, shape in shapes.items():
        seq = getattr(model, name, None)
        try:
            count = len(seq)
        except TypeError:
            violations.append(f"{name} is not a sequence of {S} matrices")
            continue
        if count != S:
            violations.append(f"{name} has {count} entries, expected S={S}")
            continue
        for s in range(1, S + 1):
            violations.extend(_matrix_violations(
                seq[s - 1], f"{name}[{s}]", shape, name in ("Q", "R")))
    if model.W1 is not None:
        violations.extend(_matrix_violations(model.W1, "W1", (r, r), True))
    return violations


def validate_par(par: ParModel) -> list[str]:
    """Structural check for a PAR model; same total-function contract as
    :func:`validate`."""
    violations = _dim_violations(S=par.S, p=par.p)
    if violations:
        return violations
    try:
        phi = np.asarray(par.phi, dtype=float)
    except (TypeError, ValueError):
        phi = None
    if phi is None or phi.shape != (par.S, par.p):
        violations.append(f"phi must be an {par.S}x{par.p} array")
    elif not np.all(np.isfinite(phi)):
        violations.append("phi has non-finite entries")
    try:
        sigma2 = np.asarray(par.sigma2, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        sigma2 = None
    if sigma2 is None or sigma2.shape != (par.S,):
        violations.append(f"sigma2 must be a length-{par.S} array")
    else:
        for s in range(1, par.S + 1):
            if not np.isfinite(sigma2[s - 1]) or sigma2[s - 1] <= 0.0:
                violations.append(f"sigma2[{s}] must be positive, "
                                  f"got {_plain(sigma2[s - 1])}")
    return violations


def _require_valid_par(problems: list[str]) -> None:
    if problems:
        raise ValueError("invalid PAR model: " + "; ".join(problems))


def _companion(coeffs: np.ndarray) -> np.ndarray:
    p = coeffs.shape[0]
    F = np.zeros((p, p))
    F[0, :] = coeffs
    if p > 1:
        F[1:, :-1] = np.eye(p - 1)
    return F


def par_to_state_space(par: ParModel) -> PeriodicModel:
    """Embed a PAR model in the periodic state-space form.

    The state stacks the p most recent outputs,
    ``x[t] = (y[t], y[t-1], .., y[t-p+1])'``, so F is a companion matrix,
    H picks the first coordinate, the state noise enters through the
    first coordinate only, and there is no measurement noise.

    Because the state transition here maps t to t+1 while the PAR
    difference equation describes y[t+1] in terms of season(t+1), the
    coefficients (and innovation variance) of season s+1 (cyclically)
    are assigned to F and Q at season s.
    """
    _require_valid_par(validate_par(par))
    S, p = par.S, par.p
    phi = np.asarray(par.phi, dtype=float).reshape(S, p)
    sigma2 = np.asarray(par.sigma2, dtype=float).reshape(-1)
    e1 = np.zeros((p, 1))
    e1[0, 0] = 1.0
    F, Q = [], []
    for s in range(1, S + 1):
        nxt = s % S  # 0-based index of season s+1
        F.append(_companion(phi[nxt]))
        Q.append(np.array([[sigma2[nxt]]]))
    H = [e1.copy() for _ in range(S)]
    G = [e1.copy() for _ in range(S)]
    R = [np.zeros((1, 1)) for _ in range(S)]
    return PeriodicModel(S=S, r=p, m=1, d=1, F=F, G=G, H=H, Q=Q, R=R)


def simulate(model: PeriodicModel, n: int, seed: int,
             start: str = "zero-state") -> tuple[np.ndarray, np.ndarray]:
    """Draw a length-n trajectory (states, outputs) from the model.

    Parameters
    ----------
    model : PeriodicModel
        Must pass :func:`validate`.
    n : int
        Number of time steps (t = 1..n).
    seed : int
        Seeds ``numpy.random.default_rng``; identical seeds give
        identical draws. All noise is drawn at once as an n x (m + d)
        standard normal array whose row t - 1 holds step t's
        measurement noise followed by its state noise, the stream a
        per-step draw of m then d normals would consume; with
        ``start="stationary"`` the r normals of the initial state are
        drawn first.
    start : {"zero-state", "stationary"}
        Zero initial state, or an initial state drawn from the periodic
        stationary distribution at season 1 (requires a stationary
        model).

    Returns
    -------
    (x, y) : arrays of shape (n, r) and (n, m).

    Notes
    -----
    The state recursion ``x_{t+1} - F_s x_t = G_s sqrt(Q_s) eps_t``,
    eps_t the d state normals of noise row t - 1, takes one of two
    forms, chosen by r against ``_BAND_MAX_R`` (the cutover of the
    sweep of ``tools/state_pass_sweep.py`` in BENCH_32.json).  At or
    below it, the right-hand sides are formed with one matrix product
    per season and all n - 1 steps are one unit lower block-bidiagonal
    system, solved by ``linalg._band_solve`` (the kernel of the filter's
    state pass) a chunk of steps at a time; if its values are not all
    finite, the loop below reruns the steps, so an overflowing state
    gives the loop's values and warnings.  Above it, row t - 1 of a work
    array holds ``[x_t, eps_t]`` and each season keeps one r x (r + d)
    matrix ``[F_s, G_s sqrt(Q_s)]``, so that step t writes x_{t+1} into
    row t as one matrix-vector product, 2r(r + d) flops.  The two forms
    sum the same terms in another order, so they agree to rounding (to
    about 1e-13 of the largest entry in the tests).  The outputs ``H_s'
    x + sqrt(R_s) e`` are formed with one matrix product per season.
    These products round differently from a loop that draws and
    multiplies at every step, so values agree with it over the same
    draws to rounding, not bitwise.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if start not in ("zero-state", "stationary"):
        raise ValueError(f"unknown start {start!r}")
    S, r, m = model.S, model.r, model.m
    rng = np.random.default_rng(seed)
    if start == "stationary":
        from .kalman import solve_dple
        x1 = psd_sqrt(solve_dple(model)[0]) @ rng.standard_normal(r)
    else:
        x1 = np.zeros(r)
    noise = rng.standard_normal((n, m + model.d))
    GQ = [np.asarray(G, dtype=float).dot(psd_sqrt(np.asarray(Q, dtype=float)))
          for G, Q in zip(model.G, model.Q)]
    xs = None
    if r <= _BAND_MAX_R:
        # x_{t+1} - F_s x_t = G_s Q_s^(1/2) eps_t, t = 1..n-1, solved as
        # one banded system; the state normals of the last row drive no
        # returned state
        xs = np.empty((n, r))
        xs[:1] = x1
        eps = noise[:n - 1, m:]
        for i, gq in enumerate(GQ):
            xs[1 + i::S] = eps[i::S].dot(gq.T)
        _band_solve(xs, np.negative(model.F))
        finite = np.isfinite(xs)
        if np.count_nonzero(finite) != finite.size:
            xs = None
    if xs is None:
        work = np.empty((n, r + model.d))
        work[:1, :r] = x1
        work[:, r:] = noise[:, m:]
        M_dots = [np.hstack([F, gq]).dot for F, gq in zip(model.F, GQ)]
        for M_dot, row, nxt in zip(itertools.cycle(M_dots), work,
                                   work[1:, :r]):
            M_dot(row, nxt)
        xs = work[:, :r].copy()
    ys = np.empty((n, m))
    for i in range(S):
        sqR = psd_sqrt(np.asarray(model.R[i], dtype=float))
        H = np.asarray(model.H[i], dtype=float)
        ys[i::S] = xs[i::S].dot(H) + noise[i::S, :m].dot(sqR.T)
    return xs, ys


def random_stationary_par(S: int, p: int, seed: int) -> ParModel:
    """Draw a PAR model whose state-space embedding is periodically
    stationary (monodromy spectral radius below 0.9).

    Coefficients are drawn once and shrunk geometrically until the
    radius condition holds, so the result is deterministic per seed.
    S and p must be positive integers (``ValueError`` otherwise).
    """
    from .kalman import monodromy
    from .linalg import spectral_radius

    _require_valid_par(_dim_violations(S=S, p=p))
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-1.0, 1.0, (S, p)) * (0.5 ** np.arange(1, p + 1))
    sigma2 = rng.uniform(0.5, 1.5, S)
    for _ in range(200):
        par = ParModel(S=S, p=p, phi=phi.copy(), sigma2=sigma2.copy())
        rho = spectral_radius(monodromy(par_to_state_space(par)))
        if rho < 0.9:
            return par
        phi = phi * 0.7
    raise RuntimeError("could not shrink PAR coefficients into the "
                       "stationary region")  # pragma: no cover


# --- JSON serialization -----------------------------------------------------

def _int_field(data: dict, key: str) -> int:
    if key not in data:
        raise ModelFormatError(f"missing field {key!r}")
    val = data[key]
    try:
        ival = int(val)
    except (TypeError, ValueError):
        raise ModelFormatError(f"field {key!r} must be an integer") from None
    if ival != val:
        raise ModelFormatError(f"field {key!r} must be an integer")
    return ival


def _matrix_seq(data: dict, key: str) -> list[np.ndarray]:
    if key not in data:
        raise ModelFormatError(f"missing field {key!r}")
    raw = data[key]
    if not isinstance(raw, (list, tuple)):
        raise ModelFormatError(f"field {key!r} must be a list of matrices")
    out = []
    for i, entry in enumerate(raw, start=1):
        try:
            out.append(np.asarray(entry, dtype=float))
        except (TypeError, ValueError):
            raise ModelFormatError(
                f"{key}[{i}] is not a numeric array") from None
    return out


def model_from_dict(data: dict) -> PeriodicModel:
    """Decode the state-space JSON schema. Shape problems are left for
    :func:`validate` to report; only undecodable content raises
    :class:`ModelFormatError`."""
    S = _int_field(data, "S")
    r = _int_field(data, "r")
    m = _int_field(data, "m")
    d = _int_field(data, "d")
    mats = {key: _matrix_seq(data, key) for key in ("F", "G", "H", "Q", "R")}
    W1 = None
    if data.get("W1") is not None:
        try:
            W1 = np.asarray(data["W1"], dtype=float)
        except (TypeError, ValueError):
            raise ModelFormatError("W1 is not a numeric array") from None
    return PeriodicModel(S=S, r=r, m=m, d=d, W1=W1, **mats)


def model_to_dict(model: PeriodicModel) -> dict:
    data = {
        "S": int(model.S), "r": int(model.r),
        "m": int(model.m), "d": int(model.d),
    }
    for key in ("F", "G", "H", "Q", "R"):
        data[key] = [np.asarray(a, dtype=float).tolist()
                     for a in getattr(model, key)]
    if model.W1 is not None:
        data["W1"] = np.asarray(model.W1, dtype=float).tolist()
    return data


def par_from_dict(data: dict) -> ParModel:
    S = _int_field(data, "S")
    p = _int_field(data, "p")
    for key in ("phi", "sigma2"):
        if key not in data:
            raise ModelFormatError(f"missing field {key!r}")
    try:
        phi = np.asarray(data["phi"], dtype=float)
        sigma2 = np.asarray(data["sigma2"], dtype=float)
    except (TypeError, ValueError):
        raise ModelFormatError("phi/sigma2 are not numeric arrays") from None
    return ParModel(S=S, p=p, phi=phi, sigma2=sigma2)


def par_to_dict(par: ParModel) -> dict:
    return {
        "S": int(par.S), "p": int(par.p),
        "phi": np.asarray(par.phi, dtype=float).tolist(),
        "sigma2": np.asarray(par.sigma2, dtype=float).tolist(),
    }


def load_model(path) -> PeriodicModel | ParModel:
    """Read either JSON schema from ``path``; the presence of a ``phi``
    field selects the PAR schema."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ModelFormatError("model file must hold a JSON object")
    if "phi" in data:
        return par_from_dict(data)
    return model_from_dict(data)


def save_model(obj: PeriodicModel | ParModel, path) -> None:
    data = par_to_dict(obj) if isinstance(obj, ParModel) else model_to_dict(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
