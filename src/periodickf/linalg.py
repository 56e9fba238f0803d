"""Dense linear-algebra primitives with optional flop metering.

The arithmetic helpers below (``matmul``, ``add``, ``sub``,
``symmetrize``, the solves) charge their documented cost to the active
counter on every call; they remain for the benchmark replay and the
one-off solves.  The per-step code (the covariance steps in
:mod:`periodickf.kalman` and :mod:`periodickf.chandrasekhar`, and the
filter loop) evaluates the same expressions with numpy's elementwise
operators and makes every matrix product through the operand's bound
``ndarray.dot``, which skips the ufunc dispatch of ``@`` (about half
the cost of a product of these small operands).  It charges what the
helpers would charge in one sum, once per step (the filter loop once
per call); ``spd_factor`` and ``sym_solve``, which it still calls,
charge their own share.  So its results and counts are bitwise those of
the helper-by-helper code, with one exception: ``dot`` multiplies two
one-element operands directly where ``@`` accumulates from +0.0, so
such a product that is exactly zero may come out as -0.0 where ``@``
gives 0.0.  Such a product reaches an output only when the state
dimension r is 1: a season with F = 0, say, then gives gains of -0.0
where ``@`` gave 0.0; the values compare equal.  ``tests/test_linalg.py``
checks ``dot`` against ``@`` on every operand layout the per-step code
uses.  Activating a counter only increments a tally, so numerical
results are bitwise identical with metering on or off.

The Cholesky helpers call LAPACK ``potrf``/``potrs`` directly (the
double-precision routines ``scipy.linalg.cho_factor``/``cho_solve``
call, with the same ``lower=1, clean=0`` arguments, fetched once at
import), so their results are bitwise those of the scipy wrappers
without the wrappers' per-call cost.  The checks those wrappers made
are made here:

* a non-finite matrix or right-hand side raises ``ValueError``;
* ``potrf`` reporting a non-positive leading minor (``info > 0``)
  raises :class:`OmegaNotPD`, after the eigenvalue gate ``_pd_gate``;
* LAPACK reporting an illegal argument (``info < 0``) raises
  ``ValueError``, as does a right-hand side of the wrong height.

The step code solves through ``_solve``, which runs these checks only
when ``potrs``'s status or a non-finite solution flags a problem.

``sym_solve`` calls ``sytrf``/``sytrs`` on the upper triangle, bitwise
``scipy.linalg.solve(a, b, assume_a="sym")`` (with the optimal
``sytrf`` workspace, queried once per order), with that function's
checks written out: non-finite input raises ``ValueError``, a singular
``a`` (``sytrf`` ``info > 0``, or a zero 1 x 1 ``a``, which takes the
scalar path ``b / a``) raises ``LinAlgError``, and a reciprocal
condition estimate (``sycon`` with the ``lange`` 1-norm) below machine
epsilon emits ``LinAlgWarning``.

Accounting rules (exact integers):

* product of an (a, b) matrix by a (b, c) matrix: ``2*a*b*c`` flops
  (a matrix-vector product is the ``c = 1`` case);
* symmetric positive-definite solve of size n with k right-hand sides:
  ``n**3 // 3 + 2*n*n*k`` (Cholesky factorization plus two triangular
  sweeps); a factorization alone charges ``n**3 // 3``;
* symmetric indefinite solve: same rate as the SPD solve (Bunch-Kaufman
  factorization has the same leading cost);
* elementwise add/subtract, including the addition inside
  ``symmetrize``: one flop per element.

Transposes, scalar scalings, and the definiteness gate in ``spd_factor``
are not charged.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg
from numpy.linalg import LinAlgError
from scipy.linalg import LinAlgWarning

from .exceptions import OmegaNotPD

# Relative eigenvalue threshold below which a nominally PD matrix is
# rejected.
PD_RTOL = 1e-12

# The float64 LAPACK routines behind ``scipy.linalg.cho_factor`` and
# ``cho_solve`` and behind ``scipy.linalg.solve(assume_a="sym")``,
# called without their wrappers.
(_potrf, _potrs, _sytrf, _sytrf_lwork, _sytrs, _sycon,
 _lange) = scipy.linalg.get_lapack_funcs(
    ("potrf", "potrs", "sytrf", "sytrf_lwork", "sytrs", "sycon", "lange"),
    dtype=np.float64)
_EPS = float(np.finfo(np.float64).eps)


@cache
def _sytrf_optimal_lwork(n: int) -> int:
    """``sytrf``'s optimal workspace for order n (upper triangle).  It
    depends on n alone, so each order is queried once; the cache holds
    one integer per order used."""
    return int(_sytrf_lwork(n, lower=0)[0])


@dataclass
class FlopCounter:
    flops: int = 0

    def charge(self, n: int) -> None:
        self.flops += n


_ACTIVE: ContextVar[FlopCounter | None] = ContextVar("periodickf_flops",
                                                     default=None)


@contextmanager
def count_flops():
    """Context manager activating a fresh :class:`FlopCounter`.

    Yields the counter; helpers called inside the block add their cost
    to it. Counters nest (the innermost one wins).
    """
    counter = FlopCounter()
    token = _ACTIVE.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE.reset(token)


def _charge(n: int) -> None:
    counter = _ACTIVE.get()
    if counter is not None:
        counter.flops += int(n)


def _ncols(b: np.ndarray) -> int:
    return b.shape[1] if b.ndim == 2 else 1


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _charge(2 * a.shape[0] * a.shape[1] * _ncols(b))
    return a @ b


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _charge(a.size)
    return a + b


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _charge(a.size)
    return a - b


def symmetrize(a: np.ndarray) -> np.ndarray:
    _charge(a.size)
    return 0.5 * (a + a.T)


def _pd_gate(a: np.ndarray) -> None:
    # the eigenvalue LAPACK returns for a 1 x 1 matrix is its entry
    w = a[0] if a.shape == (1, 1) else np.linalg.eigvalsh(a)
    if w[-1] <= 0.0 or w[0] <= PD_RTOL * w[-1]:
        raise OmegaNotPD(
            f"innovation covariance: eigenvalues in [{w[0]:.6e}, "
            f"{w[-1]:.6e}] fail the positive-definiteness threshold "
            f"(min > {PD_RTOL:g} * max)")


def _require_finite(a, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must not contain infs or NaNs")


def spd_factor(a: np.ndarray):
    """Gate ``a`` as symmetric positive definite and Cholesky-factor it.

    Raises :class:`OmegaNotPD` when ``a`` fails the definiteness gate
    or its factorization, and ``ValueError`` when ``a`` is not finite.
    Every SPD system in this package is an innovation covariance, hence
    the error type. Returns the factor in ``scipy.linalg.cho_factor``
    form ``(c, lower)``, bitwise ``cho_factor(a, lower=True)``, for
    :func:`factor_solve` and :func:`factor_logdet`.
    """
    _pd_gate(a)
    _require_finite(a, "matrix to factor")
    c, info = _potrf(a, lower=1, clean=0)
    if info > 0:        # borderline cases the gate let by
        raise OmegaNotPD(
            "innovation covariance: Cholesky factorization failed "
            f"({info}-th leading minor not positive definite)")
    if info < 0:
        raise ValueError(f"potrf: illegal value in argument {-info}")
    _charge(a.shape[0] ** 3 // 3)
    return c, True


def factor_solve(factor, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` given ``factor = spd_factor(a)``; bitwise
    ``scipy.linalg.cho_solve(factor, b)``."""
    c, lower = factor
    n = c.shape[0]
    _charge(2 * n * n * _ncols(np.asarray(b)))
    _require_finite(c, "Cholesky factor")
    _require_finite(b, "right-hand side")
    return _solve(factor, b)


def _solve(factor, b: np.ndarray) -> np.ndarray:
    """:func:`factor_solve` without its charge, its input checks run
    only when ``potrs`` reports an error or the solution is not finite
    (which a non-finite right-hand side always makes it; the factors
    ``spd_factor`` makes are finite)."""
    c, lower = factor
    x, info = _potrs(c, b, lower=lower)
    if info or not np.isfinite(x).all():
        _require_finite(c, "Cholesky factor")
        _require_finite(b, "right-hand side")
        if info:
            raise ValueError(f"potrs: illegal value in argument {-info}")
    return x


def factor_logdet(factor) -> float:
    """Return ``log det a`` given ``factor = spd_factor(a)``."""
    return 2.0 * float(np.sum(np.log(factor[0].diagonal())))


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive definite ``a``."""
    return factor_solve(spd_factor(a), b)


def sym_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric (possibly indefinite) ``a``, read
    from its upper triangle; bitwise ``scipy.linalg.solve(a, b,
    assume_a="sym")``, with its checks (see the module docstring)."""
    _require_finite(a, "matrix")
    _require_finite(b, "right-hand side")
    n = a.shape[0]
    if n == 1:
        if a[0, 0] == 0:
            raise LinAlgError("A singular matrix detected.")
        x = b / a[0, 0]
    else:
        # with the optimal workspace, as scipy: above the block size a
        # smaller one changes the factorization's rounding
        lu, ipiv, info = _sytrf(a, lower=0, lwork=_sytrf_optimal_lwork(n))
        if info > 0:
            raise LinAlgError("A singular matrix detected: sytrf found "
                              f"D({info},{info}) exactly zero.")
        if info < 0:
            raise ValueError(f"sytrf: illegal value in argument {-info}")
        x, info = _sytrs(lu, ipiv, b[:, None] if b.ndim == 1 else b,
                         lower=0)
        if info < 0:
            raise ValueError(f"sytrs: illegal value in argument {-info}")
        rcond, _ = _sycon(lu, ipiv, _lange("1", a), lower=0)
        if rcond < _EPS:
            warnings.warn(f"An ill-conditioned matrix detected: rcond = "
                          f"{rcond}.", LinAlgWarning, stacklevel=2)
        # scipy returns the solution in C order
        x = x[:, 0] if b.ndim == 1 else np.ascontiguousarray(x)
    _charge(n ** 3 // 3 + 2 * n * n * _ncols(np.asarray(b)))
    return x


# --- uncounted utilities ---------------------------------------------------

def rel_err(a: np.ndarray | float, b: np.ndarray | float) -> float:
    """Frobenius-norm difference scaled by ``1 + max(norm a, norm b)``.

    The ``1 +`` keeps the measure meaningful for near-zero quantities;
    this is the single notion of "relative" used across the package.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / (1.0 + max(na, nb))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Negative eigenvalues from roundoff are clipped to zero.
    """
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def spectral_radius(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))
