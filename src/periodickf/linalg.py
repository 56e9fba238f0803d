"""Dense linear-algebra primitives with optional flop metering.

Every covariance recursion in this package routes its matrix arithmetic
through the helpers below so that the benchmark module can meter it.
When no counter is active the helpers are thin wrappers around the
corresponding numpy/scipy calls; activating a counter only increments a
tally, so numerical results are bitwise identical with metering on or
off.

Accounting rules (exact integers, charged per call):

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

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import OmegaNotPD

# Relative eigenvalue threshold below which a nominally PD matrix is
# rejected.
PD_RTOL = 1e-12


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
    w = np.linalg.eigvalsh(a)
    if w[-1] <= 0.0 or w[0] <= PD_RTOL * w[-1]:
        raise OmegaNotPD(
            f"innovation covariance: eigenvalues in [{w[0]:.6e}, "
            f"{w[-1]:.6e}] fail the positive-definiteness threshold "
            f"(min > {PD_RTOL:g} * max)")


def spd_factor(a: np.ndarray):
    """Gate ``a`` as symmetric positive definite and Cholesky-factor it.

    Raises :class:`OmegaNotPD` when ``a`` fails the definiteness gate.
    Every SPD system in this package is an innovation covariance, hence
    the error type. Returns the factor in ``scipy.linalg.cho_factor``
    form, for :func:`factor_solve` and :func:`factor_logdet`.
    """
    _pd_gate(a)
    try:
        factor = scipy.linalg.cho_factor(a, lower=True)
    except scipy.linalg.LinAlgError as exc:  # borderline cases the gate let by
        raise OmegaNotPD(
            "innovation covariance: Cholesky factorization failed") from exc
    _charge(a.shape[0] ** 3 // 3)
    return factor


def factor_solve(factor, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` given ``factor = spd_factor(a)``."""
    n = factor[0].shape[0]
    _charge(2 * n * n * _ncols(np.asarray(b)))
    return scipy.linalg.cho_solve(factor, b)


def factor_logdet(factor) -> float:
    """Return ``log det a`` given ``factor = spd_factor(a)``."""
    return 2.0 * float(np.sum(np.log(np.diag(factor[0]))))


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive definite ``a``."""
    return factor_solve(spd_factor(a), b)


def sym_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric (possibly indefinite) ``a``."""
    n = a.shape[0]
    x = scipy.linalg.solve(a, b, assume_a="sym")
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
