"""Dense linear-algebra primitives with optional flop metering.

The arithmetic helpers below (``matmul``, ``add``, ``sub``,
``symmetrize``, the solves) charge their documented cost to the active
counter on every call; they remain for the benchmark replay and the
one-off solves.  The covariance steps in :mod:`periodickf.kalman` and
:mod:`periodickf.chandrasekhar` evaluate the same expressions with
numpy's elementwise operators and make every matrix product through
the operand's bound ``ndarray.dot``, which skips the ufunc dispatch of
``@`` (about half the cost of a product of these small operands).
They charge what the helpers would charge in one sum, once per step;
``spd_factor`` and ``sym_solve``, which they still call, charge their
own share.  So their results and counts are bitwise those of the
helper-by-helper code.  The state pass in :mod:`periodickf.filtering`
makes its per-call products through ``ndarray.dot`` too, its per-step
ones through ``dot`` or, in its band form, one ``matmul`` per season
over a stack of gains (bitwise the per-step ``dot``) and
``_band_solve``, and charges its arithmetic once per call at the rates
below.  ``_band_solve`` is the one banded kernel: it solves a unit
lower block-bidiagonal recursion ``z_{t+1} = A_t z_t + b_{t+1}`` with
BLAS ``tbsv`` (``_tbsv``, fetched once at import) a bounded chunk of
steps at a time, for the state pass (A_t from per-season and per-step
blocks) and for :func:`periodickf.model.simulate` (A_t = F_s).  The one
exception to ``dot`` matching ``@``: ``dot`` multiplies two one-element
operands directly where ``@`` accumulates from +0.0, so such a product that is
exactly zero may come out as -0.0 where ``@`` gives 0.0.  Such a
product reaches an output only when the state dimension r is 1: a
season with F = 0, say, then gives gains of -0.0 where ``@`` gave 0.0,
and with m = 1 the state pass's ``-H'F``, ``-H'B`` and ``H'xhat_1``
are such products too; the values compare equal.
``tests/test_linalg.py`` checks ``dot`` against ``@`` on every operand
layout the per-step code uses.  Activating a
counter only increments a tally, so numerical results are bitwise
identical with metering on or off.

The Cholesky helpers call LAPACK ``potrf``/``potrs`` directly (the
double-precision routines ``scipy.linalg.cho_factor``/``cho_solve``
call, with the same ``lower=1, clean=0`` arguments, fetched once at
import), so their results are bitwise those of the scipy wrappers
without the wrappers' per-call cost.  The checks those wrappers made
are made here:

* a non-finite matrix or right-hand side raises ``ValueError``;
* ``potrf`` reporting a non-positive leading minor (``info > 0``)
  raises :class:`OmegaNotPD`, after the eigenvalue gate ``_pd_gate``
  (whose eigenvalues come from ``syevd`` called directly, bitwise
  ``numpy.linalg.eigvalsh``);
* LAPACK reporting an illegal argument (``info < 0``) raises
  ``ValueError``, as does a right-hand side of the wrong height.

The step code solves through ``_solve``, which runs these checks only
when ``potrs``'s status or a non-finite solution flags a problem.

Finiteness is tested by counting, ``np.count_nonzero(np.isfinite(a))
!= a.size``: the predicate of ``np.isfinite(a).all()`` at about half
its cost on the small operands of a step, since ``ndarray.all``
dispatches through Python (``tests/test_source_names.py`` keeps
``.all()`` off the per-step path).  A 1 x 1 matrix, the innovation
covariance of every one-output model, takes scalar paths:

* ``spd_factor`` gates it by its entry and tests that entry with
  ``math.isfinite``; its factor is ``np.sqrt`` of the matrix, bitwise
  ``potrf``'s (both are the correctly rounded square root), and an
  entry that is not positive (the gate let it by) fails as ``potrf``
  fails, with its message;
* ``_symmetrized``, which the steps call on Omega, computes
  ``0.5 * (o + o)`` on the numpy scalar entry, the operation
  ``0.5 * (a + a.T)`` makes, with its overflow to inf and its warning.

The solves stay with ``potrs`` at every size: for a 1 x 1 factor
``b * (1/l) * (1/l)`` is bitwise the same, but numpy warns where it
overflows, which ``potrs`` does not.

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
* one triangular sweep (forward or back substitution) of size n with k
  right-hand sides: ``n*n*k``;
* elementwise add/subtract, including the addition inside
  ``symmetrize``: one flop per element.

Transposes, scalar scalings, and the definiteness gate in ``spd_factor``
are not charged.
"""

from __future__ import annotations

import math
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
(_potrf, _potrs, _sytrf, _sytrf_lwork, _sytrs, _sycon, _lange, _syevd,
 _syevd_lwork, _gesdd, _gesdd_lwork) = scipy.linalg.get_lapack_funcs(
    ("potrf", "potrs", "sytrf", "sytrf_lwork", "sytrs", "sycon", "lange",
     "syevd", "syevd_lwork", "gesdd", "gesdd_lwork"), dtype=np.float64)
# The float64 BLAS banded triangular solve behind ``_band_solve``,
# fetched once as the LAPACK handles are.
(_tbsv,) = scipy.linalg.get_blas_funcs(("tbsv",), dtype=np.float64)
_EPS = float(np.finfo(np.float64).eps)
# ``_band_solve`` solves this many steps at a time, rounded up to a
# multiple of the period, so its workspace does not grow with the series.
_BAND_STEPS = 256


@cache
def _sytrf_optimal_lwork(n: int) -> int:
    """``sytrf``'s optimal workspace for order n (upper triangle).  It
    depends on n alone, so each order is queried once; the cache holds
    one integer per order used."""
    return int(_sytrf_lwork(n, lower=0)[0])


@cache
def _syevd_optimal_lwork(n: int) -> tuple[int, int]:
    """``syevd``'s optimal workspaces (real, integer) for the eigenvalues
    alone of order n, from the lower triangle; queried once per order,
    as ``numpy.linalg.eigvalsh`` queries them on every call.  Above the
    block size the default workspace changes the rounding."""
    work, iwork, _ = _syevd_lwork(n, compute_v=0, lower=1)
    return int(work), int(iwork)


@cache
def _gesdd_optimal_lwork(m: int, n: int) -> int:
    """``gesdd``'s optimal workspace for the singular values alone of an
    m x n matrix; queried once per shape, as ``numpy.linalg.svd``
    queries it on every call."""
    return int(_gesdd_lwork(m, n, compute_uv=0, full_matrices=0)[0])


@dataclass
class FlopCounter:
    flops: int = 0


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


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """``0.5 * (a + a.T)``, bitwise, for a fresh matrix the caller owns.
    A 1 x 1 ``a`` is updated in place as the scalar ``0.5 * (o + o)``,
    the same operation on its one entry: the identity, -0.0 included,
    but for an entry of magnitude 2**1023 or more, which overflows to
    inf (with numpy's warning, numpy scalars being used)."""
    if a.shape == (1, 1):
        o = a[0, 0]
        a[0, 0] = 0.5 * (o + o)
        return a
    return 0.5 * (a + a.T)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of symmetric ``a``, read from its lower triangle,
    ascending: bitwise ``np.linalg.eigvalsh(a)``, which calls the same
    ``syevd`` with the same workspace.  Where ``syevd`` reports a
    failure (``info != 0``) numpy is called instead, so that its result
    or its error is what the caller sees."""
    lwork, liwork = _syevd_optimal_lwork(a.shape[0])
    w, _, info = _syevd(a, compute_v=0, lower=1, lwork=lwork, liwork=liwork)
    return np.linalg.eigvalsh(a) if info else w


def _singular_values(a: np.ndarray) -> np.ndarray:
    """The singular values of ``a``, largest first: bitwise
    ``np.linalg.svd(a, compute_uv=False)``, which calls the same
    ``gesdd`` (``jobz = "N"``) with the same workspace.  An empty ``a``,
    or one where ``gesdd`` reports a failure (``info != 0``, as a NaN
    entry makes it), goes to numpy, so that its result or its error is
    what the caller sees."""
    if a.size:
        _, s, _, info = _gesdd(a, compute_uv=0,
                               lwork=_gesdd_optimal_lwork(*a.shape))
        if not info:
            return s
    return np.linalg.svd(a, compute_uv=False)


def _pd_gate(a: np.ndarray) -> None:
    if a.shape == (1, 1):
        # the eigenvalue LAPACK returns for a 1 x 1 matrix is its entry
        lo = hi = a[0, 0]
    else:
        w = _eigvalsh(a)
        lo, hi = w[0], w[-1]
    if hi <= 0.0 or lo <= PD_RTOL * hi:
        raise OmegaNotPD(
            f"innovation covariance: eigenvalues in [{lo:.6e}, "
            f"{hi:.6e}] fail the positive-definiteness threshold "
            f"(min > {PD_RTOL:g} * max)")


def _require_finite(a, what: str) -> None:
    finite = np.isfinite(a)
    if np.count_nonzero(finite) != finite.size:
        raise ValueError(f"{what} must not contain infs or NaNs")


def spd_factor(a: np.ndarray):
    """Gate ``a`` as symmetric positive definite and Cholesky-factor it.

    Raises :class:`OmegaNotPD` when ``a`` fails the definiteness gate
    or its factorization, and ``ValueError`` when ``a`` is not finite.
    Every SPD system in this package is an innovation covariance, hence
    the error type. Returns the factor in ``scipy.linalg.cho_factor``
    form ``(c, lower)``, bitwise ``cho_factor(a, lower=True)``, for
    :func:`factor_solve` and :func:`factor_logdet`.  A 1 x 1 ``a`` is
    factored as ``potrf`` factors it, by the square root of its entry
    (failing, as ``potrf`` does, at an entry that is not positive); its
    factorization charges ``1**3 // 3 = 0`` flops.
    """
    _pd_gate(a)
    if a.shape == (1, 1):
        a00 = a[0, 0]
        if not math.isfinite(a00):
            _require_finite(a, "matrix to factor")
        if a00 > 0.0:
            return np.sqrt(a), True
        info = 1
    else:
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
    if info or np.count_nonzero(np.isfinite(x)) != x.size:
        _require_finite(c, "Cholesky factor")
        _require_finite(b, "right-hand side")
        if info:
            raise ValueError(f"potrs: illegal value in argument {-info}")
    return x


def factor_logdet(factor) -> float:
    """Return ``log det a`` given ``factor = spd_factor(a)``."""
    return 2.0 * float(np.log(factor[0].diagonal()).sum())


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive definite ``a``."""
    return factor_solve(spd_factor(a), b)


def sym_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric (possibly indefinite) ``a``, read
    from its upper triangle; bitwise ``scipy.linalg.solve(a, b,
    assume_a="sym")``, with its checks (see the module docstring)."""
    _require_finite(a, "matrix")
    _require_finite(b, "right-hand side")
    x = _sym_solve(a, b)
    n = a.shape[0]
    _charge(n ** 3 // 3 + 2 * n * n * _ncols(np.asarray(b)))
    return x


def _sym_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`sym_solve` without its charge and its finiteness checks."""
    n = a.shape[0]
    if n == 1:
        if a[0, 0] == 0:
            raise LinAlgError("A singular matrix detected.")
        return b / a[0, 0]
    # with the optimal workspace, as scipy: above the block size a
    # smaller one changes the factorization's rounding
    lu, ipiv, info = _sytrf(a, lower=0, lwork=_sytrf_optimal_lwork(n))
    if info > 0:
        raise LinAlgError("A singular matrix detected: sytrf found "
                          f"D({info},{info}) exactly zero.")
    if info < 0:
        raise ValueError(f"sytrf: illegal value in argument {-info}")
    x, info = _sytrs(lu, ipiv, b[:, None] if b.ndim == 1 else b, lower=0)
    if info < 0:
        raise ValueError(f"sytrs: illegal value in argument {-info}")
    rcond, _ = _sycon(lu, ipiv, _lange("1", a), lower=0)
    if rcond < _EPS:
        warnings.warn(f"An ill-conditioned matrix detected: rcond = "
                      f"{rcond}.", LinAlgWarning, stacklevel=3)
    # scipy returns the solution in C order
    return x[:, 0] if b.ndim == 1 else np.ascontiguousarray(x)


def _band_solve(z: np.ndarray, seasons, steps=None) -> None:
    """Solve the unit lower block-bidiagonal system ``z_{t+1} + L_t z_t
    = b_{t+1}``, t = 1..n, of a recursion ``z_{t+1} = A_t z_t + b_{t+1}``
    (``L_t = -A_t``), in place on the rows of the C-ordered (n + 1) x p
    array ``z``: row 0 holds z_1, row t holds b_{t+1} on entry and
    z_{t+1} on return.  Step t's p x p ``L_t`` takes its first q columns
    from ``seasons[(t - 1) % S]`` (``seasons`` S x p x q, or a list of S
    such blocks) and, when ``steps`` (T x p x (p - q), T >= 1) is given,
    its other columns from ``steps[t - 1]`` up to t = T and from the
    last S of ``steps`` cycled after (``steps[T - S + (t - T) % S]``, so
    T >= S when T < n).  Without ``steps``, q = p.

    The system is held in BLAS band storage (2p - 1 subdiagonals) and
    solved by ``tbsv`` in chunks of C steps, the multiple of S from
    ``_BAND_STEPS``: a chunk's first block is the last of the chunk
    before it, and every chunk starts with ``seasons[0]``.  In the
    column-major band, entry (i, j) of step tau's ``L`` block (tau =
    0.. within its chunk) is element ``p + i + j(2p - 1) + tau 2p^2``,
    so one strided view addresses all of them.  The season blocks are
    written once, by one assignment; the per-step columns are written
    per chunk, a slice for the steps up to T and one assignment per
    season for the cycled ones, and the chunks after the first one past
    T reuse its band, as every chunk does without ``steps``.  Values may
    be non-finite; the caller checks."""
    n, p = z.shape[0] - 1, z.shape[1]
    if n < 1:
        return
    S, q = len(seasons), np.shape(seasons[0])[1]
    C = -(-_BAND_STEPS // S) * S
    periods = -(-min(C, n) // S)    # in the first chunk, rounded up
    ab = np.zeros((2 * p, (periods * S + 1) * p), order="F")
    size = ab.itemsize
    # ab.T, C-contiguous, exports ab's memory in column-major order
    blocks = np.ndarray((periods * S, p, p), buffer=ab.T, offset=p * size,
                        strides=(2 * p * p * size, size, (2 * p - 1) * size))
    blocks.reshape(periods, S, p, p)[..., :q] = seasons
    T = 0 if steps is None else len(steps)
    settled = steps is None         # the band holds a chunk past T
    zf = z.reshape(-1)
    for t0 in range(0, n, C):
        c = min(C, n - t0)
        if not settled:
            k = min(max(T - t0, 0), c)      # steps with their own columns
            blocks[:k, :, q:] = steps[t0:t0 + k]
            for j in range(k, min(k + S, c)):
                blocks[j:c:S, :, q:] = steps[T - S + (t0 + j - T) % S]
            settled = k == 0
        _tbsv(2 * p - 1, ab[:, :(c + 1) * p], zf, offx=t0 * p, lower=1,
              diag=1, overwrite_x=1)


# --- uncounted utilities ---------------------------------------------------

def _fro_norm(a: np.ndarray) -> float:
    """The Frobenius norm of a float array: numpy's own body of
    ``np.linalg.norm(a)`` (``ravel(order="K")``, ``dot``, ``sqrt``)
    without the wrapper's dispatch, so bitwise its value."""
    x = a.ravel(order="K")
    return float(np.sqrt(x.dot(x)))


def rel_err(a: np.ndarray | float, b: np.ndarray | float) -> float:
    """Frobenius-norm difference scaled by ``1 + max(norm a, norm b)``.

    The ``1 +`` keeps the measure meaningful for near-zero quantities;
    this is the single notion of "relative" used across the package.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return _fro_norm(a - b) / (1.0 + max(_fro_norm(a), _fro_norm(b)))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Negative eigenvalues from roundoff are clipped to zero.
    """
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def spectral_radius(a: np.ndarray) -> float:
    """The largest eigenvalue modulus of ``a`` (0 for an empty matrix)."""
    return (0.0 if a.size == 0 else
            float(np.max(np.abs(np.linalg.eigvals(a)))))
