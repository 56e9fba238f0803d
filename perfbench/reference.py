"""Reference kernels that measure the host's current speed.

On a shared host the speed of one core drifts by tens of percent, in
phases of seconds and over minutes, and CPU time drifts with wall time.
All kinds of work slow down together, but by amounts that depend on the
kind: interpreter-bound small-matrix code and a dense LAPACK solve each
track work of their own kind far more closely than the other.

So a reference kernel of the kind that dominates the workload's time
runs before and after every timed operation, and the gated times are
reported at the reference's nominal speed:

    normalized = measured * NOMINAL_S[kind] / mean(reference before, after)

The kernels use numpy and scipy only, never the package, so no change
to the package can move them; a faster program reads faster. Raw wall
times are kept in the report next to the normalized ones.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# Typical reference times on the 2-core host the bounds were set on
# (Intel Xeon at 2.1 GHz, one BLAS thread).
NOMINAL_S = {"interp": 0.015, "lapack": 0.030}
_INTERP_STEPS = 250
_LAPACK_SIZE = 1000


class Reference:
    """A fixed kernel of one kind, run between timed operations."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        if kind == "lapack":
            self._A = rng.standard_normal((_LAPACK_SIZE, _LAPACK_SIZE))
            self._b = rng.standard_normal(_LAPACK_SIZE)
        else:
            self._F = np.array([[0.5, 0.1], [0.0, 0.3]])
            self._H = np.array([[1.0], [0.5]])
            self._y = rng.standard_normal((_INTERP_STEPS, 1))

    def _interp(self) -> None:
        # A plain two-state Kalman filter, the shape of work the
        # package's per-step loop does on small models.
        F, H = self._F, self._H
        P, x = np.eye(2), np.zeros(2)
        for y in self._y:
            U = P @ H
            S = H.T @ U + 0.5
            K = F @ U
            np.linalg.eigvalsh(S)
            KtT = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), K.T)
            x = F @ x + KtT.T @ (y - H.T @ x)
            P = F @ P @ F.T - K @ KtT + np.eye(2)
            P = 0.5 * (P + P.T)

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        if self.kind == "lapack":
            np.linalg.solve(self._A, self._b)
        else:
            self._interp()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self, before: float, after: float) -> float:
        """Factor taking a wall time measured between two kernel runs of
        ``before`` and ``after`` seconds to nominal host speed."""
        return NOMINAL_S[self.kind] / (0.5 * (before + after))
