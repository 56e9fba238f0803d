#!/usr/bin/env python3
"""Periodic Riccati and Lyapunov solvers.

Three objects organize the covariance side of the periodic filter:

  * the monodromy matrix Phi = F_S .. F_1 (one-period transition);
    the model is periodically stationary iff rho(Phi) < 1;
  * the periodic Lyapunov equation for the stationary state
    covariances W_1..W_S (solved by Smith's doubling on the monodromy,
    O(r^3) per doubling);
  * the periodic Riccati difference equation (PRDE) whose per-season
    fixed point the filter covariance converges to.

Every numeric claim below is recomputed independently and printed
next to a closed form where one exists.  Deterministic.
"""

import numpy as np

from periodickf import (NotStationary, dpre_fixed_point,
                        is_periodically_stationary, load_model, monodromy,
                        prde_step, rel_err, solve_dple)
from periodickf.model import PeriodicModel

checks = []


def check(label: str, ok: bool) -> None:
    checks.append((label, ok))
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")


one = np.array([[1.0]])

# --- a scalar model with closed forms ----------------------------------------

print("== scalar closed forms (F = 0.5, G = H = Q = R = 1) ==")

scalar = PeriodicModel(S=1, r=1, m=1, d=1, F=[0.5 * one], G=[one],
                       H=[one], Q=[one], R=[one])

# stationary variance: W = F^2 W + Q  ->  W = 1 / (1 - 0.25) = 4/3
W = solve_dple(scalar)
print(f"solve_dple -> W = {W[0][0, 0]:.15f}   closed form 4/3 = {4/3:.15f}")
check("Lyapunov matches 4/3 exactly", abs(W[0][0, 0] - 4.0 / 3.0) < 1e-14)

# Riccati fixed point: P = F^2 P - (F P)^2 / (P + 1) + 1, i.e. the
# positive root of P^2 - 0.25 P - 1 = 0
P = dpre_fixed_point(scalar)[0][0, 0]
root = float(np.max(np.roots([1.0, -0.25, -1.0])))
print(f"dpre_fixed_point -> P = {P:.15f}   quadratic root = {root:.15f}")
check("Riccati limit matches the quadratic root", abs(P - root) < 1e-9)

# the filter covariance really contracts onto it
Sigma, dist = np.array([[5.0]]), []
for t in range(1, 9):
    dist.append(abs(Sigma[0, 0] - P))
    Sigma = prde_step(scalar, Sigma, t)
print("distance to the fixed point per step:",
      np.array2string(np.array(dist), precision=2, floatmode="maxprec"))
check("PRDE iteration contracts monotonically",
      all(b < a for a, b in zip(dist, dist[1:])))

# --- the checked-in two-season model ------------------------------------------

print("\n== two-season model (demos/models/stationary_s2.json) ==")

model = load_model("demos/models/stationary_s2.json")
Phi = monodromy(model)
stationary, rho = is_periodically_stationary(model)
print(f"monodromy =\n{np.array2string(Phi, precision=6)}")
print(f"spectral radius = {rho:.6f}, stationary = {stationary}")
check("monodromy is F_2 @ F_1", np.allclose(Phi, model.F[1] @ model.F[0]))
check("model is periodically stationary", stationary)

W = solve_dple(model)
print("stationary covariances:")
for s, Ws in enumerate(W, start=1):
    print(f"  W_{s} =\n{np.array2string(Ws, precision=6)}")

# both defining equations, checked directly:
#   period-1 closure    W_1 = Phi W_1 Phi' + Qbar
#   season propagation  W_{s+1} = F_s W_s F_s' + G_s Q_s G_s'
Qbar = model.G[1] @ model.Q[1] @ model.G[1].T \
    + model.F[1] @ model.G[0] @ model.Q[0] @ model.G[0].T @ model.F[1].T
closure = rel_err(Phi @ W[0] @ Phi.T + Qbar, W[0])
prop = rel_err(model.F[0] @ W[0] @ model.F[0].T
               + model.G[0] @ model.Q[0] @ model.G[0].T, W[1])
print(f"closure residual = {closure:.3e}, propagation residual = {prop:.3e}")
check("period-1 closure holds to 1e-12", closure < 1e-12)
check("season propagation holds to 1e-12", prop < 1e-12)

# per-season Riccati limits: cyclically consistent under one PRDE step
P = dpre_fixed_point(model)
print("Riccati per-season limits:")
for s, Ps in enumerate(P, start=1):
    print(f"  P_{s} =\n{np.array2string(Ps, precision=6)}")
cyc = max(rel_err(prde_step(model, P[s], s + 1), P[(s + 1) % model.S])
          for s in range(model.S))
print(f"cyclic consistency residual = {cyc:.3e}")
check("PRDE limits are a periodic orbit of the PRDE map", cyc < 1e-8)
check("all Lyapunov and Riccati limits are PSD",
      all(np.linalg.eigvalsh(M)[0] > -1e-12 for M in W + P))

# --- a nonstationary model is refused ------------------------------------------

print("\n== nonstationary rejection ==")

unstable = PeriodicModel(S=1, r=1, m=1, d=1, F=[1.1 * one], G=[one],
                         H=[one], Q=[one], R=[one])
try:
    solve_dple(unstable)
    check("solve_dple raises NotStationary", False)
except NotStationary as exc:
    print(f"solve_dple -> NotStationary: {exc}")
    check("solve_dple raises NotStationary", True)

# --- summary --------------------------------------------------------------------

failed = [label for label, ok in checks if not ok]
print(f"\n{len(checks) - len(failed)}/{len(checks)} checks passed")
if failed:
    raise SystemExit("failed: " + ", ".join(failed))
