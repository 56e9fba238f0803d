#!/usr/bin/env python3
"""Low-rank covariance increments and the fast gain recursions.

The quantity driving everything here is the S-lagged covariance
increment Delta_t = Sigma_{t+S} - Sigma_t.  Two facts make it useful:

  * it propagates through a rank-preserving congruence, so a start
    factorization Delta_1 = Y_1 M_1 Y_1' with Y_1 of width alpha keeps
    that width forever;
  * the filter gain K and innovation covariance Omega can be updated
    from (Y, M) alone, without ever forming Sigma.

This demo builds the three start factorizations, runs the three
recursion variants in lockstep against the exact filter, verifies the
propagation identities on exact quantities, and reconstructs Sigma
from the accumulated increments.  Deterministic.
"""

import numpy as np

from periodickf import (auto_factorize, build_prelude, chand_init,
                        dpre_fixed_point, factor_eigen, factor_gain_form,
                        factor_steady_form, filter_series, load_model,
                        prde_step, rel_err, solve_dple, step_alg31,
                        step_alg32, step_minv, to_inverse_state,
                        verify_theorem31)

checks = []


def check(label: str, ok: bool) -> None:
    checks.append((label, ok))
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")


model = load_model("demos/models/stationary_s2.json")
S, r, m = model.S, model.r, model.m
W = solve_dple(model)
print(f"model: S={S}, r={r}, m={m}; starting from the stationary W_1")

# --- the increment and its rank ------------------------------------------------

print("\n== increment rank along the exact recursion ==")

prelude = build_prelude(model, W[0])
print(f"prelude: one period of exact (Sigma, K, Omega), "
      f"||Delta_1|| = {np.linalg.norm(prelude.DeltaSigma1):.3e}")

# the rank of Delta_t never grows; watch the singular values decay
deltas = []
trail = [W[0].copy()]
for t in range(1, 7 * S + S + 1):
    trail.append(prde_step(model, trail[-1], t))
for t in range(1, 7 * S + 1):
    deltas.append(trail[t - 1 + S] - trail[t - 1])
print("  t   sigma_1(Delta_t)   sigma_2(Delta_t)")
ranks = []
for t, D in enumerate(deltas, start=1):
    sv = np.linalg.svd(D, compute_uv=False)
    ranks.append(int(np.sum(sv > 1e-10 * sv[0])) if sv[0] > 0 else 0)
    if t <= 6:
        print(f"  {t}   {sv[0]:.6e}       {sv[1]:.6e}")
check("numerical rank never increases",
      all(b <= a for a, b in zip(ranks, ranks[1:])))

# --- three start factorizations -------------------------------------------------

print("\n== start factorizations of Delta_1 = Y_1 M_1 Y_1' ==")

gain = factor_gain_form(model, prelude)
steady = factor_steady_form(model, prelude, W[S - 1])
eig = factor_eigen(prelude.DeltaSigma1)
for f in (gain, steady, eig):
    res = rel_err(f.Y1 @ f.M1 @ f.Y1.T, prelude.DeltaSigma1)
    print(f"  {f.method:<12} alpha = {f.alpha}   residual = {res:.3e}")
    check(f"{f.method} reproduces Delta_1", res < 1e-8)

# gain form stacks the startup gains: Y_1 = [K_2, F_2 K_1], width m S
check("gain form has width m S", gain.alpha == m * S)
check("gain form Y_1 = [K_2, F_2 K_1]",
      np.allclose(gain.Y1, np.hstack([prelude.K[1],
                                      model.F[1] @ prelude.K[0]])))
# steady form needs the stationary W but has width r regardless of S
check("steady form has width r", steady.alpha == r)
check("steady form Y_1 = F_2", np.array_equal(steady.Y1, model.F[1]))

# the automatic choice picks the narrower structural option, steady
# form on ties: here m S = 2 = r
auto = auto_factorize(model, prelude, W=W)
print(f"auto_factorize -> {auto.method} (alpha = {auto.alpha})")
check("auto picks steady form when m S >= r", auto.method == "steady-form")

# --- recursions in lockstep with the exact filter --------------------------------

print("\n== fast recursions vs exact filter, 12 periods ==")

n = 12 * S
exact_K, exact_Om = [], []
Sigma = W[0].copy()
for t in range(1, n + 1):
    F, _, H, _, _ = model.at(t)
    Om = H.T @ Sigma @ H + model.at(t)[4]
    exact_Om.append(Om)
    exact_K.append(F @ Sigma @ H)
    Sigma = prde_step(model, Sigma, t)

for name, stepper in [("alg31 (direct M)", step_alg31),
                      ("alg32 (additive M)", step_alg32)]:
    state = chand_init(model, auto, prelude)
    dev = 0.0
    for t in range(1, n + 1):
        K, Om = state.current_gain()
        dev = max(dev, rel_err(K, exact_K[t - 1]), rel_err(Om, exact_Om[t - 1]))
        state = stepper(model, state)
    print(f"  {name:<20} max gain/Omega deviation = {dev:.3e}")
    check(f"{name} tracks the exact filter", dev < 1e-9)

# the inverse-M variant trades the start inversion for subtraction-free steps
state = to_inverse_state(chand_init(model, auto, prelude))
dev = 0.0
for t in range(1, n + 1):
    K, Om = state.current_gain()
    dev = max(dev, rel_err(K, exact_K[t - 1]), rel_err(Om, exact_Om[t - 1]))
    state = step_minv(model, state)
print(f"  {'minv (inverse M)':<20} max gain/Omega deviation = {dev:.3e}")
check("minv tracks the exact filter", dev < 1e-9)

# --- the propagation identities on exact quantities -------------------------------

print("\n== increment and gain propagation identities ==")

report = verify_theorem31(model, prelude, steps=4 * S)
print(f"  increment via updated gain  {report.incr_updated_gain:.3e}")
print(f"  increment via current gain  {report.incr_current_gain:.3e}")
print(f"  gain, backward form         {report.gain_backward:.3e}")
print(f"  gain, forward form          {report.gain_forward:.3e}")
check("all four identities hold to 1e-9", report.max_residual < 1e-9)

# they hold from any start, not only the stationary one
off = build_prelude(model, 3.0 * np.eye(r))
check("identities hold from an off-stationary start",
      verify_theorem31(model, off, steps=4 * S).max_residual < 1e-9)

# --- reconstructing Sigma from increments ------------------------------------------

print("\n== covariance reconstruction ==")

# Sigma at t = k S + s is the prelude covariance plus the k increments of
# season s recorded so far; the low-rank engines' sigma trace does this
n = 5 * S
rebuilt = filter_series(model, np.zeros((n, m)), engine="chand31",
                        init="stationary", sigma_trace=True).sigma_trace
worst = max(rel_err(rebuilt[t - 1], trail[t - 1]) for t in range(1, n + 1))
print(f"max reconstruction error over t = 1..{n} = {worst:.3e}")
check("reconstructed Sigma matches the exact chain", worst < 1e-10)

# --- summary -------------------------------------------------------------------------

failed = [label for label, ok in checks if not ok]
print(f"\n{len(checks) - len(failed)}/{len(checks)} checks passed")
if failed:
    raise SystemExit("failed: " + ", ".join(failed))
