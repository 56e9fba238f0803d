#!/usr/bin/env python3
"""Filtering an observed series and evaluating its Gaussian likelihood.

filter_series runs the periodic Kalman filter over a series with a
choice of four engines:

    kalman      full covariance recursion, O(r^3) per step
    chand31     low-rank gain recursion, direct middle factor
    chand32     low-rank gain recursion, additive middle factor
    chand-minv  low-rank gain recursion on the inverse middle factor

All four produce the same innovations, gains and log-likelihood; the
low-rank three never touch Sigma after the start factorization.  The
log-likelihood is the innovations-form Gaussian one,

    log L = -1/2 sum_t [ m log 2 pi + log det Omega_t + e_t' Omega_t^{-1} e_t ].

The filter forms each step's term in its loop and keeps them in
``FilterOutput.terms``.

Deterministic; simulates its own data.
"""

import numpy as np

from periodickf import (ENGINES, filter_series, gaussian_loglik, load_model,
                        rel_err, simulate, solve_dple)

SEED = 99

checks = []


def check(label: str, ok: bool) -> None:
    checks.append((label, ok))
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")


model = load_model("demos/models/stationary_s2.json")
n = 400
_, y = simulate(model, n, seed=SEED, start="stationary")
print(f"model: S={model.S}, r={model.r}, m={model.m}; simulated n={n} (seed {SEED})")

# --- the four engines agree -----------------------------------------------------

print("\n== engine agreement ==")

outputs = {e: filter_series(model, y, engine=e, init="stationary")
           for e in ENGINES}
base = outputs["kalman"]
print(f"  engine      loglik               max |innov - kalman|")
for e in ENGINES:
    out = outputs[e]
    dev = float(np.max(np.abs(out.innovations - base.innovations)))
    print(f"  {e:<10}  {out.loglik:.12f}   {dev:.3e}")
    if e != "kalman":
        agree = (dev < 1e-9
                 and rel_err(out.Omega, base.Omega) < 1e-9
                 and rel_err(out.K, base.K) < 1e-9
                 and abs(out.loglik - base.loglik) < 1e-9 * abs(base.loglik))
        check(f"{e} agrees with kalman", agree)

# --- the likelihood, cross-checked ------------------------------------------------

print("\n== log-likelihood decomposition ==")

terms = base.terms
print(f"loglik = {base.loglik:.10f}; gaussian_loglik(output) = "
      f"{gaussian_loglik(base):.10f}; sum of {terms.size} per-step terms = "
      f"{terms.sum():.10f}")
check("per-step terms sum to the total", abs(terms.sum() - base.loglik) < 1e-10)

# independent evaluation with plain numpy on the stored innovations
direct = 0.0
for t in range(n):
    e, Om = base.innovations[t], base.Omega[t]
    sign, logdet = np.linalg.slogdet(Om)
    direct += -0.5 * (model.m * np.log(2 * np.pi) + logdet
                      + e @ np.linalg.solve(Om, e))
print(f"slogdet/solve re-evaluation = {direct:.10f}")
check("matches a direct numpy evaluation",
      abs(direct - base.loglik) < 1e-9 * abs(base.loglik))

# the data were simulated from the model, so the standardized innovations
# should be white with unit scale: mean of e' Omega^{-1} e is m
q = np.array([base.innovations[t] @ np.linalg.solve(base.Omega[t],
                                                    base.innovations[t])
              for t in range(n)])
print(f"mean standardized innovation quadratic = {q.mean():.4f} (target {model.m})")
check("standardized innovations have the right scale",
      abs(q.mean() - model.m) < 4 * np.sqrt(2 * model.m / n))

# a wrong model should score worse on the same data
wrong = load_model("demos/models/stationary_s2.json")
wrong.F = [0.2 * F for F in wrong.F]
ll_wrong = filter_series(wrong, y, init="stationary").loglik
print(f"loglik under a damped-dynamics model = {ll_wrong:.4f} "
      f"vs {base.loglik:.4f} under the truth")
check("the generating model scores higher", base.loglik > ll_wrong)

# --- covariance traces from the low-rank engines ------------------------------------

print("\n== covariance trace reconstruction ==")

ref = filter_series(model, y[:40], init="stationary", sigma_trace=True)
dev = max(rel_err(filter_series(model, y[:40], engine=e, init="stationary",
                                sigma_trace=True).sigma_trace,
                  ref.sigma_trace)
          for e in ENGINES if e != "kalman")
print(f"max sigma_trace deviation from kalman across low-rank engines = {dev:.3e}")
check("low-rank engines reconstruct the same Sigma path", dev < 1e-8)

# --- initialization choices -----------------------------------------------------------

print("\n== initialization ==")

W = solve_dple(model)
zs = filter_series(model, y, init="zero-state")
ex = filter_series(model, y, init="explicit", xhat1=np.zeros(model.r),
                   Sigma1=W[0])
st = filter_series(model, y, init="stationary")
print(f"zero-state loglik  {zs.loglik:.10f}")
print(f"stationary loglik  {st.loglik:.10f}")
print(f"explicit W_1       {ex.loglik:.10f}")
check("explicit (0, W_1) reproduces the stationary start",
      abs(ex.loglik - st.loglik) < 1e-12 * abs(st.loglik))

# --- summary ----------------------------------------------------------------------------

failed = [label for label, ok in checks if not ok]
print(f"\n{len(checks) - len(failed)}/{len(checks)} checks passed")
if failed:
    raise SystemExit("failed: " + ", ".join(failed))
