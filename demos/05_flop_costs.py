#!/usr/bin/env python3
"""Flop accounting: why the low-rank recursions are cheap.

Every linear-algebra helper in the package charges its flop count to
an ambient counter when one is active (and is bitwise identical either
way).  That makes the per-step covariance cost of each engine a
measured number, not an estimate:

    kalman        O(r^3)  per step  (two r x r x r products dominate)
    chand31/32    O(alpha r m + alpha^2 m) per step
    chand-minv    same order, one extra alpha-sized solve

With the factor width alpha fixed by the model structure (m S for the
gain form, r for the steady form), sweeping the state dimension r on a
PAR family shows the measured log-log slopes: about 3 for the full
recursion, about 2 for the low-rank ones (alpha = S while r grows, so
their remaining r-dependence is the r x alpha gain work, but the O(r^2)
output projection keeps the slope near 2).

Deterministic; everything below is counted, not timed.
"""

import numpy as np

from periodickf import (count_costs, count_flops, format_cost_table,
                        format_scaling_table, par_family, scaling_table)
from periodickf.linalg import matmul, spd_solve

checks = []


def check(label: str, ok: bool) -> None:
    checks.append((label, ok))
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")


# --- the charging rules, in miniature --------------------------------------------

print("== charging rules ==")

a, b = np.ones((4, 5)), np.ones((5, 3))
with count_flops() as c:
    matmul(a, b)
print(f"matmul(4x5, 5x3) charges {c.flops} flops (2*4*5*3 = {2*4*5*3})")
check("matmul charges 2abc", c.flops == 2 * 4 * 5 * 3)

spd = np.eye(3) + 0.1
with count_flops() as c:
    spd_solve(spd, np.ones((3, 2)))
want = 3 ** 3 // 3 + 2 * 3 * 3 * 2
print(f"spd_solve(3x3, 2 rhs) charges {c.flops} flops "
      f"(n^3/3 + 2 n^2 k = {want})")
check("spd_solve charges n^3/3 + 2 n^2 k", c.flops == want)

with count_flops() as c:
    x = matmul(a, b)
x2 = matmul(a, b)
check("metering does not change results", np.array_equal(x, x2))

# --- one model, all engines --------------------------------------------------------

print("\n== measured cost per engine ==")

factory = par_family(S=2, seed=7)
model = factory(12)
report = count_costs(model, n_periods=4)
print(format_cost_table(report))

kal = report.flops_per_step("kalman")
ch = report.flops_per_step("chand31")
print(f"kalman / chand31 per-step ratio at r=12: {kal / ch:.1f}x")
check("low-rank step is cheaper", ch < kal)
check("alpha = S for the PAR family (one output)", report.alpha == 2)

# --- scaling in the state dimension --------------------------------------------------

print("\n== scaling sweep r = 8, 16, 32, 64 ==")

table = scaling_table(factory, [8, 16, 32, 64],
                      engines=("kalman", "chand31", "chand-minv"))
print(format_scaling_table(table))

s_kal = table.slopes["kalman"]
s_ch = table.slopes["chand31"]
print(f"fitted log-log slopes: kalman {s_kal:.2f}, chand31 {s_ch:.2f}")
check("full recursion scales like r^3", 2.5 < s_kal < 3.4)
check("low-rank recursion scales like r^2", 1.5 < s_ch < 2.4)

big = table.rows[-1]
ratio = big.flops_per_step("kalman") / big.flops_per_step("chand31")
print(f"at r = {big.r}: kalman / chand31 = {ratio:.1f}x")
check("advantage grows with r", ratio > kal / ch)

# --- summary ---------------------------------------------------------------------------

failed = [label for label, ok in checks if not ok]
print(f"\n{len(checks) - len(failed)}/{len(checks)} checks passed")
if failed:
    raise SystemExit("failed: " + ", ".join(failed))
