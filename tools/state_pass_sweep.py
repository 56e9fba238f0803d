#!/usr/bin/env python3
"""Per-call time of the state pass and of ``simulate`` in their two
forms, the banded solve and the product per step.

    PYTHONPATH=src python3 tools/state_pass_sweep.py [--out sweep.json]

For p in 2..32 (m = 1, and m = 2 from p = 3), n in {50, 200, 2000}
and S in {2, 4, 12}, it times ``filtering._state_pass`` on a random
contractive model, once as the banded solve and once as the product
per step (``filtering._BAND_MAX_P`` set below, then at p), with the
gains of two runs: ``settled`` (B_1..B_S, the last period cycled over
the other steps, as after a settled gain pass) and ``unsettled`` (a B
per step, so that every band chunk writes its gains).  Each time is
the lowest of ROUNDS medians, each over REPEAT samples of enough
calls to last about a millisecond, the two forms alternating sample by
sample so that a change in the host's load reaches both; both forms
must give finite values, so neither falls back to the other.

The JSON written (to stdout, or ``--out``) holds ``what``, ``host``,
``cases`` (p, r, m, n, S, gains, ``loop_us``, ``band_us``) and
``cutover``: the largest p such that at every p' <= p, in every group
of cases with the same n and gains, the median of ``band_us /
loop_us`` is at most 1 - MARGIN; the value ``filtering._BAND_MAX_P``
takes.  The median over a group's S and m keeps one slow case from
deciding, and the margin keeps repeated sweeps within a p or so of one
another (the README has the figures).

The same rule, timed the same way, sets ``model._BAND_MAX_R``, the
cutover of ``simulate``: for r in 2..32, d in {1, r} (``noise`` is
``"d=1"`` or ``"d=r"``), and the same n and S, it times a whole
``simulate`` call (the noise draw and the outputs included) as the
product per step and as the banded solve, on a random contractive
model (F scaled to spectral norm 0.5), with ``model._BAND_MAX_R`` set
to r - 1, then r.  The group of a case is (n, noise), and its median
runs over S.  The JSON gets ``simulate``: its ``cases`` (r, d, noise,
n, S, ``loop_us``, ``band_us``) and ``cutover``.  This cutover is
less repeatable than the state pass's: in a 50-step call the draws and
the per-season square roots, common to both forms, dominate, so the
n = 50 group medians rise only slowly towards 1 - MARGIN (the README
has the figures).  Uses the package and the standard library only
(numpy, which the package needs, builds the inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from collections import defaultdict
from itertools import product

import numpy as np
import scipy

import periodickf.filtering as filtering
import periodickf.model as model_module
from periodickf import PeriodicModel, simulate

P_RANGE = range(2, 33)
LENGTHS = (50, 200, 2000)
PERIODS = (2, 4, 12)
GAINS = ("settled", "unsettled")
NOISES = ("d=1", "d=r")
ROUNDS = 3          # alternating rounds per case; the lowest median counts
REPEAT = 7          # samples of about 1 ms per median
MARGIN = 0.05       # how much faster the band must be, in a group's median


def scaled(rng, shape, norm: float) -> np.ndarray:
    """A normal draw of ``shape`` scaled to spectral norm ``norm``."""
    a = rng.normal(size=shape)
    return a * (norm / np.linalg.norm(a, 2))


def inputs(r: int, m: int, S: int, n: int, gains: str, seed: int):
    """``(model, y, x1, B)``: a model whose state recursion ``A_t`` is
    contractive (F scaled to spectral norm 0.5, H and B to 0.3), a
    random series and start, and the gains of ``gains``."""
    rng = np.random.default_rng(seed)
    eye_r, eye_m = np.eye(r), np.eye(m)
    model = PeriodicModel(S=S, r=r, m=m, d=r,
                          F=[scaled(rng, (r, r), 0.5) for _ in range(S)],
                          G=[eye_r] * S, H=[scaled(rng, (r, m), 0.3)
                                            for _ in range(S)],
                          Q=[eye_r] * S, R=[eye_m] * S)
    B = np.stack([scaled(rng, (r, m), 0.3)
                  for _ in range(S if gains == "settled" else n)])
    return model, rng.normal(size=(n, m)), rng.normal(size=r), B


def simulate_inputs(r: int, d: int, S: int, seed: int) -> PeriodicModel:
    """A model whose state recursion is contractive (F scaled to
    spectral norm 0.5), with a random r x d G and one output."""
    rng = np.random.default_rng(seed)
    return PeriodicModel(S=S, r=r, m=1, d=d,
                         F=[scaled(rng, (r, r), 0.5) for _ in range(S)],
                         G=[rng.normal(size=(r, d)) for _ in range(S)],
                         H=[rng.normal(size=(r, 1)) for _ in range(S)],
                         Q=[np.eye(d)] * S, R=[np.eye(1)] * S)


def calls_per_sample(call) -> int:
    """How many calls of ``call`` last about a millisecond."""
    call()
    start = time.perf_counter()
    call()
    return max(1, int(1e-3 / max(time.perf_counter() - start, 1e-7)))


def sample(call, number: int) -> float:
    """Microseconds per call over ``number`` calls."""
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number * 1e6


def configurations():
    """(p, m, S, n, gains) of every case, in the order they run."""
    for p in P_RANGE:
        for m in (1, 2) if p >= 3 else (1,):
            for S, n, gains in product(PERIODS, LENGTHS, GAINS):
                yield p, m, S, n, gains


def time_forms(call, module, name: str, size: int) -> dict:
    """``{"loop_us", "band_us"}`` of ``call`` with ``module.name`` set
    to ``size - 1``, then ``size``: the lowest of ROUNDS medians, each
    over REPEAT samples of each form, the forms alternating sample by
    sample so that both see the same load.  Both forms must give finite
    values."""
    forms = {"loop": size - 1, "band": size}
    number = {}
    for form, limit in forms.items():
        setattr(module, name, limit)
        if not all(np.isfinite(a).all() for a in call()):
            raise RuntimeError(f"{form} not finite at {size}")
        number[form] = calls_per_sample(call)
    best = dict.fromkeys(forms, float("inf"))
    for _ in range(ROUNDS):
        samples = {form: [] for form in forms}
        for _ in range(REPEAT):
            for form, limit in forms.items():
                setattr(module, name, limit)
                samples[form].append(sample(call, number[form]))
        for form, times in samples.items():
            best[form] = min(best[form], statistics.median(times))
    return {f"{form}_us": round(best[form], 2) for form in forms}


def sweep() -> list[dict]:
    cases, cutover = [], filtering._BAND_MAX_P
    try:
        for p, m, S, n, gains in configurations():
            model, y, x1, B = inputs(p - m, m, S, n, gains,
                                     seed=p * 1000 + n + S)
            cases.append({"p": p, "r": p - m, "m": m, "n": n, "S": S,
                          "gains": gains, **time_forms(
                              lambda: filtering._state_pass(model, y, x1, B),
                              filtering, "_BAND_MAX_P", p)})
    finally:
        filtering._BAND_MAX_P = cutover
    return cases


def simulate_sweep() -> list[dict]:
    cases, cutover = [], model_module._BAND_MAX_R
    try:
        for r, noise, S, n in product(P_RANGE, NOISES, PERIODS, LENGTHS):
            d = 1 if noise == "d=1" else r
            model = simulate_inputs(r, d, S, seed=r * 1000 + n + S)
            cases.append({"r": r, "d": d, "noise": noise, "n": n, "S": S,
                          **time_forms(lambda: simulate(model, n, seed=n),
                                       model_module, "_BAND_MAX_R", r)})
    finally:
        model_module._BAND_MAX_R = cutover
    return cases


def cutover_of(cases: list[dict], size: str = "p",
               group: tuple[str, ...] = ("n", "gains")) -> int:
    """The largest value of ``size`` (p, or r for ``simulate``) such
    that at every value up to it the median of ``band_us / loop_us``
    over each group of cases alike in ``group`` is at most 1 - MARGIN
    (1 when that fails at 2)."""
    best = 1
    for p in P_RANGE:
        groups = defaultdict(list)
        for c in cases:
            if c[size] == p:
                groups[tuple(c[g] for g in group)].append(
                    c["band_us"] / c["loop_us"])
        if any(statistics.median(g) > 1 - MARGIN for g in groups.values()):
            break
        best = p
    return best


def simulate_cutover_of(cases: list[dict]) -> int:
    """:func:`cutover_of` over r, in (n, noise) groups."""
    return cutover_of(cases, "r", ("n", "noise"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    cases, sim_cases = sweep(), simulate_sweep()
    doc = {"what": ("filtering._state_pass per call, the lowest of "
                    f"{ROUNDS} medians of {REPEAT} samples of about "
                    "1 ms each, the band solve against the product per "
                    "step, alternating sample by sample; cutover: the "
                    "largest p = r + m "
                    "such that at every p up to it the median of band / "
                    f"loop over each (n, gains) group is at most "
                    f"{1 - MARGIN:g}"),
           "host": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
           "cases": cases, "cutover": cutover_of(cases),
           "simulate": {
               "what": ("model.simulate per call, timed and decided as "
                        "above over r, in (n, noise) groups"),
               "cases": sim_cases,
               "cutover": simulate_cutover_of(sim_cases)}}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
