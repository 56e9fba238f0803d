#!/usr/bin/env python3
"""Per-call time of the state pass in its two forms, over p = r + m.

    PYTHONPATH=src python3 tools/state_pass_sweep.py [--out sweep.json]

For p in 2..32 (m = 1, and m = 2 from p = 3), n in {50, 200, 2000}
and S in {2, 4, 12}, it times ``filtering._state_pass`` on a random
contractive model, once as the banded solve and once as the product
per step (``filtering._BAND_MAX_P`` set above, then below p), with the
gains of two runs: ``settled`` (B_1..B_S, the last period cycled over
the other steps, as after a settled gain pass) and ``unsettled`` (a B
per step, so that every band chunk writes its gains).  Each time is
the lowest of ROUNDS medians, each over REPEAT samples of enough
calls to last about a millisecond, the two forms alternating; both
forms must give finite values, so neither falls back to the other.

The JSON written (to stdout, or ``--out``) holds ``what``, ``host``,
``cases`` (p, r, m, n, S, gains, ``loop_us``, ``band_us``) and
``cutover``: the largest p such that at every p' <= p, in every group
of cases with the same n and gains, the median of ``band_us /
loop_us`` is at most 1 - MARGIN; the value ``filtering._BAND_MAX_P``
takes.  The median over a group's S and m keeps one slow case from
deciding, and the margin is wider than the spread of the largest group
median between repeated sweeps near the crossing, so repeated sweeps
give one value (the README has the figures).  Uses
the package and the standard library only (numpy, which the package
needs, builds the inputs).
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
from periodickf import PeriodicModel

P_RANGE = range(2, 33)
LENGTHS = (50, 200, 2000)
PERIODS = (2, 4, 12)
GAINS = ("settled", "unsettled")
ROUNDS = 3          # alternating rounds per case; the lowest median counts
REPEAT = 7          # samples of about 1 ms per median
MARGIN = 0.05       # how much faster the band must be, in a group's median


def inputs(r: int, m: int, S: int, n: int, gains: str, seed: int):
    """``(model, y, x1, B)``: a model whose state recursion ``A_t`` is
    contractive (F scaled to spectral norm 0.5, H and B to 0.3), a
    random series and start, and the gains of ``gains``."""
    rng = np.random.default_rng(seed)

    def scaled(shape, norm):
        a = rng.normal(size=shape)
        return a * (norm / np.linalg.norm(a, 2))
    eye_r, eye_m = np.eye(r), np.eye(m)
    model = PeriodicModel(S=S, r=r, m=m, d=r,
                          F=[scaled((r, r), 0.5) for _ in range(S)],
                          G=[eye_r] * S, H=[scaled((r, m), 0.3)
                                            for _ in range(S)],
                          Q=[eye_r] * S, R=[eye_m] * S)
    B = np.stack([scaled((r, m), 0.3)
                  for _ in range(S if gains == "settled" else n)])
    return model, rng.normal(size=(n, m)), rng.normal(size=r), B


def time_call(call) -> float:
    """Median microseconds per call over REPEAT samples."""
    call()
    start = time.perf_counter()
    call()
    once = max(time.perf_counter() - start, 1e-7)
    number = max(1, int(1e-3 / once))
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number * 1e6)
    return statistics.median(samples)


def configurations():
    """(p, m, S, n, gains) of every case, in the order they run."""
    for p in P_RANGE:
        for m in (1, 2) if p >= 3 else (1,):
            for S, n, gains in product(PERIODS, LENGTHS, GAINS):
                yield p, m, S, n, gains


def sweep() -> list[dict]:
    cases, cutover = [], filtering._BAND_MAX_P
    try:
        for p, m, S, n, gains in configurations():
            model, y, x1, B = inputs(p - m, m, S, n, gains,
                                     seed=p * 1000 + n + S)

            def call():
                return filtering._state_pass(model, y, x1, B)
            times = {}
            for round_ in range(ROUNDS):
                for form, limit in (("band", p), ("loop", p - 1)):
                    filtering._BAND_MAX_P = limit
                    if round_ == 0:
                        xhat, e = call()
                        if not (np.isfinite(xhat).all()
                                and np.isfinite(e).all()):
                            raise RuntimeError(f"{form} not finite at {p=}")
                    times[form] = min(times.get(form, float("inf")),
                                      time_call(call))
            cases.append({"p": p, "r": p - m, "m": m, "n": n, "S": S,
                          "gains": gains, "loop_us": round(times["loop"], 2),
                          "band_us": round(times["band"], 2)})
    finally:
        filtering._BAND_MAX_P = cutover
    return cases


def cutover_of(cases: list[dict]) -> int:
    """The largest p such that at every p' <= p the median of
    ``band_us / loop_us`` over each (n, gains) group is at most 1 -
    MARGIN (1 when that fails at p = 2)."""
    best = 1
    for p in P_RANGE:
        groups = defaultdict(list)
        for c in cases:
            if c["p"] == p:
                groups[c["n"], c["gains"]].append(c["band_us"] / c["loop_us"])
        if any(statistics.median(g) > 1 - MARGIN for g in groups.values()):
            break
        best = p
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    cases = sweep()
    doc = {"what": ("filtering._state_pass per call, the lowest of "
                    f"{ROUNDS} medians of {REPEAT} samples of about "
                    "1 ms each, the band solve against the product per "
                    "step, alternating; cutover: the largest p = r + m "
                    "such that at every p up to it the median of band / "
                    f"loop over each (n, gains) group is at most "
                    f"{1 - MARGIN:g}"),
           "host": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
           "cases": cases, "cutover": cutover_of(cases)}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
