"""Measurement loop, correctness check, provenance and output.

Rounds of inputs are generated from the seed (``workloads.py``); every
engine filters each round once, in an order that alternates between
rounds, until ``--seconds`` have passed. Every call's log-likelihood
must match ``kalman``'s on the same inputs to ``REL_TOL``; an error or a
mismatch counts as a failed call and makes the run exit with status 1.

With ``--trace 0`` the calls are timed untraced, scaled to nominal host
speed by the reference kernel runs around them (``reference.py``), and
the end-to-end metrics are reported. With ``--trace 1`` each call is in addition
replayed layer by layer under the span recorder of ``replay.py``, the
per-layer metrics are reported, and the traced per-step flops must
equal ``periodickf.count_costs`` on the same model.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it is the full report (sample counts, tail percentiles, provenance),
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

from periodickf import (PeriodicFilterError, auto_factorize, build_prelude,
                        count_costs, count_flops, filter_series, solve_dple)
from reference import NOMINAL_S, Reference
from replay import ENGINES, LOWRANK_STEPS, Tracer, layer_metrics
from stats import summarize
from workloads import WORKLOADS, build_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

REL_TOL = 1e-8   # the acceptance suite's engine-agreement bound


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def engine_order(k: int) -> tuple:
    return ENGINES if k % 2 == 0 else ENGINES[::-1]


def failed_engines(logliks: dict) -> list[str]:
    """Engines whose call raised (a string in place of the loglik), or
    whose log-likelihood differs from ``kalman``'s by more than
    ``REL_TOL`` relative; all of them when ``kalman`` itself failed."""
    ref = logliks.get("kalman")
    if not isinstance(ref, float) or not math.isfinite(ref):
        return list(logliks)
    return [e for e, ll in logliks.items()
            if not isinstance(ll, float) or not abs(ll - ref) <= REL_TOL * abs(ref)]


def measure(workload: str, seed: int, seconds: float,
            tracer: Tracer | None = None) -> dict:
    """Interleaved rounds until ``seconds`` have passed (at least one).

    The workload's reference kernel runs before a round's set-up, between
    its calls and after the last one; each set-up or call is scaled to
    nominal host speed by the mean of the two reference times around it.
    ``times`` and ``setup_s`` hold those scaled times, ``raw_times`` and
    ``raw_setup_s`` the wall times as measured.
    """
    ref = Reference(WORKLOADS[workload].reference)
    times = {e: [] for e in ENGINES}
    raw_times = {e: [] for e in ENGINES}
    setup_s, raw_setup_s, failures = [], [], []
    attempted = 0
    k = 0
    deadline = time.perf_counter() + seconds
    while k == 0 or time.perf_counter() < deadline:
        before = ref.run()
        t0 = time.perf_counter()
        rd = build_round(workload, seed, k)
        raw_setup_s.append(time.perf_counter() - t0)
        after = ref.run()
        setup_s.append(raw_setup_s[-1] * ref.scale(before, after))
        logliks = {}
        for engine in engine_order(k):
            attempted += 1
            before = after
            t0 = time.perf_counter()
            try:
                ll = filter_series(rd.model, rd.y, engine=engine).loglik
            except PeriodicFilterError as exc:
                logliks[engine] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                dt = time.perf_counter() - t0
                after = ref.run()
            raw_times[engine].append(dt)
            times[engine].append(dt * ref.scale(before, after))
            logliks[engine] = ll
            if tracer is None:
                continue
            try:
                replayed = tracer.replay(rd.model, rd.y, engine, dt)
            except PeriodicFilterError as exc:
                logliks[engine] = f"replay: {type(exc).__name__}: {exc}"
                continue
            finally:
                after = ref.run()
            if not abs(replayed - ll) <= REL_TOL * abs(ll):
                logliks[engine] = (f"replayed loglik {replayed!r} differs "
                                   f"from filter_series' {ll!r}")
        failures += [{"round": k, "engine": e, "loglik": logliks[e],
                      "kalman": logliks.get("kalman")}
                     for e in failed_engines(logliks)]
        k += 1
    return {"times": times, "raw_times": raw_times, "setup_s": setup_s,
            "raw_setup_s": raw_setup_s, "rounds": k, "attempted": attempted,
            "failures": failures,
            "reference": {"kind": ref.kind, "nominal_s": NOMINAL_S[ref.kind],
                          "median_s": statistics.median(ref.samples),
                          "runs": len(ref.samples)}}


def _blas_info(pinned: int) -> dict:
    info = {"pinned_threads": pinned, "library": "unknown"}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    if blas:
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                info["threads_reported"] = int(fn())
                return info
    return info


def _src_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted((src / "periodickf").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def provenance(workload: str, seed: int, blas_threads: int) -> dict:
    model = build_round(workload, seed, 0).model
    factorization = auto_factorize(model, build_prelude(
        model, solve_dple(model)[0]))
    return {
        "workload": workload, "seed": seed,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas_info(blas_threads),
        "nproc": os.cpu_count(),
        "model": {"S": model.S, "r": model.r, "m": model.m, "d": model.d,
                  "n": WORKLOADS[workload].n},
        "factorization": {"method": factorization.method,
                          "alpha": factorization.alpha},
    }


def metered_flops(workload: str, seed: int):
    """Flops of one metered ``filter_series`` call per engine on round 0,
    and ``count_costs`` on the same model."""
    rd = build_round(workload, seed, 0)
    flops = {}
    for engine in ENGINES:
        with count_flops() as counter:
            filter_series(rd.model, rd.y, engine=engine)
        flops[engine] = counter.flops
    return flops, count_costs(rd.model, n_periods=2)


def flop_mismatches(values: dict, costs) -> list[dict]:
    """Traced per-step flops that differ from ``count_costs``."""
    keys = {"kalman": "kalman.prde_step.flops"}
    keys.update({e: f"chandrasekhar.{s}.flops"
                 for e, (s, _) in LOWRANK_STEPS.items()})
    return [{"engine": e, "traced": values[key],
             "count_costs": costs.flops_per_step(e)}
            for e, key in keys.items()
            if values[key] != costs.flops_per_step(e)]


def main(argv=None, blas_threads: int = 1) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of periodickf.filter_series")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    run = measure(args.workload, args.seed, args.seconds, tracer)
    stats = {e: summarize([t * 1e3 for t in ts])
             for e, ts in run["times"].items() if ts}
    failed = len(run["failures"])
    report = {"provenance": provenance(args.workload, args.seed, blas_threads),
              "rounds": run["rounds"], "reference": run["reference"],
              "call_ms": stats,
              "raw_call_ms": {e: summarize([t * 1e3 for t in ts])
                              for e, ts in run["raw_times"].items() if ts},
              "setup_s": {"p50": statistics.median(run["setup_s"]),
                          "raw_p50": statistics.median(run["raw_setup_s"]),
                          "n": len(run["setup_s"])},
              "failures": run["failures"][:20]}
    if len(stats) == len(ENGINES):
        report["lowrank_speedup"] = stats["kalman"]["p50"] / min(
            stats[e]["p50"] for e in ENGINES if e != "kalman")

    values = {}
    if args.trace and len(stats) == len(ENGINES):
        flops, costs = metered_flops(args.workload, args.seed)
        values = layer_metrics(tracer, flops, {
            e: s["p50"] / 1e3 for e, s in report["raw_call_ms"].items()})
        report["flop_mismatches"] = flop_mismatches(values, costs)
        failed += len(report["flop_mismatches"])
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        tracer.write(spans_path)
        report["spans"] = {"file": spans_path.name,
                           "count": len(tracer.spans),
                           "replayed_calls": len(tracer.calls)}
        report["derived_metrics"] = [k for k in values
                                     if k.startswith("filtering.state_update.")]
    elif not args.trace:
        values = {"setup_s": report["setup_s"]["p50"],
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "ok_share": 1.0 - failed / run["attempted"]}
        for e, s in stats.items():
            values[f"{e}.call_ms.p50"] = s["p50"]
            values[f"{e}.call_ms.tail"] = s["tail"]

    declared = declared_metrics(args.trace)
    report["missing_metrics"] = sorted(set(declared) - set(values))
    report["undeclared_metrics"] = sorted(set(values) - set(declared))
    correct = (failed == 0 and not report["missing_metrics"]
               and not report["undeclared_metrics"])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"], "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items() if name in values}}))
    return 0 if correct else 1
