"""Traced replay of ``filter_series``, layer by layer.

The replay calls the public functions ``filter_series`` is built from,
in the order it calls them, and records a span around each call:

* ``kalman.solve_dple`` for the zero-state start (no stored W1);
* for ``kalman``: ``kalman.prde_step`` once per step;
* for the low-rank engines: ``chandrasekhar.build_prelude``,
  ``chandrasekhar.auto_factorize`` (without ``W``, as the engine calls
  it), ``chandrasekhar.chand_init``, ``chandrasekhar.to_inverse_state``
  (``chand-minv`` only) and one ``chandrasekhar.step_*`` per step;
* ``filtering.loglik`` around ``gaussian_loglik``.

The per-step gains and state update between those calls are the same
expressions ``filter_series`` evaluates, so the replay reproduces its
log-likelihood; their time is not spanned and is reported as derived
(untraced call time minus the replayed layers).

Calls made inside the package are spanned by wrapping, for the length
of one replay, the module attributes they are looked up through:
``is_periodically_stationary`` (called by ``solve_dple`` and the
closed-form factorizations) and ``solve_dple`` (called again by
``auto_factorize``).

Each span is ``[name, start_ns, end_ns, parent, call, flops_start,
flops_end, error]``; flops come from one ``count_flops`` counter active
for the whole replay, so a span's flops include its children's.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import periodickf.chandrasekhar as chandrasekhar_module
import periodickf.kalman as kalman_module
from periodickf import (FilterOutput, PeriodicFilterError, auto_factorize,
                        build_prelude, chand_init, count_flops,
                        gaussian_loglik, prde_step, solve_dple, step_alg31,
                        step_alg32, step_minv, to_inverse_state)
from periodickf.linalg import add, matmul, spd_solve, sub, symmetrize

ENGINES = ("kalman", "chand31", "chand32", "chand-minv")
LOWRANK_STEPS = {"chand31": ("step_alg31", step_alg31),
                 "chand32": ("step_alg32", step_alg32),
                 "chand-minv": ("step_minv", step_minv)}
# (module, attribute, span name) of the calls made inside the package.
WRAPPED = ((kalman_module, "is_periodically_stationary",
            "kalman.is_periodically_stationary"),
           (chandrasekhar_module, "is_periodically_stationary",
            "kalman.is_periodically_stationary"),
           (chandrasekhar_module, "solve_dple", "kalman.solve_dple"))
CLOSED_FORMS = ("gain-form", "steady-form")

NAME, START, END, PARENT, CALL, FLOPS0, FLOPS1, ERROR = range(8)


class Tracer:
    """In-memory span recorder for replayed ``filter_series`` calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[dict] = []
        self._open: list[int] = []
        self._counter = None

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           len(self.calls) - 1, self._counter.flops, 0, None])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        span = self.spans[self._open.pop()]
        span[END] = time.perf_counter_ns()
        span[FLOPS1] = self._counter.flops

    def _mark(self, exc: PeriodicFilterError) -> None:
        # The innermost open span is where the error was raised.
        if not hasattr(exc, "traced_span"):
            exc.traced_span = self._open[-1]
            self.spans[self._open[-1]][ERROR] = type(exc).__name__

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            except PeriodicFilterError as exc:
                self._mark(exc)
                raise
            finally:
                self.end()
        return traced

    @contextmanager
    def _wrapped(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for (mod, attr, name), (_, _, fn) in zip(WRAPPED, saved):
                setattr(mod, attr, self._wrap(fn, name))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def replay(self, model, y, engine: str, untraced_s: float) -> float:
        """Replay one ``filter_series(model, y, engine)`` call; returns
        its log-likelihood. ``untraced_s`` is the same call's untraced
        wall time, kept for the derived state-update time."""
        call = {"engine": engine, "n": len(y), "r": model.r,
                "untraced_s": untraced_s, "alpha": None, "method": None}
        self.calls.append(call)
        with count_flops() as counter, self._wrapped():
            self._counter = counter
            self.begin(f"filtering.filter_series.{engine}")
            try:
                loglik = self._body(model, y, engine, call)
            except PeriodicFilterError as exc:
                self._mark(exc)
                while self._open:
                    self.end()
                raise
            self.end()
        return loglik

    def _body(self, model, y, engine: str, call: dict) -> float:
        if model.W1 is not None:
            raise ValueError("the replay covers the zero-state start "
                             "without a stored W1 only")
        n, m, r = len(y), model.m, model.r
        self.begin("kalman.solve_dple")
        Sigma = solve_dple(model)[0]
        self.end()
        if engine == "kalman":
            state = None
        else:
            step_name, step_fn = LOWRANK_STEPS[engine]
            self.begin("chandrasekhar.build_prelude")
            prelude = build_prelude(model, Sigma)
            self.end()
            self.begin("chandrasekhar.auto_factorize")
            factorization = auto_factorize(model, prelude)
            self.end()
            call["alpha"] = factorization.alpha
            call["method"] = factorization.method
            self.begin("chandrasekhar.chand_init")
            state = chand_init(model, factorization, prelude)
            self.end()
            if engine == "chand-minv":
                self.begin("chandrasekhar.to_inverse_state")
                state = to_inverse_state(state)
                self.end()
            step_span = f"chandrasekhar.{step_name}"

        innovations = np.empty((n, m))
        Omegas = np.empty((n, m, m))
        x = np.zeros(r)
        for t in range(1, n + 1):
            F, _, H, _, R = model.at(t)
            if state is None:
                U = matmul(Sigma, H)
                Omega = symmetrize(add(matmul(H.T, U), R))
                K = matmul(F, U)
            else:
                K, Omega = state.current_gain()
            e = sub(y[t - 1], matmul(H.T, x))
            KtilT = spd_solve(Omega, K.T)
            x = add(matmul(F, x), matmul(KtilT.T, e))
            innovations[t - 1] = e
            Omegas[t - 1] = Omega
            if state is None:
                self.begin("kalman.prde_step")
                Sigma = prde_step(model, Sigma, t)
            else:
                self.begin(step_span)
                state = step_fn(model, state)
            self.end()

        self.begin("filtering.loglik")
        loglik = gaussian_loglik(FilterOutput(
            engine=engine, n=n, innovations=innovations, Omega=Omegas,
            K=np.empty((n, r, m)), xhat=np.empty((n + 1, r)),
            loglik=float("nan")))
        self.end()
        return loglik

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                    "parent": s[PARENT], "call": s[CALL],
                    "engine": self.calls[s[CALL]]["engine"],
                    "flops": s[FLOPS1] - s[FLOPS0], "error": s[ERROR]}))
                fh.write("\n")


def _per_call(tracer: Tracer) -> list[dict]:
    """Per call and span name: inclusive ns, self ns, flops, count."""
    out = [dict() for _ in tracer.calls]
    child_ns = [0] * len(tracer.spans)
    for s in tracer.spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(tracer.spans):
        agg = out[s[CALL]].setdefault(
            s[NAME], {"ns": 0, "self_ns": 0, "flops": 0, "count": 0})
        agg["ns"] += s[END] - s[START]
        agg["self_ns"] += s[END] - s[START] - child_ns[i]
        agg["flops"] += s[FLOPS1] - s[FLOPS0]
        agg["count"] += 1
    return out


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def layer_metrics(tracer: Tracer, flops_by_engine: dict,
                  untraced_p50_s: dict) -> dict:
    """Per-layer metric values from the recorded spans.

    ``flops_by_engine`` holds each engine's flops for one metered,
    untraced ``filter_series`` call; ``untraced_p50_s`` the untraced
    median wall time of a call per engine, as measured (spans are raw
    wall times too).
    """
    per_call = _per_call(tracer)
    calls = tracer.calls

    def spans_named(name):
        return [agg[name] for agg in per_call if name in agg]

    def per_span_ms(name, key="ns"):
        return _median(a[key] / a["count"] / 1e6 for a in spans_named(name))

    def per_step(name):
        """Median time (us) and the flops, which must not vary, per step."""
        rows = [(agg[name], c["n"]) for c, agg in zip(calls, per_call)
                if name in agg]
        flops = {a["flops"] / n for a, n in rows}
        if len(flops) != 1:
            raise RuntimeError(f"{name}: flops per step vary across calls "
                               f"({sorted(flops)})")
        return _median(a["ns"] / n / 1e3 for a, n in rows), flops.pop()

    m = {}
    m["kalman.is_periodically_stationary.ms"] = per_span_ms(
        "kalman.is_periodically_stationary")
    m["kalman.solve_dple.ms"] = per_span_ms("kalman.solve_dple")
    m["kalman.solve_dple.per_call"] = statistics.fmean(
        agg.get("kalman.solve_dple", {"count": 0})["count"]
        for agg in per_call)
    m["kalman.solve_dple.lift_mb"] = calls[0]["r"] ** 4 * 8 / 1e6
    m["kalman.prde_step.us"], m["kalman.prde_step.flops"] = per_step(
        "kalman.prde_step")

    m["chandrasekhar.build_prelude.ms"] = per_span_ms(
        "chandrasekhar.build_prelude")
    m["chandrasekhar.build_prelude.flops"] = _median(
        a["flops"] for a in spans_named("chandrasekhar.build_prelude"))
    m["chandrasekhar.auto_factorize.ms"] = per_span_ms(
        "chandrasekhar.auto_factorize")
    m["chandrasekhar.auto_factorize.self_ms"] = per_span_ms(
        "chandrasekhar.auto_factorize", "self_ns")
    lowrank = [c for c in calls if c["method"] is not None]
    m["chandrasekhar.auto_factorize.alpha"] = _median(
        c["alpha"] for c in lowrank)
    m["chandrasekhar.auto_factorize.closed_form_ratio"] = statistics.fmean(
        c["method"] in CLOSED_FORMS for c in lowrank)
    m["chandrasekhar.chand_init.ms"] = per_span_ms("chandrasekhar.chand_init")
    m["chandrasekhar.to_inverse_state.ms"] = per_span_ms(
        "chandrasekhar.to_inverse_state")
    for step_name, _ in LOWRANK_STEPS.values():
        key = f"chandrasekhar.{step_name}"
        m[f"{key}.us"], m[f"{key}.flops"] = per_step(key)

    m["filtering.loglik.us"], m["filtering.loglik.flops"] = per_step(
        "filtering.loglik")

    for engine in ENGINES:
        root = f"filtering.filter_series.{engine}"
        m[f"{root}.ms"] = per_span_ms(root)
        m[f"{root}.flops"] = flops_by_engine[engine]
        derived = []
        for c, agg in zip(calls, per_call):
            if c["engine"] != engine or root not in agg:
                continue
            layers_ns = agg[root]["ns"] - agg[root]["self_ns"]
            derived.append((c["untraced_s"] * 1e9 - layers_ns) / c["n"] / 1e3)
        m[f"filtering.state_update.{engine}.us"] = _median(derived)

    errors = {"kalman": 0, "chandrasekhar": 0, "filtering": 0}
    for s in tracer.spans:
        if s[ERROR] is not None:
            errors[s[NAME].split(".")[0]] += 1
    for layer, count in errors.items():
        m[f"{layer}.errors"] = count

    traced = sum(per_span_ms(f"filtering.filter_series.{e}") for e in ENGINES)
    untraced = sum(untraced_p50_s[e] * 1e3 for e in ENGINES)
    m["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    m["lowrank_speedup"] = untraced_p50_s["kalman"] / min(
        untraced_p50_s[e] for e in ENGINES if e != "kalman")
    return m
