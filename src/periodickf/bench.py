"""Arithmetic-cost comparison of the covariance engines.

Drives the filter's own engines, built from the package's one start
policy (the zero-state start of :func:`periodickf.filter_series`, so
the factor width alpha is a filter run's), for a whole number of periods
under the metering layer in :mod:`periodickf.linalg` and reports exact
integer flop counts next to wall time.  The counted region is the
steady-state loop only; one-off initialization (stationary solve,
startup period, factorization) is excluded, since the comparison is
about per-iteration cost: the full recursion refreshes an r x r
covariance every step (cubic in r), while the low-rank engines update
an r x alpha factor and small solves (quadratic in r).

Counting rules are documented in :mod:`periodickf.linalg`; fractional
rule terms (n^3/3 for a factorization) are floored so counts stay exact
integers, and the symmetric-indefinite solves of the inverse-form
engine are charged at the same rate as the definite ones.  Metering
never changes results: engines run the same code path with the counter
on or off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import NotStationary, SingularLift
from .filtering import (ENGINES, LOWRANK_STEPS, _check_engine,
                        _initial_conditions, _make_engine,
                        _stationary_covariances)
from .linalg import count_flops
from .model import PeriodicModel, par_to_state_space, random_stationary_par

_COMPLEXITY = {"kalman": "O(r^3)",
               **dict.fromkeys(LOWRANK_STEPS, "O(S m r^2)")}


@dataclass
class EngineCost:
    engine: str
    steps: int
    flops: int
    seconds: float


@dataclass
class CostReport:
    """Flop counts per engine for ``n_periods`` periods of covariance
    steps on one model. ``alpha`` is the factor width the low-rank
    engines ran with (None when none were requested)."""

    S: int
    r: int
    m: int
    d: int
    alpha: int | None
    n_periods: int
    costs: list[EngineCost]

    def cost(self, engine: str) -> EngineCost:
        for c in self.costs:
            if c.engine == engine:
                return c
        raise KeyError(engine)

    def flops_per_step(self, engine: str) -> float:
        c = self.cost(engine)
        return c.flops / c.steps

    def flops_per_period(self, engine: str) -> float:
        return self.flops_per_step(engine) * self.S

    def ratio_vs_kalman(self, engine: str) -> float:
        return self.cost("kalman").flops / self.cost(engine).flops


def count_costs(model: PeriodicModel, n_periods: int,
                engines: Sequence[str] = ENGINES) -> CostReport:
    """Meter ``n_periods * S`` covariance steps of each engine.

    Builds and steps the same engine objects :func:`filter_series`
    does, from its zero-state start (a stored W1, else the stationary
    W_1, else zero when neither exists).  The start's one Lyapunov
    solve, unmetered, is made next to a stored W1 too (in a filter run
    the one engine makes it itself), and its outcome, the stationary
    covariances or none, is handed to every engine: no engine solves
    or decides stationarity again.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be positive")
    if not engines:
        raise ValueError(f"no engine given; expected some of {ENGINES}")
    for name in engines:
        _check_engine(name)
    steps = n_periods * model.S
    try:
        _, Sigma1, W = _initial_conditions(model, "zero-state", None, None)
    except (NotStationary, SingularLift):
        Sigma1, W = np.zeros((model.r, model.r)), []
    if W is None:   # a stored W1: one solve for every engine
        W = _stationary_covariances(model)
    built = [_make_engine(model, name, Sigma1, W, trace=False)
             for name in engines]
    costs = []
    for name, eng in zip(engines, built):
        with count_flops() as counter:
            t0 = time.perf_counter()
            for t in range(1, steps + 1):
                eng.step(t)
            seconds = time.perf_counter() - t0
        costs.append(EngineCost(engine=name, steps=steps,
                                flops=counter.flops, seconds=seconds))
    alphas = [eng.alpha for eng in built if eng.alpha is not None]
    return CostReport(S=model.S, r=model.r, m=model.m, d=model.d,
                      alpha=alphas[0] if alphas else None,
                      n_periods=n_periods, costs=costs)


@dataclass
class ScalingTable:
    """The :class:`CostReport` of each state dimension run, in order,
    with fitted log-log slopes of flops per step against r (None when
    fewer than two sizes were run: a one-point fit is refused)."""

    engines: tuple
    n_periods: int
    rows: list[CostReport]
    slopes: dict


def scaling_table(model_factory: Callable[[int], PeriodicModel],
                  r_values: Sequence[int],
                  engines: Sequence[str] = ("kalman", "chand31"),
                  n_periods: int = 3) -> ScalingTable:
    """Run :func:`count_costs` across state dimensions.

    ``model_factory(r)`` must return the family member with state
    dimension r.  Slopes are least-squares fits of log(flops/step)
    against log(r).
    """
    rows = [count_costs(model_factory(int(r)), n_periods, engines)
            for r in r_values]
    slopes = {}
    for e in engines:
        if len(rows) < 2:
            slopes[e] = None
        else:
            logs_r = np.log([row.r for row in rows])
            logs_f = np.log([row.flops_per_step(e) for row in rows])
            slopes[e] = float(np.polyfit(logs_r, logs_f, 1)[0])
    return ScalingTable(engines=tuple(engines), n_periods=n_periods,
                        rows=rows, slopes=slopes)


def par_family(S: int = 2, seed: int = 7) -> Callable[[int], PeriodicModel]:
    """A one-output stationary PAR family keyed by state dimension;
    the low-rank engines run it at factor width alpha = S."""
    def factory(r: int) -> PeriodicModel:
        return par_to_state_space(random_stationary_par(S, r, seed))
    return factory


# --- rendering ---------------------------------------------------------------

def _aligned(cols: list[str], body: list[list[str]]) -> list[str]:
    """Header, dash rule and body rows, each column padded to its
    widest cell."""
    widths = [max([len(col)] + [len(row[i]) for row in body])
              for i, col in enumerate(cols)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in [cols, ["-" * w for w in widths], *body]]


def format_cost_table(report: CostReport) -> str:
    header = (f"model: S={report.S} r={report.r} m={report.m} d={report.d}"
              + (f" alpha={report.alpha}" if report.alpha is not None else "")
              + f"   periods={report.n_periods}")
    cols = ["engine", "steps", "flops", "flops/step", "flops/period",
            "seconds", "vs kalman", "complexity"]
    have_kalman = any(c.engine == "kalman" for c in report.costs)
    body = []
    for c in report.costs:
        ratio = (f"{report.ratio_vs_kalman(c.engine):.2f}x"
                 if have_kalman and c.engine != "kalman" else "-")
        body.append([
            c.engine, str(c.steps), str(c.flops),
            f"{report.flops_per_step(c.engine):.1f}",
            f"{report.flops_per_period(c.engine):.1f}",
            f"{c.seconds:.4f}", ratio, _COMPLEXITY[c.engine],
        ])
    return "\n".join([header, *_aligned(cols, body)])


def cost_report_rows(report: CostReport):
    """(header, rows) pairs for CSV output."""
    header = ["engine", "S", "r", "m", "d", "alpha", "periods", "steps",
              "flops", "flops_per_step", "flops_per_period", "seconds"]
    rows = []
    for c in report.costs:
        rows.append([c.engine, report.S, report.r, report.m, report.d,
                     "" if report.alpha is None else report.alpha,
                     report.n_periods, c.steps, c.flops,
                     report.flops_per_step(c.engine),
                     report.flops_per_period(c.engine), c.seconds])
    return header, rows


def format_scaling_table(table: ScalingTable) -> str:
    cols = ["r", "alpha"] + [f"{e} flops/step" for e in table.engines]
    body = []
    for row in table.rows:
        body.append([str(row.r),
                     "-" if row.alpha is None else str(row.alpha)]
                    + [f"{row.flops_per_step(e):.1f}"
                       for e in table.engines])
    lines = _aligned(cols, body)
    for e in table.engines:
        slope = table.slopes[e]
        lines.append(f"log-log slope [{e}]: "
                     + ("n/a (single size)" if slope is None
                        else f"{slope:.3f}"))
    return "\n".join(lines)


def scaling_table_rows(table: ScalingTable):
    header = ["r", "alpha"] + [f"flops_per_step_{e}" for e in table.engines]
    rows = [[row.r, "" if row.alpha is None else row.alpha]
            + [row.flops_per_step(e) for e in table.engines]
            for row in table.rows]
    return header, rows
