"""Command line front end.

Subcommands: ``validate``, ``simulate``, ``filter``, ``dple``,
``bench``.  Exit codes: 0 on success, 1 on a domain or numeric failure
(the error class name is printed to stderr), 2 on usage or I/O problems
(bad flags, unreadable or malformed files, mismatched data shapes).

Numeric CSV output uses ``repr`` so every float round-trips exactly.
Column layouts are documented in the README.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bench as bench_mod
from .exceptions import EngineInitFailed, PeriodicFilterError
from .filtering import ENGINES, filter_series
from .kalman import monodromy, period_noise, solve_dple
from .linalg import rel_err, spectral_radius
from .model import (ModelFormatError, ParModel, load_model,
                    par_to_state_space, random_stationary_par, simulate,
                    validate, validate_par)


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodickf",
        description="Filtering and cost tools for periodic state-space "
                    "models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model", help="JSON model file (state-space or PAR)")

    p = sub.add_parser("simulate", help="draw a trajectory")
    p.add_argument("model")
    p.add_argument("-n", "--steps", type=_nonneg_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", choices=("zero-state", "stationary"),
                   default="zero-state")
    p.add_argument("--states", action="store_true",
                   help="also emit the latent states")
    p.add_argument("-o", "--output", help="CSV path (default stdout)")

    p = sub.add_parser("filter", help="filter an observation series")
    p.add_argument("model")
    p.add_argument("data", help="CSV of observations, one row per step")
    p.add_argument("--engine", choices=ENGINES, default="kalman")
    p.add_argument("--init", choices=("zero-state", "stationary"),
                   default="zero-state")
    p.add_argument("--sigma-trace", action="store_true",
                   help="append the covariance diagonal per step")
    p.add_argument("--compare", choices=("kalman",),
                   help="append a running max relative deviation against "
                        "this engine")
    p.add_argument("-o", "--output")

    p = sub.add_parser("dple", help="stationary per-season covariances")
    p.add_argument("model")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output")

    p = sub.add_parser("bench", help="meter engine flop costs")
    p.add_argument("model", nargs="?", help="JSON model file")
    p.add_argument("--par", nargs=3, type=int, metavar=("S", "P", "SEED"),
                   help="generate a random stationary PAR_S(P) model "
                        "instead of reading a file")
    p.add_argument("--periods", type=_pos_int, default=3)
    p.add_argument("--engines", default=",".join(ENGINES),
                   help="comma-separated engine list")
    p.add_argument("--r-sweep", dest="r_sweep",
                   help="comma-separated state dimensions; runs the PAR "
                        "family scaling table instead of a single model")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("-o", "--output")
    return parser


def _fmt(value) -> str:
    return repr(float(value))


def _open_output(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_csv(path, header, rows) -> None:
    stream, needs_close = _open_output(path)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if needs_close:
            stream.close()


def _load_state_space(path):
    obj = load_model(path)
    if isinstance(obj, ParModel):
        problems = validate_par(obj)
        if problems:
            raise ModelFormatError("invalid PAR model: "
                                   + "; ".join(problems))
        return par_to_state_space(obj)
    return obj


def _require_valid(model) -> None:
    problems = validate(model)
    if problems:
        raise ModelFormatError("invalid model: " + "; ".join(problems))


def cmd_validate(args) -> int:
    obj = load_model(args.model)
    if isinstance(obj, ParModel):
        problems = validate_par(obj)
        if not problems:
            problems = validate(par_to_state_space(obj))
    else:
        problems = validate(obj)
    for line in problems:
        print(line)
    if problems:
        return 1
    print("ok")
    return 0


def cmd_simulate(args) -> int:
    model = _load_state_space(args.model)
    _require_valid(model)
    x, y = simulate(model, args.steps, seed=args.seed, start=args.start)
    # no time column: the output feeds straight back into `filter`
    header = [f"y{j + 1}" for j in range(model.m)]
    if args.states:
        header += [f"x{j + 1}" for j in range(model.r)]
    rows = []
    for t in range(1, args.steps + 1):
        row = [_fmt(v) for v in y[t - 1]]
        if args.states:
            row += [_fmt(v) for v in x[t - 1]]
        rows.append(row)
    _write_csv(args.output, header, rows)
    return 0


def _read_observations(path, m: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = [row for row in csv.reader(fh) if row]
    if raw and not _is_numeric_row(raw[0]):
        raw = raw[1:]  # header row
    if not raw:
        return np.zeros((0, m))
    try:
        data = np.array([[float(cell) for cell in row] for row in raw])
    except ValueError:
        raise ModelFormatError(f"{path}: non-numeric observation data") \
            from None
    if data.shape[1] != m:
        raise ModelFormatError(
            f"{path}: expected {m} observation column(s), "
            f"got {data.shape[1]}")
    return data


def _is_numeric_row(row) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def _step_deviation(a, b, t: int) -> float:
    return max(rel_err(a.innovations[t], b.innovations[t]),
               rel_err(a.Omega[t], b.Omega[t]),
               rel_err(a.K[t], b.K[t]),
               rel_err(a.xhat[t], b.xhat[t]))


def cmd_filter(args) -> int:
    model = _load_state_space(args.model)
    _require_valid(model)
    y = _read_observations(args.data, model.m)
    out = filter_series(model, y, engine=args.engine, init=args.init,
                        sigma_trace=args.sigma_trace)
    reference = None
    if args.compare:
        reference = out if args.engine == args.compare else filter_series(
            model, y, engine=args.compare, init=args.init)

    header = (["t"] + [f"e{j + 1}" for j in range(model.m)]
              + [f"omega{j + 1}" for j in range(model.m)] + ["loglik"])
    if args.sigma_trace:
        header += [f"sigma{j + 1}" for j in range(model.r)]
    if reference is not None:
        header += ["dev_vs_" + args.compare]

    rows = []
    running_ll = 0.0
    running_dev = 0.0
    for t in range(out.n):
        running_ll += out.terms[t]
        row = ([str(t + 1)]
               + [_fmt(v) for v in out.innovations[t]]
               + [_fmt(out.Omega[t][j, j]) for j in range(model.m)]
               + [_fmt(running_ll)])
        if args.sigma_trace:
            row += [_fmt(out.sigma_trace[t][j, j]) for j in range(model.r)]
        if reference is not None:
            running_dev = max(running_dev, _step_deviation(out, reference, t))
            row += [_fmt(running_dev)]
        rows.append(row)
    _write_csv(args.output, header, rows)
    return 0


def cmd_dple(args) -> int:
    model = _load_state_space(args.model)
    _require_valid(model)
    W = solve_dple(model)
    Phi = monodromy(model)

    S = model.S
    lift_resid = rel_err(W[0], Phi @ W[0] @ Phi.T + period_noise(model))
    prop_resid = _dple_propagation_residual(model, W)

    if args.format == "json":
        payload = {
            "S": S,
            "r": model.r,
            "monodromy_spectral_radius": spectral_radius(Phi),
            "W": [w.tolist() for w in W],
            "residuals": {"lift": lift_resid, "propagation": prop_resid},
        }
        _write_text(args.output, json.dumps(payload, indent=2))
        return 0
    header = ["season", "row", "col", "value"]
    rows = []
    for s in range(1, S + 1):
        for i in range(model.r):
            for j in range(model.r):
                rows.append([str(s), str(i + 1), str(j + 1),
                             _fmt(W[s - 1][i, j])])
    rows.append(["lift_residual", "", "", _fmt(lift_resid)])
    rows.append(["propagation_residual", "", "", _fmt(prop_resid)])
    _write_csv(args.output, header, rows)
    return 0


def _dple_propagation_residual(model, W) -> float:
    S = model.S
    worst = 0.0
    for s in range(1, S + 1):
        nxt = W[s % S]
        prop = model.F[s - 1] @ W[s - 1] @ model.F[s - 1].T \
            + model.G[s - 1] @ model.Q[s - 1] @ model.G[s - 1].T
        worst = max(worst, rel_err(nxt, prop))
    return worst


def cmd_bench(args) -> int:
    if (args.model is None) == (args.par is None):
        raise ModelFormatError(
            "bench needs exactly one of: a model file, or --par S P SEED")
    engines = tuple(name.strip() for name in args.engines.split(",")
                    if name.strip())

    if args.r_sweep is not None:
        if args.par is None:
            raise ModelFormatError("--r-sweep runs the PAR family; "
                                   "give --par S P SEED (P is ignored)")
        S, _, seed = args.par
        try:
            r_values = [int(v) for v in args.r_sweep.split(",") if v.strip()]
        except ValueError:
            raise ModelFormatError("--r-sweep takes comma-separated "
                                   "integers") from None
        if not r_values or min(r_values) < 1:
            raise ModelFormatError("--r-sweep needs positive integers")
        table = bench_mod.scaling_table(bench_mod.par_family(S, seed),
                                        r_values, engines=engines,
                                        n_periods=args.periods)
        if args.format == "csv":
            header, rows = bench_mod.scaling_table_rows(table)
            _write_csv(args.output, header, rows)
        else:
            _write_text(args.output, bench_mod.format_scaling_table(table))
        return 0

    if args.par is not None:
        S, p, seed = args.par
        if S < 1 or p < 1:
            raise ModelFormatError("--par needs positive S and P")
        model = par_to_state_space(random_stationary_par(S, p, seed))
    else:
        model = _load_state_space(args.model)
        _require_valid(model)
    report = bench_mod.count_costs(model, args.periods, engines)
    if args.format == "csv":
        header, rows = bench_mod.cost_report_rows(report)
        _write_csv(args.output, header, rows)
    else:
        _write_text(args.output, bench_mod.format_cost_table(report))
    return 0


def _write_text(path, text: str) -> None:
    stream, needs_close = _open_output(path)
    try:
        stream.write(text + "\n")
    finally:
        if needs_close:
            stream.close()


_HANDLERS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "filter": cmd_filter,
    "dple": cmd_dple,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except PeriodicFilterError as exc:
        named = exc
        if isinstance(exc, EngineInitFailed) and isinstance(
                exc.__cause__, PeriodicFilterError):
            named = exc.__cause__
        print(f"{type(named).__name__}: {named}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ModelFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def script_entry() -> None:  # console-script hook
    sys.exit(main())
