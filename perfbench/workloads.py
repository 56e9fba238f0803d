"""Benchmark inputs, generated from the command-line seed.

A workload is a sequence of rounds. A round is one input set (a model
and an observation series) that every engine filters once. Round k is a
pure function of (workload, seed, k): it is rebuilt from scratch through
the package's ``model`` layer, so building it is the benchmark's
set-up and never part of a timed call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from periodickf import (PeriodicModel, load_model, par_family, simulate,
                        validate)

ROOT = Path(__file__).resolve().parents[1]
LONG_S2_MODEL = ROOT / "demos" / "models" / "stationary_s2.json"


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in ``BENCHMARK.json``."""

    name: str
    n: int          # observations per filter_series call
    reference: str  # kind of reference kernel (reference.py) its time tracks


WORKLOADS = {w.name: w for w in (
    Workload("long-s2", 2000, "interp"),
    Workload("wide-par48", 500, "lapack"),
    Workload("estimate-m2", 200, "interp"),
)}


@dataclass
class Round:
    model: PeriodicModel
    y: np.ndarray


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def _sim_seed(seed: int, k: int) -> int:
    return int(_rng(seed, k, 1).integers(2 ** 31))


def _scale_to_radius(F: list, radius: float) -> list:
    # Scaling every F_s by c scales the monodromy spectral radius by
    # c**S exactly.
    S = len(F)
    Phi = np.eye(F[0].shape[0])
    for f in F:
        Phi = f @ Phi
    rho = float(np.max(np.abs(np.linalg.eigvals(Phi))))
    c = (radius / rho) ** (1.0 / S)
    return [c * f for f in F]


def _random_model(rng: np.random.Generator, S: int, r: int, m: int, d: int,
                  radius: float, base: PeriodicModel | None = None,
                  jitter: float = 0.05) -> PeriodicModel:
    """A stationary model with SPD noise covariances and monodromy radius
    ``radius``; with ``base``, that model perturbed by ``jitter`` times
    fresh draws."""
    mats = {key: [] for key in "FGHQR"}
    for s in range(S):
        A = rng.standard_normal((d, d)) / np.sqrt(d)
        B = 0.5 * rng.standard_normal((m, m))
        draw = {"F": rng.standard_normal((r, r)) / np.sqrt(r),
                "G": rng.standard_normal((r, d)) / np.sqrt(d),
                "H": rng.standard_normal((r, m)),
                "Q": A @ A.T, "R": B @ B.T}
        if base is None:
            draw["Q"] = draw["Q"] + 0.5 * np.eye(d)
            draw["R"] = draw["R"] + 0.3 * np.eye(m)
        for key, value in draw.items():
            mats[key].append(value if base is None
                             else getattr(base, key)[s] + jitter * value)
    mats["F"] = _scale_to_radius(mats["F"], radius)
    model = PeriodicModel(S=S, r=r, m=m, d=d, **mats)
    problems = validate(model)
    if problems:
        raise ValueError("generated model is invalid: " + "; ".join(problems))
    return model


def build_round(name: str, seed: int, k: int) -> Round:
    """Inputs of round ``k`` of workload ``name`` under ``seed``."""
    n = WORKLOADS[name].n
    if name == "long-s2":
        model = load_model(LONG_S2_MODEL)
        return Round(model, simulate(model, n, _sim_seed(seed, k))[1])
    if name == "wide-par48":
        model = par_family(4, seed)(48)
        return Round(model, simulate(model, n, _sim_seed(seed, k))[1])
    if name == "estimate-m2":
        # One observed series from the "true" model; each round filters
        # it under a fresh perturbation, as a likelihood search would.
        truth = _random_model(_rng(seed, 0), S=4, r=24, m=2, d=24,
                              radius=0.8)
        y = simulate(truth, n, _sim_seed(seed, 0))[1]
        model = _random_model(_rng(seed, k, 2), S=4, r=24, m=2, d=24,
                              radius=0.8, base=truth)
        return Round(model, y)
    raise KeyError(name)

