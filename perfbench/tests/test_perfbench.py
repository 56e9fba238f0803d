"""Tests of the benchmark's own code (inputs, statistics, replay, output)."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
from periodickf import count_costs, filter_series  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from replay import ENGINES, LOWRANK_STEPS, Tracer, layer_metrics  # noqa: E402
from stats import summarize, tail_rule  # noqa: E402
from workloads import WORKLOADS, build_round  # noqa: E402


def _arrays(rd):
    m = rd.model
    return [rd.y] + [np.asarray(a) for field in (m.F, m.G, m.H, m.Q, m.R)
                     for a in field]


def _identical(a, b):
    xs, ys = _arrays(a), _arrays(b)
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    assert _identical(build_round(name, 5, 1), build_round(name, 5, 1))
    assert not _identical(build_round(name, 5, 1), build_round(name, 6, 1))
    assert not _identical(build_round(name, 5, 1), build_round(name, 5, 2))
    rd = build_round(name, 5, 1)
    assert rd.y.shape == (WORKLOADS[name].n, rd.model.m)


def test_estimate_m2_filters_one_series_under_fresh_models():
    a, b = build_round("estimate-m2", 9, 0), build_round("estimate-m2", 9, 1)
    assert a.y.tobytes() == b.y.tobytes()
    assert not np.array_equal(a.model.F[0], b.model.F[0])
    Phi = np.eye(a.model.r)
    for F in a.model.F:
        Phi = F @ Phi
    assert np.max(np.abs(np.linalg.eigvals(Phi))) == pytest.approx(0.8)


@pytest.mark.parametrize("n, pct, beyond", [
    (1, 50.0, 0), (3, 50.0, 1), (19, 50.0, 9), (20, 50.0, 10),
    (21, 100.0 * 11 / 21, 10), (40, 75.0, 10), (100, 90.0, 10),
    (1000, 99.0, 10)])
def test_tail_rule(n, pct, beyond):
    assert tail_rule(n) == (pct, beyond)


def test_summarize_reports_percentile_and_counts():
    s = summarize([float(x) for x in range(100, 0, -1)])
    assert s == {"p50": 50.5, "tail": 90.0, "tail_pct": 90.0,
                 "tail_beyond": 10, "n": 100}
    # exactly ten samples lie above the tail
    xs = [float(x) for x in range(37)]
    assert sum(x > summarize(xs)["tail"] for x in xs) == 10
    small = summarize([3.0, 1.0, 2.0])
    assert small["tail"] == small["p50"] == 2.0
    assert (small["tail_pct"], small["tail_beyond"], small["n"]) == (50.0, 1, 3)


@pytest.mark.parametrize("kind", sorted(NOMINAL_S))
def test_reference_scale(kind):
    ref = Reference(kind)
    dt = ref.run()
    assert dt > 0 and ref.samples == [dt]
    nominal = NOMINAL_S[kind]
    assert ref.scale(0.5 * nominal, 1.5 * nominal) == pytest.approx(1.0)
    assert ref.scale(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        Reference("gpu")


def test_failed_engines():
    ok = {"kalman": -100.0, "chand31": -100.0 * (1 + 5e-9)}
    assert harness.failed_engines(ok) == []
    off = {"kalman": -100.0, "chand31": -100.0 * (1 + 2e-8), "chand32": "err"}
    assert harness.failed_engines(off) == ["chand31", "chand32"]
    assert harness.failed_engines({"kalman": "OmegaNotPD", "chand31": -1.0}) \
        == ["kalman", "chand31"]
    assert harness.failed_engines({"kalman": float("nan")}) == ["kalman"]


def test_engine_order_alternates():
    assert harness.engine_order(0) == ENGINES
    assert harness.engine_order(1) == ENGINES[::-1]


def test_replay_matches_filter_series_and_count_costs():
    rd = build_round("estimate-m2", 4, 0)
    tracer = Tracer()
    for engine in ENGINES:
        ll = filter_series(rd.model, rd.y, engine=engine).loglik
        assert tracer.replay(rd.model, rd.y, engine, 0.01) == \
            pytest.approx(ll, rel=1e-12, abs=0.0)
    values = layer_metrics(tracer, {e: 1 for e in ENGINES},
                           {e: 0.01 for e in ENGINES})
    costs = count_costs(rd.model, n_periods=2)
    assert harness.flop_mismatches(values, costs) == []
    assert values["kalman.prde_step.flops"] == costs.flops_per_step("kalman")
    for engine, (step, _) in LOWRANK_STEPS.items():
        assert values[f"chandrasekhar.{step}.flops"] == \
            costs.flops_per_step(engine)
    # the low-rank engines solve the DPLE again inside auto_factorize
    assert values["kalman.solve_dple.per_call"] == 1.75
    assert values["chandrasekhar.auto_factorize.alpha"] == 8
    assert values["chandrasekhar.auto_factorize.closed_form_ratio"] == 1.0
    names = {s[0] for s in tracer.spans}
    assert "kalman.is_periodically_stationary" in names
    assert sum(s[0] == "kalman.prde_step" for s in tracer.spans) == len(rd.y)
    for span in tracer.spans:
        assert span[2] >= span[1]
        if span[3] >= 0:
            parent = tracer.spans[span[3]]
            assert parent[1] <= span[1] and span[2] <= parent[2]
            assert parent[4] == span[4]


def test_replay_restores_wrapped_functions():
    import periodickf.chandrasekhar as chandrasekhar_module
    import periodickf.kalman as kalman_module
    before = (kalman_module.is_periodically_stationary,
              chandrasekhar_module.solve_dple)
    rd = build_round("long-s2", 1, 0)
    Tracer().replay(rd.model, rd.y, "chand31", 0.01)
    assert (kalman_module.is_periodically_stationary,
            chandrasekhar_module.solve_dple) == before


@pytest.mark.parametrize("trace", [0, 1])
def test_output_metrics_are_the_declared_ones(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = harness.main(["--workload", "estimate-m2", "--seed", "3",
                             "--seconds", "0", "--trace", str(trace)])
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(ENGINES)
    declared = harness.declared_metrics(trace)
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-s2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
