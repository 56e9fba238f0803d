"""``tools/bench_pairs.py``: pair order and the summary arithmetic, on
synthetic runs and on stand-in benchmark commands."""

import argparse
import importlib.util
import json
import sys

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(workload, metric, parent, change):
    return [{"workload": workload, "seed": seed, "seconds": 1.0,
             "side": side, "metrics": {metric: value}}
            for seed, (p, c) in enumerate(zip(parent, change))
            for side, value in (("parent", p), ("change", c))]


def test_seed_range_and_pair_order():
    assert bench_pairs.seed_range("2901-2910") == list(range(2901, 2911))
    assert bench_pairs.seed_range("7") == [7]
    assert bench_pairs.pair_order(0) == ("parent", "change")
    assert bench_pairs.pair_order(1) == ("change", "parent")
    assert bench_pairs.pair_order(2) == ("parent", "change")


def test_lower_is_better_summary():
    runs = _runs("w", "t", [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 2.5, 5.0])
    got = bench_pairs.summarize(runs, {"t": "lower"})["w"]["t"]
    assert got == {"parent_median": 2.5, "change_median": 2.25,
                   "parent_quartiles": [1.75, 3.25],
                   "change_quartiles": [1.625, 3.125],
                   "parent_iqr": 1.5,
                   # the tie in the second pair is no win
                   "change_wins": "2/4", "change_vs_parent": -0.1}


def test_higher_is_better_and_ties_at_one():
    runs = (_runs("a", "ok_share", [1.0] * 3, [1.0] * 3)
            + _runs("b", "ok_share", [0.9, 1.0, 0.5], [1.0, 1.0, 0.4]))
    got = bench_pairs.summarize(runs, {"ok_share": "higher"})
    assert got["a"]["ok_share"]["change_wins"] == "0/3"
    assert got["a"]["ok_share"]["parent_iqr"] == 0.0
    assert got["b"]["ok_share"]["change_wins"] == "1/3"


def test_unpaired_run_is_left_out():
    runs = _runs("w", "t", [1.0, 3.0], [2.0, 2.0])
    runs.append({"workload": "w", "seed": 9, "side": "change",
                 "metrics": {"t": 0.0}})
    got = bench_pairs.summarize(runs, {"t": "lower"})["w"]["t"]
    assert got["change_wins"] == "1/2" and got["change_median"] == 2.0


_STAND_IN = """import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
value = {value} + seed
with open({log!r}, "a") as log:
    log.write("{side} %d\\n" % seed)
print(json.dumps({{"provenance": {{"src_sha256": "{side}", "nproc": 1,
    "python": "3", "numpy": "2", "scipy": "1",
    "blas": {{"library": "x", "pinned_threads": 1}}}},
    "call_ms": {{"kalman": {{"n": 3}}}}}}))
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
    "metrics": {{"setup_s": {{"value": value, "unit": "s"}}}}}}))
"""


def test_main_alternates_and_keeps_other_workloads(tmp_path, monkeypatch):
    log = tmp_path / "order.log"
    for side, value in (("parent", 2.0), ("change", 1.0)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "stand_in.py").write_text(
            _STAND_IN.format(value=value, log=str(log), side=side))
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({
        "command": [sys.executable, "stand_in.py"],
        "end_to_end": [{"name": "setup_s", "better": "lower"}]}))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", spec)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"notes": "kept", "runs": _runs(
        "other", "setup_s", [1.0], [1.0])}))
    args = ["--parent", str(tmp_path / "parent"),
            "--change", str(tmp_path / "change"), "--workload", "w",
            "--seeds", "10-12", "--seconds", "0.5", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    assert log.read_text().split("\n")[:-1] == [
        "parent 10", "change 10", "change 11", "parent 11",
        "parent 12", "change 12"]
    doc = json.loads(out.read_text())
    assert doc["notes"] == "kept"
    assert set(doc["summary"]) == {"other", "w"}
    assert doc["summary"]["w"]["setup_s"]["change_wins"] == "3/3"
    mine = [r for r in doc["runs"] if r["workload"] == "w"]
    assert [r["ran_first"] for r in mine] == [True, False] * 3
    assert mine[0]["calls_per_engine"] == {"kalman": 3}
    assert doc["host"]["nproc"] == 1
    assert "w 3 pairs of 0.5 s runs (seeds 10-12)" in doc["what"]


def test_empty_seed_range_rejected():
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.seed_range("5-3")
