#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark, written as a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload long-s2 --seeds 2901-2910 --seconds 36 --out BENCH_N.json

``DIR`` is the root of a source checkout (say a ``git archive`` of a
commit). Seed k of the range makes pair k: the benchmark command of
``BENCHMARK.json`` runs once in each checkout with ``--workload``,
``--seed k``, ``--seconds`` and ``--trace 0``, one run at a time, the
parent first in even-numbered pairs (counting from 0) and the change
first in odd ones.

``--out`` gets the fields ``what``, ``host``, ``runs`` and ``summary``.
When it exists already, its runs of other workloads are kept and its
other fields left as they are, so one file can take a call per
workload; it is rewritten after every pair. The exit status is 1 when
a run of this call exited non-zero or reported ``correct: false``.

Per workload and end-to-end metric the summary gives both sides'
medians and quartiles (``statistics.quantiles``, inclusive), the
distance between the parent's quartiles, the number of pairs in which
the change's unrounded value is strictly better (so a tie, such as
``ok_share`` at 1.0 on both sides, is no win) and the relative change
of the medians. Whether lower or higher is better is read from the
repository's ``BENCHMARK.json``, which this script never writes.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    """``"A-B"`` -> [A, ..., B]; ``"A"`` -> [A]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def pair_order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its exit status, the
    verdict of its last output line and, from its full report (the line
    before), the package hash and the calls timed per engine."""
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"run in {checkout} (seed {seed}) printed no "
                           f"result; exit {done.returncode}:\n{done.stderr}")
    report, verdict = json.loads(lines[-2]), json.loads(lines[-1])
    return {"src_sha256": report["provenance"]["src_sha256"],
            "exit": done.returncode, "correct": verdict["correct"],
            "attempted": verdict["attempted"], "failed": verdict["failed"],
            "metrics": {name: m["value"]
                        for name, m in verdict["metrics"].items()},
            "calls_per_engine": {e: s["n"]
                                 for e, s in report["call_ms"].items()},
            "provenance": report["provenance"]}


def host_of(provenance: dict) -> dict:
    blas = provenance["blas"]
    return {"nproc": provenance["nproc"], "python": provenance["python"],
            "numpy": provenance["numpy"], "scipy": provenance["scipy"],
            "blas": f"{blas['library']}, pinned to "
                    f"{blas['pinned_threads']} thread(s)"}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """workload -> metric -> the paired comparison of the two sides.

    ``runs`` holds one run per side for each (workload, seed); ``better``
    maps each metric to ``"lower"`` or ``"higher"``."""
    by_pair: dict = {}
    for run in runs:
        by_pair.setdefault(run["workload"], {}).setdefault(
            run["seed"], {})[run["side"]] = run["metrics"]
    summary = {}
    for workload, pairs in by_pair.items():
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        summary[workload] = {}
        for name, direction in better.items():
            sides = {side: [p[side][name] for p in pairs] for side in SIDES}
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(sides["parent"], sides["change"]))
            med = {side: statistics.median(v) for side, v in sides.items()}
            q = {side: _quartiles(v) for side, v in sides.items()}
            summary[workload][name] = {
                "parent_median": round(med["parent"], 6),
                "change_median": round(med["change"], 6),
                "parent_quartiles": [round(v, 6) for v in q["parent"]],
                "change_quartiles": [round(v, 6) for v in q["change"]],
                "parent_iqr": round(q["parent"][1] - q["parent"][0], 6),
                "change_wins": f"{wins}/{len(pairs)}",
                "change_vs_parent": round(
                    med["change"] / med["parent"] - 1, 4),
            }
    return summary


def describe(runs: list[dict], command: list[str]) -> str:
    spans = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in mine})
        seconds = "/".join(sorted({f"{r['seconds']:g}" for r in mine}))
        spans.append(f"{workload} {len(seeds)} pairs of {seconds} s runs "
                     f"(seeds {seeds[0]}-{seeds[-1]})")
    return (f"{' '.join(command)} --workload W --seed N --seconds S "
            "--trace 0; alternating parent/change pairs run one "
            "at a time (ran_first marks the side that ran first in its "
            "pair; the parent ran first in even-numbered pairs): "
            + ", ".join(spans) + ". parent_quartiles/change_quartiles from "
            "statistics.quantiles (inclusive method); parent_iqr is the "
            "distance between the parent's quartiles; change_wins counts "
            "pairs in which the change's value is strictly better "
            "(unrounded values; a tie counts as no win). src_sha256 is the "
            "harness's hash of the package's .py files. calls_per_engine "
            "comes from each run's call_ms report.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="a range FIRST-LAST, one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = [r for r in doc.get("runs", [])
            if r["workload"] != args.workload]
    host = doc.get("host")
    bad = 0
    for pair, seed in enumerate(args.seeds):
        for k, side in enumerate(pair_order(pair)):
            result = run_once(spec["command"], checkouts[side],
                              args.workload, seed, args.seconds)
            provenance = result.pop("provenance")
            host = host or host_of(provenance)
            runs.append({"workload": args.workload, "seed": seed,
                         "seconds": args.seconds, "side": side,
                         "ran_first": k == 0, **result})
            bad += result["exit"] != 0 or not result["correct"]
            print(f"{args.workload} seed {seed} {side}: exit "
                  f"{result['exit']}, correct {result['correct']}",
                  flush=True)
        # rewritten after every pair, so a cut-short series keeps its pairs
        doc.update({"what": describe(runs, spec["command"]),
                    "host": host, "runs": runs,
                    "summary": summarize(runs, better)})
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if bad else 0

if __name__ == "__main__":
    raise SystemExit(main())
