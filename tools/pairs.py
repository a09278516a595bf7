#!/usr/bin/env python3
"""Compare two glre checkouts on the benchmark in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE --pairs 5 --seed 7 --seconds 20

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout, one process at a time, for every workload; the side
that runs first alternates from pair to pair. Every run is printed in run
order as it finishes. The summary gives, for each workload and end-to-end
metric of CHANGE's BENCHMARK.json, the median of each side, the parent's
quartiles, the pairs the change wins, whether the change is worse than the
parent's median by more than the metric's bound, and whether the parent's
own spread (interquartile range over median) exceeds that bound, which
leaves the comparison unresolved unless every change run beats every parent
run. It also says whether a claimed gain would be met: the change wins at
least nine tenths of the pairs, ties counting for neither, and its median
is better than the parent's by more than the parent's interquartile range.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-b16", "evaluate", "curate")


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartile (inclusive method; one value is both)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per workload and metric. `runs` holds dicts with keys workload, side
    ("parent" or "change"), pair and metrics (name -> value, empty for a failed run);
    `end_to_end` is BENCHMARK.json's list of {name, better, bound}."""
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        for metric in end_to_end:
            name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
            side = {s: {run["pair"]: run["metrics"][name] for run in mine
                        if run["side"] == s and name in run["metrics"]}
                    for s in ("parent", "change")}
            if not side["parent"] or not side["change"]:
                rows.append({"workload": workload, "metric": name, "missing": True})
                continue
            parent, change = (statistics.median(side[s].values()) for s in ("parent", "change"))
            q1, q3 = quartiles(sorted(side["parent"].values()))
            pairs = side["parent"].keys() & side["change"].keys()
            wins = sum((side["change"][p] > side["parent"][p]) == higher
                       and side["change"][p] != side["parent"][p] for p in pairs)
            # the change's median less the parent's, signed so that > 0 is better
            gain = change - parent if higher else parent - change
            worse = -gain / abs(parent) if parent else 0.0
            ours, theirs = side["change"].values(), side["parent"].values()
            beats_all = min(ours) > max(theirs) if higher else max(ours) < min(theirs)
            rows.append({"workload": workload, "metric": name, "missing": False,
                         "parent": parent, "change": change, "q1": q1, "q3": q3,
                         "wins": wins, "pairs": len(pairs), "worse_by": worse,
                         "worse": worse > bound,
                         "unresolved": (parent != 0 and (q3 - q1) / abs(parent) > bound
                                        and not beats_all),
                         "claim_met": bool(pairs) and 10 * wins >= 9 * len(pairs)
                                      and gain > q3 - q1})
    return rows


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one benchmark run, {} if it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {}
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in end_to_end]
    runs = []
    print("run workload side pair " + " ".join(names), flush=True)
    for pair in range(args.pairs):
        for workload in args.workloads.split(","):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in sides:
                metrics = run_once(getattr(args, side), workload, args.seed, args.seconds)
                runs.append({"workload": workload, "side": side, "pair": pair,
                             "metrics": metrics})
                print(len(runs), workload, side, pair,
                      " ".join(f"{metrics[n]:.6g}" if n in metrics else "failed"
                               for n in names), flush=True)
    rows = summarize(runs, end_to_end)
    print("workload metric parent_median change_median parent_q1 parent_q3 wins "
          "worse_by worse unresolved claim")
    for row in rows:
        if row["missing"]:
            print(row["workload"], row["metric"], "missing")
            continue
        print(row["workload"], row["metric"],
              *(f"{row[k]:.6g}" for k in ("parent", "change", "q1", "q3")),
              f"{row['wins']}/{row['pairs']}", f"{100 * row['worse_by']:+.1f}%",
              "WORSE" if row["worse"] else "ok",
              "UNRESOLVED" if row["unresolved"] else "resolved",
              "claim_met" if row["claim_met"] else "claim_not_met")
    return 1 if any(row["missing"] or row["worse"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
