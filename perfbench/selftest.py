#!/usr/bin/env python3
"""Self-test of the benchmark, kept out of the repository's test suite.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, through the same
command line the benchmark is driven by, and checks that:
- the last stdout line has exactly the keys correct/attempted/failed/metrics,
  no operation failed, and every metric BENCHMARK.json names appears with
  its unit and a finite value;
- in the traced run, every span lies inside its parent and no span's
  children add up to more than the span itself;
- a wrapped name that is missing from glre is reported, not fatal;
- the command fails, without a result line, in a directory holding only
  BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_result(proc: subprocess.CompletedProcess, wanted: list[dict], what: str) -> None:
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {result}"
    assert result["attempted"] >= 1, what
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, \
        f"{what}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}"
    for m in wanted:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], f"{what}: {m['name']} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), \
            f"{what}: {m['name']} = {entry['value']!r}"


def check_spans(workload: str) -> None:
    sys.path.insert(0, str(HERE))
    import tracing

    payload = json.loads((ROOT / ".perfbench_work" / "spans" / f"{workload}-{SEED}.json")
                         .read_text())
    assert payload["missing"] == [], f"{workload}: missing spans {payload['missing']}"
    spans = [tracing.Span(s["name"], s["start"], s["end"], s["parent"], s["tag"])
             for s in payload["spans"]]
    assert spans, f"{workload}: no spans recorded"
    errors = tracing.nesting_errors(spans)
    assert not errors, f"{workload}: {errors[:3]}"


def check_missing_target() -> None:
    sys.path.insert(0, str(HERE))
    import run
    import tracing

    run.import_glre()
    tracer = tracing.Tracer()
    tracing.TARGETS.append(("gone.function", "glre.cli", "no_such_function"))
    try:
        tracer.install()
        assert "glre.cli.no_such_function" in tracer.missing, tracer.missing
    finally:
        tracer.uninstall()
        tracing.TARGETS.pop()


def check_fails_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("--workload", "curate", "--seed", str(SEED), "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without glre sources"
    assert not proc.stdout.strip(), f"printed a result without sources: {proc.stdout!r}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = f"{workload} --trace {trace}"
            proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", trace, "--size", "tiny")
            check_result(proc, wanted, what)
            print(f"ok  {what}")
        check_spans(workload)
        print(f"ok  {workload} span nesting")
    check_missing_target()
    print("ok  missing wrapped name is reported")
    check_fails_without_sources()
    print("ok  fails without glre sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
