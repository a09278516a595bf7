#!/usr/bin/env python3
"""glre benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload train-b16 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # all three, every named figure

Run from a checkout: glre is imported from ./src and nothing else. The run
sets up its inputs several times (set-up time is their median), then
repeats the workload's operation list until --seconds have passed and
reports per-operation medians. --trace 1 alternates untraced and traced
passes: the traced ones give the per-layer metrics, the pair gives the
tracing overhead, and both must leave byte-identical outputs.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; earlier lines carry the machine facts and the
workload's named figures. Any failed operation or output check makes the
exit code non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("train-b16", "evaluate", "curate")
# The acceptance suite's end-to-end seed. Seed 11 is kept back for
# confirming a claimed gain (see README.md).
DEFAULT_SEED = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_glre():
    """Cap BLAS threads, then import numpy and glre from ./src."""
    src = ROOT / "src"
    if not (src / "glre" / "__init__.py").is_file():
        raise SystemExit(f"error: no glre sources under {src}; run from a glre checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(src))
    import glre

    if Path(glre.__file__).resolve().parent != (src / "glre").resolve():
        raise SystemExit(f"error: imported glre from {glre.__file__}, not {src}")


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[name](seed, SIZES[size])
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    try:
        return _measure(wl, work, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, work: Path, seconds: float, tracer) -> int:
    setup_s = []
    for i in range(1 if tracer else wl.setup_repeats):
        root = work / f"setup{i}"
        root.mkdir()
        if tracer:
            tracer.install()
        started = time.perf_counter()
        try:
            if tracer:
                with tracer.span("bench.setup"):
                    wl.setup(root)
            else:
                wl.setup(root)
        except Exception as exc:  # nothing can be measured without inputs
            print(f"error: set-up failed: {exc!r}", file=sys.stderr)
            return 1
        finally:
            if tracer:
                tracer.uninstall()
        setup_s.append(time.perf_counter() - started)

    ops = wl.ops(root)
    op_s: list[list[float]] = [[] for _ in ops]
    pass_s = {False: [], True: []}
    digests: list[str | None] = [None] * len(ops)
    quality: dict = {}
    errors: list[str] = []
    attempted = failed = 0
    started = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        pass_dir = work / f"pass{n}"
        pass_dir.mkdir()
        if traced:
            tracer.install()
        total = 0.0
        for k, op in enumerate(ops):
            attempted += 1
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("bench.pass", op.kind):
                        result = op.run(pass_dir)
                else:
                    result = op.run(pass_dir)
                elapsed = time.perf_counter() - t0
                blob, values = op.check(pass_dir, result)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                errors.append(f"pass {n} {op.kind}: {exc!r}")
                continue
            digest = hashlib.sha256(blob).hexdigest()
            if digests[k] is None:
                digests[k] = digest
            elif digests[k] != digest:
                failed += 1
                errors.append(f"pass {n} {op.kind}: outputs differ from pass 0"
                              + (" (traced)" if traced else ""))
                continue
            quality.update(values)
            total += elapsed
            if not traced:
                op_s[k].append(elapsed)
        if traced:
            tracer.uninstall()
        pass_s[traced].append(total)
        if n >= 2:
            shutil.rmtree(work / f"pass{n - 2}")
        n += 1
        if time.perf_counter() - started >= seconds and (tracer is None or n >= 2):
            break

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    if tracer is not None and tracer.missing:
        print(f"note: wrapped names missing from glre: {tracer.missing}", file=sys.stderr)
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    metrics: dict = {}
    if failed == 0:
        median_s = [statistics.median(t) for t in op_s]
        by_kind: dict[str, float] = {}
        for op, t in zip(ops, median_s):
            by_kind[op.kind] = by_kind.get(op.kind, 0.0) + t
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "error_rate": (failed / attempted, "ratio"),
            **wl.details(by_kind, quality),
        }
        print("details " + json.dumps({k: {"value": v, "unit": u}
                                        for k, (v, u) in details.items()}))
        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "success_rate": ((attempted - failed) / attempted, "ratio"),
                "throughput_per_s": (wl.items_per_pass() / sum(median_s), "1/s"),
                "quality": (wl.quality(quality), "ratio"),
            }
        else:
            spans_path = WORK / "spans" / f"{wl.name}-{wl.seed}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                {"missing": tracer.missing, "spans": tracer.to_json()}))
            metrics = tracing.layer_metrics(tracer.spans, len(tracer.missing))
            plain = statistics.median(pass_s[False])
            metrics["trace.overhead_pct"] = (
                100.0 * (statistics.median(pass_s[True]) - plain) / plain, "pct")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, size: str) -> int:
    """Each workload in its own child process, one after the other."""
    table: dict = {}
    attempted = failed = 0
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--size", size],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for line in lines:
            if line.startswith("machine ") and name == WORKLOAD_NAMES[0]:
                print(line)
            elif line.startswith("details "):
                for key, entry in json.loads(line[len("details "):]).items():
                    table[f"{name}.{key}"] = entry
    for key, entry in table.items():
        print(f"{key:42s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": ok and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": table}))
    return 0 if ok and failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-test")
    args = parser.parse_args(argv)
    import_glre()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.size)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
