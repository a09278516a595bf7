"""The bytes of a small seed-7 pipeline, pinned at one and at two BLAS threads.

A subprocess sets OPENBLAS_NUM_THREADS before numpy is imported and runs
synth, a 30-step train, zeroshot, probe --score-manifest, export-embeddings,
eval, export-roc, label, split and subset. It hashes every output file and
takes the runreport_fingerprint of every run report; the test compares them
with `pinned_bytes.json`, once for a subprocess at one thread and once for one
at two, each run on its own, so the bytes must not depend on the thread count.
They do depend on the OpenBLAS build and the kernel it picks (a different
OPENBLAS_CORETYPE moves them), so the file records the numpy version and the
OpenBLAS build string, which names the kernel, it was made on, and the test
skips, naming the difference, on any other.

A change that moves these bytes on purpose rewrites the file with
`python tests/test_pinned_bytes.py --write` and says so.
"""

import contextlib
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

PINNED = Path(__file__).with_name("pinned_bytes.json")
SRC = Path(__file__).resolve().parents[1] / "src"
CONFIG = {"synth": {"n_train": 64, "n_heldout": 32}, "train": {"steps": 30}}


def blas_build() -> dict:
    """The numpy version and the config string of numpy's bundled OpenBLAS, if any."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    config = None
    for lib in sorted(libs.glob("libscipy_openblas*")):
        get_config = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            config = get_config().decode()
    return {"numpy": np.__version__, "blas": config}


def pipeline_digests(work: Path, seed: int = 7, config: dict = CONFIG) -> dict:
    """SHA-256 of every output of the pipeline run under `work`, keyed by its path there;
    a run report maps to its runreport_fingerprint."""
    from glre.cli import main, runreport_fingerprint

    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(config))
    data, ckpt = work / "data", work / "train" / "checkpoint.bin"
    scores, labeled = work / "zeroshot" / "zeroshot_scores.csv", work / "label" / "labeled.jsonl"
    steps = [
        ("synth", "--config", cfg, "--seed", seed),
        ("train", "--config", cfg, "--seed", seed, "--manifest", data / "train.jsonl"),
        ("zeroshot", "--checkpoint", ckpt, "--manifest", data / "heldout.jsonl"),
        ("probe", "--checkpoint", ckpt, "--manifest", data / "train.jsonl",
         "--score-manifest", data / "heldout.jsonl"),
        ("export-embeddings", "--checkpoint", ckpt, "--manifest", data / "train.jsonl"),
        ("eval", "--scores", scores, "--labels", data / "heldout.jsonl"),
        ("export-roc", "--scores", scores, "--labels", data / "heldout.jsonl"),
        ("label", "--manifest", data / "train.jsonl"),
        ("split", "--manifest", labeled, "--sizes", "train=40,test=rest", "--seed", seed),
        ("subset", "--manifest", labeled, "--cap", 5, "--seed", seed),
    ]
    for command, *flags in steps:
        out = data if command == "synth" else work / command
        code = main([command, *map(str, flags), "--out-dir", str(out)])
        assert code == 0, f"{command} exited {code}"
    digests = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file() and p != cfg):
        key = path.relative_to(work).as_posix()
        digests[key] = (runreport_fingerprint(path) if path.name.startswith("run_report_")
                        else hashlib.sha256(path.read_bytes()).hexdigest())
    return digests


def _run_pinned(work: Path, threads: int = 1) -> dict:
    """The build and the digests, from a subprocess whose BLAS runs `threads` threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, __file__, "--print", str(work)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_seed_7_pipeline_bytes_match_the_pinned_digests(tmp_path):
    # one subprocess at a time: first at one BLAS thread, then at two
    pinned = json.loads(PINNED.read_text())
    for threads in (1, 2):
        work = tmp_path / f"threads_{threads}"
        work.mkdir()
        got = _run_pinned(work, threads)
        for key in ("numpy", "blas"):
            if got[key] != pinned[key]:
                pytest.skip(f"digests were pinned on {key} {pinned[key]!r}, this is {got[key]!r}")
        assert got["digests"].keys() == pinned["digests"].keys()
        moved = [key for key, digest in got["digests"].items()
                 if digest != pinned["digests"][key]]
        assert not moved, f"at {threads} BLAS threads, bytes differ from the pins: {moved}"


if __name__ == "__main__":
    # --print DIR: print the build and digests as JSON; --write: re-pin the file
    if sys.argv[1:2] == ["--print"]:
        assert os.environ.get("OPENBLAS_NUM_THREADS") in ("1", "2")
        with contextlib.redirect_stdout(sys.stderr):  # each command prints what it wrote
            pinned = {**blas_build(), "digests": pipeline_digests(Path(sys.argv[2]))}
        print(json.dumps(pinned))
    elif sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as work:
            PINNED.write_text(json.dumps(_run_pinned(Path(work)), indent=2, sort_keys=True)
                              + "\n")
    else:
        raise SystemExit("usage: test_pinned_bytes.py --print DIR | --write")
