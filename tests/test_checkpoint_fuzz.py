"""Fuzz of the GLCK1 checkpoint reader: every damaged file is rejected.

A checkpoint ends with the SHA-256 of every byte before it, so no flipped,
deleted or inserted byte and no truncation can load, header bytes included.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glre.cli import main
from glre.errors import FormatError, VersionError
from glre.trainer import load_checkpoint


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_train": 8, "n_heldout": 4},
                               "train": {"steps": 2, "dim": 4, "batch_size": 4}}))
    assert run("synth", "--config", cfg, "--seed", 2, "--out-dir", root / "data") == 0
    assert run("train", "--config", cfg, "--seed", 2, "--manifest", root / "data" / "train.jsonl",
               "--out-dir", root / "run") == 0
    load_checkpoint(root / "run" / "checkpoint.bin")  # the undamaged file loads
    return {"root": root, "blob": (root / "run" / "checkpoint.bin").read_bytes(),
            "heldout": root / "data" / "heldout.jsonl"}


def _flip(draw, blob):
    at = draw(st.integers(0, len(blob) - 1))
    return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]


def _delete(draw, blob):
    at = draw(st.integers(0, len(blob) - 1))
    return blob[:at] + blob[at + draw(st.integers(1, 8)) :]


def _insert(draw, blob):
    at = draw(st.integers(0, len(blob)))
    return blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]


def _redigit(draw, blob):
    # an ASCII digit swapped for another keeps a JSON header well-formed,
    # the edit most likely to go unseen without a digest over the header
    spots = [i for i, byte in enumerate(blob) if 0x30 <= byte <= 0x39]
    if not spots:
        return blob
    at = draw(st.sampled_from(spots))
    digit = 0x30 + (blob[at] - 0x30 + draw(st.integers(1, 9))) % 10
    return blob[:at] + bytes([digit]) + blob[at + 1 :]


def _truncate(draw, blob):
    return blob[: draw(st.integers(0, len(blob) - 1))]


@st.composite
def damaged(draw, blob):
    """1-4 random byte flips, digit swaps, deletions, insertions or truncations."""
    out = blob
    for _ in range(draw(st.integers(1, 4))):
        if not out:
            break
        out = draw(st.sampled_from([_flip, _redigit, _delete, _insert, _truncate]))(draw, out)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_rejects_every_damaged_checkpoint(small_run, data):
    bad = data.draw(damaged(small_run["blob"]))
    assume(bad != small_run["blob"])  # a deletion and an insertion can undo each other
    path = small_run["root"] / "damaged.bin"
    path.write_bytes(bad)
    with pytest.raises((FormatError, VersionError)):
        load_checkpoint(path)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_zeroshot_exits_2_on_damaged_checkpoints(small_run, data):
    bad = data.draw(damaged(small_run["blob"]))
    assume(bad != small_run["blob"])
    path, out = small_run["root"] / "damaged.bin", small_run["root"] / "zs"
    path.write_bytes(bad)
    assert run("zeroshot", "--checkpoint", path, "--manifest", small_run["heldout"],
               "--out-dir", out) == 2
    assert not (out / "zeroshot_scores.csv").exists()
