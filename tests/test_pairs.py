"""The summary of `tools/pairs.py` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [{"name": "throughput_per_s", "better": "higher", "bound": 0.2},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _runs(parent, change, name, workload="evaluate"):
    """Alternating pairs: the parent runs first in even pairs, the change in odd ones."""
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        sides = [("parent", a), ("change", b)]
        for side, value in sides if pair % 2 == 0 else sides[::-1]:
            runs.append({"workload": workload, "side": side, "pair": pair,
                         "metrics": {} if value is None else {name: value}})
    return runs


def _row(runs, metric):
    (row,) = [r for r in pairs.summarize(runs, END_TO_END) if r["metric"] == metric]
    return row


def test_medians_quartiles_and_wins_of_a_higher_is_better_metric():
    row = _row(_runs([100, 110, 90, 105, 95], [120, 100, 115, 125, 96],
                     "throughput_per_s"), "throughput_per_s")
    assert (row["parent"], row["change"]) == (100, 115)
    assert (row["q1"], row["q3"]) == (95, 105)
    assert (row["wins"], row["pairs"]) == (4, 5)
    assert row["worse_by"] == pytest.approx(-0.15)
    assert not row["worse"] and not row["unresolved"]


def test_a_lower_is_better_metric_worse_past_its_bound_and_a_wide_parent_spread():
    row = _row(_runs([0.1, 0.3, 0.2, 0.4, 0.1], [0.3, 0.3, 0.3, 0.2, 0.3], "setup_s"),
               "setup_s")
    assert (row["parent"], row["change"]) == (0.2, 0.3)
    assert (row["q1"], row["q3"]) == (0.1, 0.3)
    assert row["wins"] == 1  # pair 3; pair 1 is a tie
    assert row["worse_by"] == pytest.approx(0.5) and row["worse"]
    assert row["unresolved"]  # the parent's interquartile range is its whole median


def test_a_failed_run_is_left_out_and_a_metric_no_side_reports_is_missing():
    runs = _runs([10, 10, 10], [None, 9, 11], "throughput_per_s")
    row = _row(runs, "throughput_per_s")
    assert (row["change"], row["wins"], row["pairs"]) == (10, 1, 2)
    assert _row(runs, "setup_s") == {"workload": "evaluate", "metric": "setup_s",
                                     "missing": True}
