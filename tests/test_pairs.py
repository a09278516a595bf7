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


def test_a_claim_is_met_with_nine_wins_in_ten_and_a_gap_past_the_parent_iqr():
    # the change loses pair 4 only; medians 100 -> 111, parent quartiles 98.25-101.75
    parent = [100, 101, 99, 103, 97, 102, 98, 104, 96, 100]
    change = [110, 112, 109, 111, 90, 113, 108, 114, 111, 112]
    row = _row(_runs(parent, change, "throughput_per_s"), "throughput_per_s")
    assert (row["wins"], row["pairs"]) == (9, 10)
    assert (row["q1"], row["q3"]) == (98.25, 101.75)
    assert row["change"] - row["parent"] > row["q3"] - row["q1"] and row["claim_met"]
    # one more loss leaves 8 of 10
    change[0] = 99
    assert not _row(_runs(parent, change, "throughput_per_s"), "throughput_per_s")["claim_met"]


def test_a_claim_winning_every_pair_by_less_than_the_parent_iqr_is_not_met():
    # each pair lower by 0.01 s, a lower-is-better metric: 5 of 5 won, but the
    # median gap of 0.01 is within the parent's quartiles, 0.2-0.4
    parent = [0.1, 0.2, 0.3, 0.4, 0.5]
    row = _row(_runs(parent, [v - 0.01 for v in parent], "setup_s"), "setup_s")
    assert row["wins"] == 5 and row["change"] == pytest.approx(0.29)
    assert not row["claim_met"] and row["unresolved"]


def test_every_change_run_beating_every_parent_run_resolves_a_wide_parent_spread():
    # the parent's quartiles span 0.2 s of a 0.3 s median, past the 0.25 bound,
    # yet every change run is faster than every parent run
    row = _row(_runs([0.1, 0.2, 0.3, 0.4, 0.5], [0.05, 0.06, 0.07, 0.08, 0.09], "setup_s"),
               "setup_s")
    assert (row["q3"] - row["q1"]) / row["parent"] > 0.25
    assert not row["unresolved"] and not row["worse"]
    # one change run as slow as the parent's fastest leaves it unresolved
    row = _row(_runs([0.1, 0.2, 0.3, 0.4, 0.5], [0.05, 0.06, 0.1, 0.08, 0.09], "setup_s"),
               "setup_s")
    assert row["unresolved"]
