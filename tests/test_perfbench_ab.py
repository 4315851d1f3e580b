"""Verdict logic of the same-host A/B gate (``tools/perfbench_ab.py``).

Synthetic perfbench runs only: no subprocess, no git.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perfbench_ab.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

THROUGHPUT = {"name": "sim_packets_per_s", "better": "higher", "bound": 0.24}
LATENCY = {"name": "cell_ms_p90", "better": "lower", "bound": 0.24}
END_TO_END = [THROUGHPUT, LATENCY]


def runs(throughputs, latencies=(10.0, 10.0, 10.0), fingerprint="f0", failed=0):
    return [
        {
            "fingerprint": fingerprint,
            "failed": failed,
            "metrics": {"sim_packets_per_s": t, "cell_ms_p90": ms},
        }
        for t, ms in zip(throughputs, latencies)
    ]


def verdict_of(rows, workload, metric):
    (row,) = [
        r for r in rows if r["workload"] == workload and r["metric"] == metric
    ]
    return row["verdict"]


def test_pass_within_bound():
    parent = {"w": runs([100.0, 101.0, 99.0])}
    change = {"w": runs([90.0, 92.0, 91.0], latencies=(11.0, 11.5, 11.2))}
    outcome = ab.judge(END_TO_END, parent, change)
    assert outcome["verdict"] == "pass"
    assert outcome["regressions"] == outcome["inconclusive"] == []
    assert ab.EXIT_CODES[outcome["verdict"]] == 0


def test_regression_just_beyond_bound_higher_is_better():
    parent = {"w": runs([100.0, 100.0, 100.0])}
    change = {"w": runs([75.9, 75.9, 75.9])}
    outcome = ab.judge(END_TO_END, parent, change)
    assert outcome["verdict"] == "regression"
    assert outcome["regressions"] == ["w/sim_packets_per_s"]
    assert ab.EXIT_CODES[outcome["verdict"]] == 1
    # At the bound itself the change still passes.
    at_bound = ab.judge(END_TO_END, parent, {"w": runs([76.0, 76.0, 76.0])})
    assert at_bound["verdict"] == "pass"


def test_regression_just_beyond_bound_lower_is_better():
    parent = {"w": runs([100.0] * 3, latencies=(10.0, 10.0, 10.0))}
    change = {"w": runs([100.0] * 3, latencies=(12.41, 12.41, 12.41))}
    outcome = ab.judge(END_TO_END, parent, change)
    assert outcome["regressions"] == ["w/cell_ms_p90"]
    assert verdict_of(outcome["rows"], "w", "sim_packets_per_s") == "pass"
    at_bound = ab.judge(
        END_TO_END, parent,
        {"w": runs([100.0] * 3, latencies=(12.39, 12.39, 12.39))},
    )
    assert at_bound["verdict"] == "pass"


def test_inconclusive_when_parent_spread_exceeds_bound():
    # Parent quartiles (inclusive) of 60, 100, 140 are 80 and 120: a
    # spread of 40 % of the median, wider than the 24 % bound.
    parent = {"w": runs([60.0, 100.0, 140.0])}
    change = {"w": runs([95.0, 100.0, 150.0])}
    outcome = ab.judge(END_TO_END, parent, change)
    assert outcome["verdict"] == "inconclusive"
    assert outcome["inconclusive"] == ["w/sim_packets_per_s"]
    assert ab.EXIT_CODES[outcome["verdict"]] == 3
    row = [r for r in outcome["rows"] if r["metric"] == "sim_packets_per_s"][0]
    assert row["parent_spread"] == pytest.approx(0.40)


def test_every_change_run_better_overrides_wide_spread():
    parent = {"w": runs([60.0, 100.0, 140.0])}
    change = {"w": runs([141.0, 150.0, 160.0])}
    outcome = ab.judge(END_TO_END, parent, change)
    assert outcome["verdict"] == "pass"
    row = [r for r in outcome["rows"] if r["metric"] == "sim_packets_per_s"][0]
    assert row["all_better"] and row["parent_spread"] > THROUGHPUT["bound"]


def test_regression_outranks_inconclusive():
    parent = {
        "a": runs([100.0, 100.0, 100.0]),
        "b": runs([60.0, 100.0, 140.0]),
    }
    change = {"a": runs([50.0, 50.0, 50.0]), "b": runs([100.0] * 3)}
    outcome = ab.judge(END_TO_END, parent, change)
    assert outcome["verdict"] == "regression"
    assert outcome["regressions"] == ["a/sim_packets_per_s"]
    assert outcome["inconclusive"] == ["b/sim_packets_per_s"]


def test_fingerprint_mismatch_fails_the_gate():
    parent = {"w": runs([100.0] * 3, fingerprint="f0")}
    change = {"w": runs([100.0] * 3, fingerprint="f1")}
    outcome = ab.judge(END_TO_END, parent, change)
    assert outcome["fingerprint_mismatch"] == ["w"]
    assert outcome["regressions"] == []
    assert outcome["verdict"] == "regression"


def test_failed_check_on_the_change_fails_the_gate():
    parent = {"w": runs([100.0] * 3)}
    change = {"w": runs([100.0] * 3, failed=2)}
    outcome = ab.judge(END_TO_END, parent, change)
    assert outcome["change_failed"] == {"w": 6}
    assert outcome["verdict"] == "regression"
    # A failure on the parent alone is not the change's fault.
    assert ab.judge(END_TO_END, change, parent)["verdict"] == "pass"


def test_table_has_one_row_per_metric_and_workload():
    parent = {"a": runs([100.0] * 3), "b": runs([100.0] * 3)}
    outcome = ab.judge(END_TO_END, parent, parent)
    lines = ab.format_table(outcome["rows"]).splitlines()
    assert len(lines) == 2 + 2 * len(END_TO_END)
    assert lines[2].split()[:2] == ["a", "sim_packets_per_s"]
