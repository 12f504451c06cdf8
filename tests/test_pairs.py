"""The benchmark-pair harness ``pairs.py``: its run order and its summary of runs."""

import statistics

import pytest

import pairs


def _run(wall, rate, digest="d", failed=0):
    return {"metrics": {"wall_s": wall, "points_per_s": rate}, "stdout_sha256": digest,
            "failed": failed}


BETTER = {"wall_s": "lower", "points_per_s": "higher"}


def test_parent_runs_first_on_odd_seeds():
    assert pairs.order(2401) == ("parent", "change")
    assert pairs.order(2402) == ("change", "parent")


def test_quartiles_are_the_inclusive_method():
    q = pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0])
    assert q == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_summary_of_synthetic_runs():
    parent = [_run(1.0, 10.0), _run(2.0, 20.0), _run(3.0, 30.0), _run(4.0, 40.0)]
    # the change is faster in pairs 1 and 3, slower in pair 2 and tied in pair 4
    change = [_run(0.5, 11.0), _run(2.5, 19.0), _run(2.0, 31.0), _run(4.0, 40.0, failed=2)]
    change[2]["stdout_sha256"] = "e"
    summary = pairs.summarise({"w": {"parent": parent, "change": change}}, BETTER)

    wall = summary["end_to_end"]["w"]["wall_s"]
    want = statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4, method="inclusive")
    assert wall["parent"] == {"median": 2.5, "q1": want[0], "q3": want[2],
                              "iqr": want[2] - want[0]}
    assert wall["change"]["median"] == 2.25
    assert wall["parent_runs"] == [1.0, 2.0, 3.0, 4.0]
    assert wall["change_runs"] == [0.5, 2.5, 2.0, 4.0]
    assert wall["change_over_parent_median"] == 2.25 / 2.5
    assert (wall["pairs_change_better"], wall["pairs_parent_better"], wall["pairs"]) == (2, 1, 4)

    # higher is better: the change wins pairs 1 and 3 here too
    rate = summary["end_to_end"]["w"]["points_per_s"]
    assert (rate["pairs_change_better"], rate["pairs_parent_better"]) == (2, 1)

    assert summary["stdout_identical_every_pair"] == {"w": False}
    assert summary["failed_operations"] == {"w": {"parent": 0, "change": 2}}


def test_matching_digests_and_unequal_run_counts():
    runs = [_run(1.0, 1.0), _run(1.0, 1.0)]
    summary = pairs.summarise({"w": {"parent": runs, "change": runs}}, BETTER)
    assert summary["stdout_identical_every_pair"] == {"w": True}
    with pytest.raises(ValueError, match="2 parent runs, 1 change runs"):
        pairs.summarise({"w": {"parent": runs, "change": runs[:1]}}, BETTER)
