"""Tests of the event-log parser, on a recorded log and on hand-made events.

Run from the repository root::

    python3 -m pytest panebench/tests -q -p no:cacheprovider

``data/small_eventlog.json`` was recorded from a ``local[2]`` session by
``record_small_log.py``: jobs in group ``g.python`` (a grouped
``applyInPandas``), in group ``g.plain`` (a count after a repartition)
and a count with no group. Properties other than the job group and the
stage details were dropped, since the parser reads neither.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from eventlog import UNGROUPED, find_event_log, parse_event_log  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
RECORDED = DATA / "small_eventlog.json"


def events(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_recorded_log_keys_every_job_by_its_group():
    counters = parse_event_log(RECORDED)
    assert set(counters) == {"g.python", "g.plain", UNGROUPED}
    job_groups = [
        (e.get("Properties") or {}).get("spark.jobGroup.id") or UNGROUPED
        for e in events(RECORDED)
        if e["Event"] == "SparkListenerJobStart"
    ]
    for group, c in counters.items():
        assert c.jobs == job_groups.count(group)
    assert sum(c.tasks for c in counters.values()) == sum(
        e["Event"] == "SparkListenerTaskEnd" for e in events(RECORDED)
    )


def test_recorded_log_matches_stage_accumulables():
    """Summed task updates equal the final stage values the log also holds."""
    CHECKED = (
        "internal.metrics.executorRunTime",
        "internal.metrics.shuffle.write.bytesWritten",
    )
    stage_totals: dict[tuple[str, str], int] = {}
    group_of_stage = {}
    for e in events(RECORDED):
        if e["Event"] == "SparkListenerStageSubmitted":
            info = e["Stage Info"]
            group_of_stage[info["Stage ID"]] = (
                (e.get("Properties") or {}).get("spark.jobGroup.id") or UNGROUPED
            )
        if e["Event"] == "SparkListenerStageCompleted":
            info = e["Stage Info"]
            group = group_of_stage[info["Stage ID"]]
            for acc in info["Accumulables"]:
                if acc["Name"] in CHECKED:
                    key = (group, acc["Name"])
                    stage_totals[key] = stage_totals.get(key, 0) + int(acc["Value"])
    counters = parse_event_log(RECORDED)
    for group, c in counters.items():
        assert c.task_run_s == pytest.approx(
            stage_totals.get((group, "internal.metrics.executorRunTime"), 0) / 1e3
        )
        assert c.shuffle_write_bytes == stage_totals.get(
            (group, "internal.metrics.shuffle.write.bytesWritten"), 0
        )


def test_recorded_log_python_and_shuffle_counters():
    counters = parse_event_log(RECORDED)
    py, plain, untagged = counters["g.python"], counters["g.plain"], counters[UNGROUPED]
    assert py.python_bytes_sent > 0 and py.python_bytes_returned > 0
    assert py.python_run_s > 0
    assert plain.python_bytes_sent == plain.python_bytes_returned == 0
    for c in (py, plain):
        # One local executor: every shuffled byte written is read back.
        assert c.shuffle_write_bytes == c.shuffle_read_bytes > 0
        assert c.stages >= 2 and c.failed_tasks == 0
    assert untagged.jobs >= 1 and untagged.python_bytes_sent == 0


def _task_end(stage: int, attempt: int, reason: str, run_ms: int) -> dict:
    return {
        "Event": "SparkListenerTaskEnd",
        "Stage ID": stage,
        "Stage Attempt ID": attempt,
        "Task End Reason": {"Reason": reason},
        "Task Info": {
            "Accumulables": [
                {"Name": "time to run Python workers", "Update": "250", "Value": "250"},
                {"Name": "spill size", "Update": "64", "Value": "64"},
            ]
        },
        "Task Metrics": {
            "Executor Run Time": run_ms,
            "Memory Bytes Spilled": 100,
            "Disk Bytes Spilled": 28,
            "Shuffle Read Metrics": {
                "Remote Bytes Read": 5, "Local Bytes Read": 7, "Fetch Wait Time": 3,
            },
            "Shuffle Write Metrics": {"Shuffle Bytes Written": 11},
        },
    }


def test_failed_tasks_and_stage_retries(tmp_path):
    group = {"spark.jobGroup.id": "phase"}
    log = [
        {"Event": "SparkListenerJobStart", "Job ID": 0, "Properties": group},
        {
            "Event": "SparkListenerStageSubmitted",
            "Stage Info": {"Stage ID": 4, "Stage Attempt ID": 0},
            "Properties": group,
        },
        _task_end(4, 0, "ExceptionFailure", 1000),
        {
            "Event": "SparkListenerStageSubmitted",
            "Stage Info": {"Stage ID": 4, "Stage Attempt ID": 1},
            "Properties": group,
        },
        _task_end(4, 1, "Success", 500),
        {"Event": "SparkListenerJobStart", "Job ID": 1, "Properties": {}},
    ]
    path = tmp_path / "local-1"
    path.write_text("".join(json.dumps(e) + "\n" for e in log))
    counters = parse_event_log(path)
    c = counters["phase"]
    assert (c.jobs, c.stages, c.tasks, c.failed_tasks) == (1, 2, 2, 1)
    assert c.task_run_s == pytest.approx(1.5)
    assert c.python_run_s == pytest.approx(0.5)
    assert c.spill_bytes == 2 * (100 + 28 + 64)
    assert (c.shuffle_read_bytes, c.shuffle_write_bytes) == (24, 22)
    assert c.fetch_wait_s == pytest.approx(0.006)
    assert counters[UNGROUPED].jobs == 1 and counters[UNGROUPED].tasks == 0


def test_find_event_log_skips_unfinished_and_hidden_files(tmp_path):
    (tmp_path / "local-2.inprogress").write_text("")
    (tmp_path / ".local-1.crc").write_text("")
    (tmp_path / "local-1").write_text("")
    assert find_event_log(tmp_path) == tmp_path / "local-1"
    (tmp_path / "local-3").write_text("")
    with pytest.raises(RuntimeError):
        find_event_log(tmp_path)
