"""Per-job-group counters from a Spark event log (JSON lines, uncompressed).

The benchmark tags every Spark job of a traced run with ``setJobGroup``;
this module folds the log's job, stage and task events into one
``GroupCounters`` per job group. It reads only the log file, so it can be
tested against a recorded log without a SparkSession.

Sources, per task end event:

* ``Task Metrics`` — executor run time, shuffle read/write bytes, fetch
  wait time and spilled bytes (always logged, unlike the duplicate
  ``internal.metrics.*`` accumulables, which Spark 4 omits by default);
* ``Task Info.Accumulables`` — the per-task updates of the SQL metrics
  ``time to run Python workers``, ``data sent to Python workers``,
  ``data returned from Python workers`` and ``spill size``. Task updates
  are summed rather than the stage's final values, because a SQL metric
  belongs to a plan node and keeps counting across jobs that re-run it.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

GROUP_KEY = "spark.jobGroup.id"
UNGROUPED = ""

# SQL metric name -> (GroupCounters field, scale to the field's unit).
# Python worker run time is logged in milliseconds; sizes are bytes.
_SQL_METRICS = {
    "time to run Python workers": ("python_run_s", 1e-3),
    "data sent to Python workers": ("python_bytes_sent", 1),
    "data returned from Python workers": ("python_bytes_returned", 1),
    "spill size": ("spill_bytes", 1),
}


@dataclass
class GroupCounters:
    """Work one job group did, summed over its jobs, stages and tasks."""

    jobs: int = 0
    stages: int = 0  # stage attempts that ran (skipped stages are not counted)
    tasks: int = 0
    failed_tasks: int = 0
    shuffle_write_bytes: int = 0
    shuffle_read_bytes: int = 0
    spill_bytes: int = 0  # memory + disk spill from task metrics, plus SQL spill
    task_run_s: float = 0.0
    fetch_wait_s: float = 0.0
    python_run_s: float = 0.0
    python_bytes_sent: int = 0
    python_bytes_returned: int = 0


def _group(props: dict | None) -> str:
    return (props or {}).get(GROUP_KEY) or UNGROUPED


def _add_task(c: GroupCounters, ev: dict) -> None:
    c.tasks += 1
    if ev.get("Task End Reason", {}).get("Reason") != "Success":
        c.failed_tasks += 1
    tm = ev.get("Task Metrics") or {}
    c.task_run_s += tm.get("Executor Run Time", 0) / 1e3
    c.spill_bytes += tm.get("Memory Bytes Spilled", 0) + tm.get("Disk Bytes Spilled", 0)
    sw = tm.get("Shuffle Write Metrics") or {}
    c.shuffle_write_bytes += sw.get("Shuffle Bytes Written", 0)
    sr = tm.get("Shuffle Read Metrics") or {}
    c.shuffle_read_bytes += sr.get("Remote Bytes Read", 0) + sr.get("Local Bytes Read", 0)
    c.fetch_wait_s += sr.get("Fetch Wait Time", 0) / 1e3
    for acc in (ev.get("Task Info") or {}).get("Accumulables", []):
        target = _SQL_METRICS.get(acc.get("Name"))
        if target is None or "Update" not in acc:
            continue
        name, scale = target
        setattr(c, name, getattr(c, name) + int(acc["Update"]) * scale)


def parse_event_log(path: str | Path) -> dict[str, GroupCounters]:
    """Fold one application's event log into counters keyed by job group.

    A stage is attributed to the group in its submission properties, and
    its tasks follow the stage. Jobs submitted without a group are keyed
    by ``UNGROUPED``.
    """
    counters: dict[str, GroupCounters] = defaultdict(GroupCounters)
    stage_group: dict[tuple[int, int], str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                counters[_group(ev.get("Properties"))].jobs += 1
            elif kind == "SparkListenerStageSubmitted":
                info = ev["Stage Info"]
                key = (info["Stage ID"], info["Stage Attempt ID"])
                stage_group[key] = _group(ev.get("Properties"))
                counters[stage_group[key]].stages += 1
            elif kind == "SparkListenerTaskEnd":
                key = (ev["Stage ID"], ev["Stage Attempt ID"])
                _add_task(counters[stage_group.get(key, UNGROUPED)], ev)
    return dict(counters)


def find_event_log(log_dir: str | Path) -> Path:
    """The single finished application log in ``log_dir``."""
    logs = [
        p
        for p in Path(log_dir).iterdir()
        if p.is_file() and not p.name.endswith(".inprogress") and not p.name.startswith(".")
    ]
    if len(logs) != 1:
        raise RuntimeError(f"expected one finished event log in {log_dir}, found {logs}")
    return logs[0]
