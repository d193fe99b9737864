"""Record ``data/small_eventlog.json``, the parser tests' Spark event log.

Run from the repository root (takes about a minute)::

    python3 panebench/tests/record_small_log.py

It runs three small jobs on a ``local[2]`` session with the event log on,
then keeps only the events the parser reads (plus stage completions, which
the tests compare against) and, of their properties, only the job group.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

OUT = Path(__file__).resolve().parent / "data" / "small_eventlog.json"
KEEP = {
    "SparkListenerJobStart": ("Job ID", "Stage IDs", "Properties"),
    "SparkListenerStageSubmitted": ("Stage Info", "Properties"),
    "SparkListenerStageCompleted": ("Stage Info",),
    "SparkListenerTaskEnd": (
        "Stage ID", "Stage Attempt ID", "Task End Reason", "Task Info", "Task Metrics",
    ),
    "SparkListenerJobEnd": ("Job ID", "Job Result"),
}
STAGE_INFO = ("Stage ID", "Stage Attempt ID", "Number of Tasks", "Accumulables")
GROUP_KEY = "spark.jobGroup.id"


def strip(ev: dict) -> dict:
    out = {"Event": ev["Event"]}
    for key in KEEP[ev["Event"]]:
        if key not in ev:
            continue
        val = ev[key]
        if key == "Properties":
            val = {k: v for k, v in val.items() if k == GROUP_KEY}
        elif key == "Stage Info":
            val = {k: v for k, v in val.items() if k in STAGE_INFO}
        elif key == "Task Info":
            val = {"Accumulables": val.get("Accumulables", [])}
        out[key] = val
    return out


def main() -> None:
    import pandas as pd

    log_dir = Path(tempfile.mkdtemp(prefix="panebench-events-"))
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[2] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("panebench-small-log")
        .config("spark.sql.shuffle.partitions", 2)
        .config("spark.eventLog.enabled", "true")
        .config("spark.eventLog.dir", log_dir.as_uri())
        .config("spark.eventLog.compress", "false")
        .config("spark.eventLog.rolling.enabled", "false")
        .getOrCreate()
    )
    sc = spark.sparkContext
    df = spark.range(2000).selectExpr("id", "id % 2 AS block", "id * 0.5 AS x")
    try:
        sc.setJobGroup("g.python", "g.python")
        df.groupBy("block").applyInPandas(
            lambda pdf: pd.DataFrame({"block": pdf["block"].iloc[:1], "s": [pdf["x"].sum()]}),
            "block long, s double",
        ).collect()
        sc.setJobGroup("g.plain", "g.plain")
        df.repartition(2, "block").groupBy("block").count().collect()
        sc.setLocalProperty(GROUP_KEY, None)
        spark.range(10).count()
    finally:
        spark.stop()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from eventlog import find_event_log

    with open(find_event_log(log_dir), encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    shutil.rmtree(log_dir)
    OUT.parent.mkdir(exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        for ev in events:
            if ev.get("Event") in KEEP:
                fh.write(json.dumps(strip(ev)) + "\n")


if __name__ == "__main__":
    main()
