"""The one SparkSession builder, for the job entry points and the test suite.

Local mode (``SPARK_MASTER``, default ``local[*]``; ``pin_blocks``
refuses any other master), Arrow on, quiet progress bars. The library's
stages run no shuffle, so the 32 shuffle partitions serve only the
tests' own ``orderBy`` and ``distinct``. Driver memory is read when the
JVM launches, so it goes into ``PYSPARK_SUBMIT_ARGS`` before the first
session is built.
"""
import os


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of the box's memory, clamped to 2–8 g."""
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def build_session(app: str):
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 32)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
