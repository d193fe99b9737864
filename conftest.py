import os
import sys

import pytest
from pyspark.sql import SparkSession

from jobs._session import build_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, built as the jobs build theirs."""
    s = build_session("repro")
    # One line in the test output that says which driver memory the JVM got.
    print(
        f"[conftest] SPARK_DRIVER_MEM={s.sparkContext.getConf().get('spark.driver.memory')} "
        f"(src={'env' if 'SPARK_DRIVER_MEM' in os.environ else 'meminfo'}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
