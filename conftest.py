import glob
import os
import sys
import tempfile

import pytest
from pyspark.sql import SparkSession

from jobs._session import build_session
from repro.linalg.matrix import PARTS_DIR_PREFIX


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


@pytest.fixture(scope="session", autouse=True)
def no_pin_blocks_directory_left():
    """Fail the run if a ``pin_blocks`` directory that appeared during it
    is still in the temp dir when it ends."""
    pattern = os.path.join(tempfile.gettempdir(), PARTS_DIR_PREFIX + "*")
    before = set(glob.glob(pattern))
    yield
    left = sorted(set(glob.glob(pattern)) - before)
    assert not left, f"pin_blocks left these directories behind: {left}"
