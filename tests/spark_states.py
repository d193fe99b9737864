"""Spark states from dense NumPy matrices, to test one parallel stage at a time."""
from pyspark.sql import functions as F

from repro.linalg import STATE_SCHEMA, block_state, node_blocks


def pinned_state(spark, nb, f, b, xf=None, xb=None):
    """The state of ``(F', B')`` — and of ``(Xf, Xb)`` if given — in ``nb``
    node blocks, block ``i`` in partition ``i`` as PAPMI leaves it."""
    blocks = node_blocks(f.shape[0], nb)

    def emit(batches):
        for pdf in batches:
            for blk in pdf["id"]:
                ids = blocks[blk]
                xs = [None if x is None else x[ids] for x in (xf, xb)]
                yield block_state(blk, ids, f[ids], b[ids], *xs)

    return spark.range(len(blocks), numPartitions=len(blocks)).mapInPandas(
        emit, STATE_SCHEMA
    )


def partition_blocks(state) -> list[set]:
    """The node blocks in each non-empty partition (``spark_partition_id``) of ``state``."""
    rows = state.select(F.spark_partition_id().alias("p"), "block").distinct().collect()
    found = {}
    for p, blk in rows:
        found.setdefault(p, set()).add(blk)
    return list(found.values())
