"""Spark states from dense NumPy matrices, to test one parallel stage at a time."""
import numpy as np
from pyspark.sql import functions as F

from repro.linalg import map_blocks, node_blocks, pin_blocks


def pinned_state(spark, nb, f, b, xf=None, xb=None):
    """The state of ``(F', B')`` — and of ``(Xf, Xb)`` if given — in ``nb``
    node blocks, block ``i`` in partition ``i`` as PAPMI leaves it."""
    blocks = node_blocks(f.shape[0], nb)
    state = pin_blocks(
        spark,
        f.shape[0],
        nb,
        [None],
        lambda _: [np.stack([f[ids], b[ids]]) for ids in blocks],
        lambda ids, parts: parts[0],
    )
    if xf is not None:
        state, _ = map_blocks(
            state,
            lambda blk, m, x: (np.stack([xf[blocks[blk]], xb[blocks[blk]]]), np.empty(0)),
        )
    return state


def partition_blocks(state) -> list[set]:
    """The node blocks in each non-empty partition (``spark_partition_id``) of ``state``."""
    rows = state.select(F.spark_partition_id().alias("p"), "block").distinct().collect()
    found = {}
    for p, blk in rows:
        found.setdefault(p, set()).add(blk)
    return list(found.values())
