"""The Spark state of the parallel pipeline (Alg. 5-8), and the passes over it.

Node block ``i`` of ``nb`` holds the nodes ``i, i+nb, i+2nb, …`` in
increasing order — the paper's equal split of V into ``nb`` subsets
(Algorithm 5, Line 1). A *state* DataFrame has one row per node block,
and the row holds both sides of it, as the paper's thread ``i`` owns
both ``Xf[Vᵢ]`` and ``Xb[Vᵢ]``: the block's node ids, its affinity rows
``m`` (``F'ᵢ`` and ``B'ᵢ``) and its embedding rows ``x`` (``None`` until
SMGreedyInit fills it), each cell one pickled NumPy value: an array of
any shape, a tuple or ``None``.

This module is the only one that runs a Spark stage or knows the
state's schema, cell format, placement and checkpoint policy; the
algorithm modules hand it plain NumPy functions. ``pin_blocks`` builds
a state, each node block in its own partition; ``map_blocks`` runs one
NumPy step on every block, a narrow map, so no row moves between tasks
from there to the final collect (``state_to_numpy``).
"""
from __future__ import annotations

import functools
import pickle
from typing import Any, Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

STATE_SCHEMA = "block int, node array<long>, m binary, x binary"
_pack = functools.partial(pickle.dumps, protocol=5)  # a cell holds one pickled value


def node_blocks(n: int, nb: int) -> list[np.ndarray]:
    """The sorted node ids of each non-empty block: block ``i`` is ``i, i+nb, …``."""
    return [np.arange(blk, n, nb) for blk in range(min(nb, n))]


def pin_blocks(
    spark: SparkSession, n: int, nb: int, tasks: Sequence, scatter: Callable, gather: Callable
) -> DataFrame:
    """The state whose block ``i`` has ``m = gather(ids, parts)``, ``x = None``.

    One task per element of ``tasks``, each in its own partition, calls
    ``scatter(task)`` for one value per node block of ``node_blocks(n,
    nb)``. One transpose then lands each node block in its own partition,
    and ``gather`` gets its node ids and its value from every task, in
    task order. The transpose's range partitioner samples its input in a
    job of its own, so the scattered values are checkpointed first; the
    state is checkpointed eagerly.
    """
    blocks = node_blocks(n, nb)

    def scatter_tasks(batches):
        for pdf in batches:
            for i in pdf["id"]:
                parts = [_pack(p) for p in scatter(tasks[i])]
                yield pd.DataFrame({"block": range(len(blocks)), "task": i, "part": parts})

    def pin(batches):
        pdfs = list(batches)
        if not pdfs:
            return
        for blk, rows in pd.concat(pdfs).groupby("block"):  # one block, once pinned
            ids = blocks[blk]
            parts = [pickle.loads(p) for p in rows.sort_values("task")["part"]]
            m = _pack(gather(ids, parts))
            yield pd.DataFrame({"block": [blk], "node": [ids], "m": [m], "x": [_pack(None)]})

    parts = (
        spark.range(len(tasks), numPartitions=len(tasks))
        .mapInPandas(scatter_tasks, "block int, task int, part binary")
        .localCheckpoint(eager=True)
    )
    return (
        parts.repartitionByRange(len(blocks), "block")
        .mapInPandas(pin, STATE_SCHEMA)
        .localCheckpoint(eager=True)
    )


def map_blocks(
    state: DataFrame, fn: Callable[[int, Any, Any], tuple[Any, Any]]
) -> tuple[DataFrame, list]:
    """One narrow pass: ``x, out = fn(blk, m, x)`` on each node block.

    ``m`` and ``x`` are the block's values as stored; ``fn`` returns the
    new ``x`` and a small result ``out`` for the driver. Returns the new
    state and the ``out`` of every block, in block order. The pass's lazy
    checkpoint is filled by the job that collects ``out``, so the pass
    runs once, in one job.
    """

    def run(batches):
        for pdf in batches:
            cells = zip(pdf["block"], pdf["m"], pdf["x"])
            res = [fn(blk, pickle.loads(m), pickle.loads(x)) for blk, m, x in cells]
            yield pdf.assign(x=[_pack(x) for x, _ in res], out=[_pack(out) for _, out in res])

    stage = state.mapInPandas(run, STATE_SCHEMA + ", out binary")
    stage = stage.localCheckpoint(eager=False)
    outs = sorted(stage.select("block", "out").collect())
    return stage.drop("out"), [pickle.loads(out) for _, out in outs]


def state_to_numpy(state: DataFrame, n: int, width: int, col: str = "m") -> np.ndarray:
    """Collect column ``col`` of a state into a dense ``(2, n, width)`` array, by side.

    Nodes absent from the state's rows are zero rows.
    """
    pdf = state.select("node", col).toPandas()
    out = np.zeros((2, n, width))
    for ids, cell in zip(pdf["node"], pdf[col]):
        out[:, ids] = pickle.loads(cell)
    return out
