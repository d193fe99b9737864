"""The Spark state of the parallel pipeline (Alg. 5-8), and the two passes over it.

Node block ``i`` of ``nb`` holds the nodes ``i, i+nb, i+2nb, …`` in
increasing order — the paper's equal split of V into ``nb`` subsets
(Algorithm 5, Line 1). A *state* DataFrame has one row per node block,
and the row holds both sides of it, as the paper's thread ``i`` owns
both ``Xf[Vᵢ]`` and ``Xb[Vᵢ]``: the block's node ids, its affinity rows
``m = [F'ᵢ; B'ᵢ]`` and its embedding rows ``x = [Xfᵢ; Xbᵢ]``, each a
flattened row-major ``(2, |Vᵢ|, width)`` array (``x`` is empty until
SMGreedyInit fills it).

This module is the only one that knows the state's schema, placement and
checkpoint policy. ``pin_blocks`` builds a state, each node block in its
own partition; ``map_blocks`` runs one NumPy step on every block's rows,
a narrow map, so no row moves between tasks from there to the final
collect (``state_to_numpy``).
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

STATE_SCHEMA = "block int, node array<long>, m array<double>, x array<double>"


def node_blocks(n: int, nb: int) -> list[np.ndarray]:
    """The sorted node ids of each non-empty block: block ``i`` is ``i, i+nb, …``."""
    return [np.arange(blk, n, nb) for blk in range(min(nb, n))]


def rows_of(pdf: pd.DataFrame, col: str) -> list[np.ndarray]:
    """The ``(2, |Vᵢ|, width)`` arrays of column ``col`` in a batch of state rows."""
    return [np.reshape(v, (2, len(ids), -1)) for ids, v in zip(pdf["node"], pdf[col])]


def pin_blocks(
    df: DataFrame, n: int, nb: int, fn: Callable[[np.ndarray, pd.DataFrame], np.ndarray]
) -> DataFrame:
    """The state whose block ``i`` has ``m = fn(ids, rows)``, ``x`` empty.

    ``df`` is range-partitioned on its ``block`` column into one partition
    per node block of ``node_blocks(n, nb)``; ``ids`` are the block's node
    ids and ``rows`` its rows of ``df``. The range partitioner samples its
    input in a job of its own, so an input that is costly to compute is
    checkpointed first. The state is checkpointed eagerly.
    """
    blocks = node_blocks(n, nb)

    def pin(batches):
        pdfs = list(batches)
        if not pdfs:
            return
        for blk, rows in pd.concat(pdfs).groupby("block"):  # one block, once pinned
            ids = blocks[blk]
            m = fn(ids, rows)
            yield pd.DataFrame(
                {"block": np.int32([blk]), "node": [ids], "m": [m.ravel()], "x": [np.empty(0)]}
            )

    return (
        df.repartitionByRange(len(blocks), "block")
        .mapInPandas(pin, STATE_SCHEMA)
        .localCheckpoint(eager=True)
    )


def map_blocks(
    state: DataFrame,
    fn: Callable[[int, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[DataFrame, list[np.ndarray]]:
    """One narrow pass: ``x, out = fn(blk, m, x)`` on each node block.

    ``m`` and ``x`` are the block's ``(2, |Vᵢ|, width)`` arrays (``x`` is
    ``(2, |Vᵢ|, 0)`` while empty); ``fn`` returns the new ``x`` in that
    layout and a small result ``out`` for the driver. Returns the new
    state and the flattened ``out`` of every block, in block order. The
    pass's lazy checkpoint is filled by the job that collects ``out``, so
    the pass runs once, in one job.
    """

    def run(batches):
        for pdf in batches:
            res = [
                fn(blk, m, x)
                for blk, m, x in zip(pdf["block"], rows_of(pdf, "m"), rows_of(pdf, "x"))
            ]
            yield pdf.assign(
                x=[x.ravel() for x, _ in res], out=[np.ravel(out) for _, out in res]
            )

    stage = state.mapInPandas(run, STATE_SCHEMA + ", out array<double>")
    stage = stage.localCheckpoint(eager=False)
    outs = sorted(stage.select("block", "out").collect())
    return stage.drop("out"), [np.asarray(out) for _, out in outs]


def state_to_numpy(state: DataFrame, n: int, width: int, col: str = "m") -> np.ndarray:
    """Collect column ``col`` of a state into a dense ``(2, n, width)`` array, by side.

    Nodes absent from the state's rows are zero rows.
    """
    pdf = state.select("node", col).toPandas()
    out = np.zeros((2, n, width))
    for ids, mat in zip(pdf["node"], rows_of(pdf, col)):
        out[:, ids] = mat
    return out
