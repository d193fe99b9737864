"""The Spark state layout of the parallel pipeline (Alg. 5-8).

Node block ``i`` of ``nb`` holds the nodes ``i, i+nb, i+2nb, …`` in
increasing order — the paper's equal split of V into ``nb`` subsets
(Algorithm 5, Line 1). A *state* DataFrame has one row per node block,
and the row holds both sides of it, as the paper's thread ``i`` owns
both ``Xf[Vᵢ]`` and ``Xb[Vᵢ]``: the block's node ids, its affinity rows
``m = [F'ᵢ; B'ᵢ]`` and its embedding rows ``x = [Xfᵢ; Xbᵢ]``, each a
flattened row-major ``(2, |Vᵢ|, width)`` array (``x`` is empty until
SMGreedyInit fills it). PAPMI's transpose leaves each node block in its
own partition, and every later stage is a narrow map, so no row moves
between tasks from there to the final collect.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

STATE_SCHEMA = "block int, node array<long>, m array<double>, x array<double>"
# A stage that also hands the driver a small per-row result — a block's
# Vᵢ in SMGreedyInit, its partial moments (G, C) in PSVDCCD — emits it in
# one more column; the driver collects that column alone.
STAGE_SCHEMA = STATE_SCHEMA + ", out array<double>"


def node_blocks(n: int, nb: int) -> list[np.ndarray]:
    """The sorted node ids of each non-empty block: block ``i`` is ``i, i+nb, …``."""
    return [np.arange(blk, n, nb) for blk in range(min(nb, n))]


def block_state(
    blk: int,
    ids: np.ndarray,
    f: np.ndarray,
    b: np.ndarray,
    xf: np.ndarray | None = None,
    xb: np.ndarray | None = None,
) -> pd.DataFrame:
    """The state row of node block ``blk``: ``m = [F'; B']``, ``x = [Xf; Xb]``."""
    x = np.empty(0) if xf is None else np.stack([xf, xb])
    return pd.DataFrame(
        {
            "block": np.int32([blk]),
            "node": [ids],
            "m": [np.stack([f, b]).ravel()],
            "x": [x.ravel()],
        }
    )


def rows_of(pdf: pd.DataFrame, col: str) -> list[np.ndarray]:
    """The ``(2, |Vᵢ|, width)`` arrays of column ``col`` in a batch of state rows."""
    return [np.reshape(v, (2, len(ids), -1)) for ids, v in zip(pdf["node"], pdf[col])]


def state_to_numpy(state: DataFrame, n: int, width: int, col: str = "m") -> np.ndarray:
    """Collect column ``col`` of a state into a dense ``(2, n, width)`` array, by side.

    Nodes absent from the state's rows are zero rows.
    """
    pdf = state.select("node", col).toPandas()
    out = np.zeros((2, n, width))
    for ids, mat in zip(pdf["node"], rows_of(pdf, col)):
        out[:, ids] = mat
    return out
