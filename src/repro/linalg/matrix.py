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
from there to the final collect (``state_to_numpy``). Every Python UDF
runs through ``_map``, which leaves its worker no cached zip importer
(``evict_zip_importers``).
"""
from __future__ import annotations

import functools
import pickle
import sys
import zipimport
from typing import Any, Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

STATE_SCHEMA = "block int, node array<long>, m binary, x binary"
_pack = functools.partial(pickle.dumps, protocol=5)  # a cell holds one pickled value


def node_blocks(n: int, nb: int) -> list[np.ndarray]:
    """The sorted node ids of each non-empty block: block ``i`` is ``i, i+nb, …``."""
    return [np.arange(blk, n, nb) for blk in range(min(nb, n))]


def spark_hash_int(value: int) -> int:
    """Spark SQL's ``hash()`` of an ``int``: Murmur3_x86_32 ``hashInt``, seed 42."""

    def mul(a, b):
        return a * b & 0xFFFFFFFF

    def rotl(x, r):
        return (x << r | x >> (32 - r)) & 0xFFFFFFFF

    k1 = mul(rotl(mul(value & 0xFFFFFFFF, 0xCC9E2D51), 15), 0x1B873593)
    h1 = (rotl(42 ^ k1, 13) * 5 + 0xE6546B64) & 0xFFFFFFFF
    h1 ^= 4  # the input's length in bytes
    h1 = mul(h1 ^ h1 >> 16, 0x85EBCA6B)
    h1 = mul(h1 ^ h1 >> 13, 0xC2B2AE35)
    h1 ^= h1 >> 16
    return h1 - (1 << 32) if h1 >> 31 else h1


def placement_keys(nb: int) -> list[int]:
    """Key ``i`` is the smallest int ``>= 0`` that Spark's hash partitioner
    into ``nb`` partitions (``pmod(hash(key), nb)``) sends to partition ``i``."""
    keys = {}
    key = 0
    while len(keys) < nb:
        keys.setdefault(spark_hash_int(key) % nb, key)
        key += 1
    return [keys[i] for i in range(nb)]


def evict_zip_importers() -> None:
    """Drop every ``zipimporter`` from this process's ``sys.path_importer_cache``.

    A PySpark worker calls ``importlib.invalidate_caches()`` before each
    task, and Python 3.11 then has every cached ``zipimporter`` re-read
    its archive's whole directory: a warm worker holds one per imported
    subpackage of pyspark.zip (1328 entries), which costs 0.1-0.2 s per
    task. The entries are a cache: the import system rebuilds one on
    demand from zipimport's own directory cache, without reading the
    archive again.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def _map(df: DataFrame, fn: Callable, schema: str) -> DataFrame:
    """``df.mapInPandas(fn, schema)``; each task ends by evicting its
    worker's zip importers, so the worker's next task starts cheaply."""

    def run(batches):
        yield from fn(batches)
        evict_zip_importers()

    return df.mapInPandas(run, schema)


def pin_blocks(
    spark: SparkSession, n: int, nb: int, tasks: Sequence, scatter: Callable, gather: Callable
) -> DataFrame:
    """The state whose block ``i`` has ``m = gather(ids, parts)``, ``x = None``.

    One task per element of ``tasks``, each in its own partition, calls
    ``scatter(task)`` for one value per node block of ``node_blocks(n,
    nb)``. One hash shuffle then lands node block ``i`` alone in partition
    ``i``: each value is keyed by its block's ``placement_keys``, and
    ``gather`` gets the block's node ids and its value from every task,
    in task order. The state is checkpointed eagerly, in two jobs: the
    shuffle's map stage and the gather.
    """
    blocks = node_blocks(n, nb)
    keys = placement_keys(len(blocks))

    def scatter_tasks(batches):
        for pdf in batches:
            for i in pdf["id"]:
                parts = [_pack(p) for p in scatter(tasks[i])]
                yield pd.DataFrame(
                    {"block": range(len(blocks)), "key": keys, "task": i, "part": parts}
                )

    def pin(batches):
        for blk, rows in pd.concat(list(batches)).groupby("block"):  # one block, once pinned
            ids = blocks[blk]
            parts = [pickle.loads(p) for p in rows.sort_values("task")["part"]]
            m = _pack(gather(ids, parts))
            yield pd.DataFrame({"block": [blk], "node": [ids], "m": [m], "x": [_pack(None)]})

    parts = _map(
        spark.range(len(tasks), numPartitions=len(tasks)),
        scatter_tasks,
        "block int, key int, task int, part binary",
    )
    state = _map(parts.repartition(len(blocks), "key"), pin, STATE_SCHEMA)
    return state.localCheckpoint(eager=True)


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

    stage = _map(state, run, STATE_SCHEMA + ", out binary")
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
