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
from there to the final collect (``state_to_numpy``). No stage shuffles:
``pin_blocks``' transpose passes through files, so the driver and its
tasks must share one box (local mode). Every Python UDF
runs through ``_map``, which leaves its worker no cached zip importer
(``evict_zip_importers``).
"""
from __future__ import annotations

import functools
import os
import pickle
import sys
import tempfile
import zipimport
from typing import Any, Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

STATE_SCHEMA = "block int, node array<long>, m binary, x binary"
_pack = functools.partial(pickle.dumps, protocol=5)  # a cell holds one pickled value
PARTS_DIR_PREFIX = "pin_blocks-"  # the name prefix of pin_blocks' run-scoped directory


def node_blocks(n: int, nb: int) -> list[np.ndarray]:
    """The sorted node ids of each non-empty block: block ``i`` is ``i, i+nb, …``."""
    return [np.arange(blk, n, nb) for blk in range(min(nb, n))]


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
    """The state whose block ``j`` has ``m = gather(ids, parts)``, ``x = None``.

    Column task ``i`` calls ``scatter(tasks[i])`` for one value per node
    block of ``node_blocks(n, nb)`` and pickles the value for block ``j``
    to ``<dir>/<j>.<i>``; node block ``j``'s task then reads its parts
    back, in task order, and ``gather`` gets the block's node ids and
    those parts. Each stage is a ``spark.range`` with one row per
    partition, so task ``i`` runs alone in partition ``i``, node block
    ``j`` lands alone in partition ``j``, and nothing is shuffled. The
    state is checkpointed eagerly, in two jobs: the column stage and the
    node stage. ``<dir>`` is a ``TemporaryDirectory`` removed before this
    returns or raises. The driver and every task must share its
    filesystem, so the session must run in local mode.
    """
    master = spark.sparkContext.master
    if master != "local" and not master.startswith("local["):
        raise ValueError(
            f"pin_blocks passes parts through a local directory, so it needs a "
            f"local-mode session; got master {master!r}"
        )
    blocks = node_blocks(n, nb)
    with tempfile.TemporaryDirectory(prefix=PARTS_DIR_PREFIX) as parts_dir:

        def path(blk, task):
            return os.path.join(parts_dir, f"{blk}.{task}")

        def scatter_tasks(batches):
            for pdf in batches:
                for i in pdf["id"]:
                    for blk, part in enumerate(scatter(tasks[i])):
                        with open(path(blk, i), "wb") as f:
                            pickle.dump(part, f, protocol=5)
                yield pdf

        def load(blk, task):
            with open(path(blk, task), "rb") as f:
                return pickle.load(f)

        def pin(batches):
            for pdf in batches:
                for blk in pdf["id"]:
                    ids = blocks[blk]
                    m = _pack(gather(ids, [load(blk, i) for i in range(len(tasks))]))
                    x = _pack(None)
                    yield pd.DataFrame({"block": [blk], "node": [ids], "m": [m], "x": [x]})

        _map(spark.range(len(tasks), numPartitions=len(tasks)), scatter_tasks, "id long").collect()
        state = _map(spark.range(len(blocks), numPartitions=len(blocks)), pin, STATE_SCHEMA)
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
