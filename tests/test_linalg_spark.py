"""Tests for the linear-algebra substrate (system #1).

The state layout (one row per node block) is round-tripped on Spark;
``pin_blocks`` is checked to hand each block its parts in task order, to
land block ``i`` alone in partition ``i``, to refuse a session that is
not in local mode and to leave no directory behind, whether it returns
or raises, and ``map_blocks`` for its
contract: one job per pass, block order, cells of any shape read back
as stored, no change to rows it does not write, and no zip importer left
cached in a worker between passes. The COO kernels both pipelines
share (``1/outdeg``, the jagged-diagonal gather-add, normalizations) are
checked against dense NumPy references and — where the operation is
SQL-expressible — against the DuckDB oracle (``tests/oracle.py``), so a
wrong gather or aggregation is caught as a wrong *result*.
"""
import importlib
import os
import re
import sys
import tempfile
import tracemalloc
import zipfile
import zipimport
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets import attributed_graph
from repro.linalg import (
    coo_plan,
    coo_spmm,
    inv_out_degree,
    map_blocks,
    node_blocks,
    normalize_cols,
    normalize_rows,
    pin_blocks,
    state_to_numpy,
)
from repro.linalg.matrix import evict_zip_importers
from tests.oracle import assert_equivalent
from tests.spark_states import pinned_state


def _random_graph(n=30, m=120, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    keep = src != dst
    return src[keep], dst[keep]


def _p_dense(n, src, dst):
    p = np.zeros((n, n))
    deg = np.zeros(n)
    np.add.at(deg, src, 1.0)
    np.add.at(p, (src, dst), 1.0)
    return p / np.maximum(deg, 1)[:, None]


class TestStateRoundtrip:
    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_roundtrip(self, spark, nb):
        f, b = np.random.default_rng(1).standard_normal((2, 17, 5))
        st = pinned_state(spark, nb, f, b)
        assert np.array_equal(state_to_numpy(st, 17, 5), [f, b])

    def test_blocks_cover_all_nodes(self, spark):
        mat = np.ones((10, 3))
        pdf = pinned_state(spark, 4, mat, mat).toPandas()
        assert sorted(pdf["block"]) == [0, 1, 2, 3]  # one row per block
        assert sorted(np.concatenate(pdf["node"].to_list())) == list(range(10))
        for blk, ids in zip(pdf["block"], pdf["node"]):
            assert list(ids) == list(range(blk, 10, 4))  # sorted, node % nb == block

    def test_missing_nodes_become_zero_rows(self, spark):
        mat = np.ones((9, 2))
        st = pinned_state(spark, 3, mat, mat).filter("block != 1")
        out = state_to_numpy(st, 9, 2)
        assert out[0, 0].tolist() == [1, 1] and out[1, 1].tolist() == [0, 0]
        assert out[0, 7].tolist() == [0, 0] and out[1, 8].tolist() == [1, 1]


class TestMapBlocks:
    def test_identity_pass_is_bit_identical(self, spark):
        f, b, xf, xb = np.random.default_rng(2).standard_normal((4, 17, 5))
        st, outs = map_blocks(
            pinned_state(spark, 3, f, b, xf, xb), lambda blk, m, x: (x, np.empty(0))
        )
        assert np.array_equal(state_to_numpy(st, 17, 5), [f, b])
        assert np.array_equal(state_to_numpy(st, 17, 5, "x"), [xf, xb])
        assert [len(out) for out in outs] == [0, 0, 0]

    @pytest.mark.parametrize("nb", [3, 4])
    def test_outs_in_block_order(self, spark, nb):
        """Rows stored in reverse block order still give outs in block order."""
        mat = np.zeros((10, 2))
        st = pinned_state(spark, nb, mat, mat).orderBy(F.desc("block"))
        _, outs = map_blocks(st, lambda blk, m, x: (x, np.array([blk, m.shape[1]])))
        want = [[blk, len(ids)] for blk, ids in enumerate(node_blocks(10, nb))]
        assert [out.tolist() for out in outs] == want

    def test_one_job_per_pass(self, spark):
        mat = np.ones((10, 3))
        st = pinned_state(spark, 4, mat, mat)
        sc = spark.sparkContext
        group = "map-blocks-one-job"
        sc.setJobGroup(group, group)
        try:
            st, _ = map_blocks(st, lambda blk, m, x: (m[:, :, :1] * blk, m[0, :1]))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1
        xf, _ = state_to_numpy(st, 10, 1, "x")
        assert xf[:, 0].tolist() == [i % 4 for i in range(10)]  # the pass's x, kept


class TestPinBlocks:
    @pytest.mark.parametrize("nb", [3, 4])
    def test_gather_gets_parts_in_task_order(self, spark, nb):
        """Each task's part lands as one column, in task order, not value order."""
        n = 10
        blocks = node_blocks(n, nb)
        st = pin_blocks(
            spark, n, nb, [5, 2, 7],
            lambda task: [np.full((2, len(ids), 1), float(task)) for ids in blocks],
            lambda ids, parts: np.concatenate(parts, axis=2),
        )
        assert np.array_equal(state_to_numpy(st, n, 3), np.broadcast_to([5, 2, 7], (2, n, 3)))

    @pytest.mark.parametrize("raises", [None, "scatter", "gather"])
    def test_no_directory_outlives_the_call(self, spark, tmp_path, monkeypatch, raises):
        """The parts' directory is gone when the call returns, and when
        ``scatter`` or ``gather`` raises; the returned state stays readable."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        n, nb = 10, 3
        blocks = node_blocks(n, nb)

        def fail(where):
            if where == raises:
                raise RuntimeError(f"{where} failed on purpose")

        def scatter(task):
            fail("scatter")
            return [np.full((2, len(ids), 1), float(task)) for ids in blocks]

        def gather(ids, parts):
            fail("gather")
            return np.concatenate(parts, axis=2)

        if raises is None:
            st = pin_blocks(spark, n, nb, [1, 2], scatter, gather)
            assert np.array_equal(state_to_numpy(st, n, 2), np.broadcast_to([1, 2], (2, n, 2)))
        else:
            with pytest.raises(Exception, match=f"{raises} failed on purpose"):
                pin_blocks(spark, n, nb, [1, 2], scatter, gather)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("master", ["yarn", "spark://box:7077", "local-cluster[2,1,1024]"])
    def test_rejects_a_session_not_in_local_mode(self, tmp_path, monkeypatch, master):
        """Tasks off the driver's box could not read the parts' directory."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        session = SimpleNamespace(sparkContext=SimpleNamespace(master=master))
        with pytest.raises(ValueError, match=re.escape(repr(master))):
            pin_blocks(session, 4, 2, [0], lambda task: [None, None], lambda ids, parts: None)
        assert not list(tmp_path.iterdir())


class TestPlacement:
    @pytest.mark.parametrize("n,nb", [(10, nb) for nb in range(1, 10)] + [(5, 8)])
    def test_block_i_alone_in_partition_i(self, spark, n, nb):
        mat = np.ones((n, 1))
        st = pinned_state(spark, nb, mat, mat)
        rows = st.select(F.spark_partition_id(), "block").collect()
        assert sorted(rows) == [(i, i) for i in range(min(n, nb))]
        assert st.rdd.getNumPartitions() == min(n, nb)


def _has_zip_importer() -> bool:
    return any(isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values())


class TestZipImporterEviction:
    def test_import_from_zip_after_eviction(self, tmp_path, monkeypatch):
        archive = tmp_path / "mods.zip"
        with zipfile.ZipFile(archive, "w") as z:
            z.writestr("evict_probe_a.py", "VALUE = 1\n")
            z.writestr("evict_probe_b.py", "VALUE = 2\n")
        monkeypatch.syspath_prepend(str(archive))
        try:
            assert importlib.import_module("evict_probe_a").VALUE == 1
            assert _has_zip_importer()
            evict_zip_importers()
            assert not _has_zip_importer()
            assert importlib.import_module("evict_probe_b").VALUE == 2
        finally:
            for name in ("evict_probe_a", "evict_probe_b"):
                sys.modules.pop(name, None)

    def test_warm_worker_starts_a_pass_with_no_zip_importer(self, spark):
        """A worker that ran a block of the first pass holds no zip importer
        when it runs a block of the second; only such workers are compared,
        since a freshly forked worker inherits its daemon's importers."""

        def probe(blk, m, x):  # nested, so it ships by value and imports nothing
            cached = any(
                isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values()
            )
            return x, (os.getpid(), cached)

        mat = np.ones((12, 2))
        st, first = map_blocks(pinned_state(spark, 4, mat, mat), probe)
        _, second = map_blocks(st, probe)
        warm = [cached for pid, cached in second if pid in dict(first)]
        assert warm and not any(warm)


class TestCells:
    def test_x_of_another_shape_read_back_unchanged(self, spark):
        """A pass may store an (|Vᵢ|, 3) ``x``; the next pass reads it back as stored."""
        rng = np.random.default_rng(3)
        f, b = rng.standard_normal((2, 17, 5))
        xs = [rng.standard_normal((len(ids), 3)) for ids in node_blocks(17, 3)]
        st, _ = map_blocks(pinned_state(spark, 3, f, b), lambda blk, m, x: (xs[blk], None))
        _, outs = map_blocks(st, lambda blk, m, x: (x, x))
        assert len(outs) == 3
        assert all(np.array_equal(out, x) for out, x in zip(outs, xs))


class TestWalkEdges:
    def test_weights_vs_duckdb(self, spark):
        src, dst = _random_graph(seed=2)
        got = pd.DataFrame({"src": src, "dst": dst, "w": inv_out_degree(30, src)[src]})
        assert_equivalent(
            spark.createDataFrame(got),
            """
            SELECT e.src AS src, e.dst AS dst,
                   1.0 / CAST(d.outdeg AS DOUBLE) AS w
            FROM edges e
            JOIN (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src) d
              ON e.src = d.src
            """,
            edges=pd.DataFrame({"src": src, "dst": dst}),
        )

    def test_rows_sum_to_one(self):
        src, dst = _random_graph(seed=3)
        sums = np.bincount(src, weights=inv_out_degree(30, src)[src], minlength=30)
        assert np.allclose(sums[np.unique(src)], 1.0)


class TestSpmm:
    @pytest.mark.parametrize("nb", [1, 2, 7])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_matches_numpy(self, nb, transpose):
        """One plan serves every column block, as in a PAPMI task, bit for bit.

        Each column is summed in the same order at any width, which keeps
        PAPMI equal to APMI under any column blocking. The graph has more
        rows than a slot needs, so the product runs both the slot loop
        and the tail.
        """
        n, dcols = 80, 4
        src, dst = _random_graph(n=n, m=400, seed=4)
        mat = np.random.default_rng(5).standard_normal((n, dcols))
        p = _p_dense(n, src, dst)
        expected = (p.T if transpose else p) @ mat
        inv = inv_out_degree(n, src)[:, None]
        plan = coo_plan(dst, src) if transpose else coo_plan(src, dst)

        def step(v):  # Pᵀ·v = Aᵀ·(D⁻¹v), P·v = D⁻¹·(A·v)
            return coo_spmm(plan, inv * v, n) if transpose else inv * coo_spmm(plan, v, n)

        got = np.hstack([step(blk) for blk in np.array_split(mat, nb, axis=1)])
        assert np.allclose(got, expected, atol=1e-10)
        assert np.array_equal(got, step(mat))

    def test_peak_memory_below_five_dense_blocks(self):
        """One product on the tweibo-attr shape allocates no nnz × width temporary."""
        g = attributed_graph(
            name="tweibo", seed=0, n=2000, d=200, m=37500, n_labels=8, avg_attrs=6
        )
        plan, inv = coo_plan(g.src, g.dst), inv_out_degree(g.n, g.src)[:, None]
        mat = np.random.default_rng(8).random((g.n, 200))
        tracemalloc.start()
        try:
            inv * coo_spmm(plan, mat, g.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * g.n * 200 * 8

    def test_spmm_vs_duckdb_scalar_column(self, spark):
        """One-column SpMM is a SQL join+group-by — oracle-checkable."""
        n = 20
        src, dst = _random_graph(n=n, m=80, seed=6)
        vec = np.random.default_rng(7).random(n)
        w = inv_out_degree(n, src)[src]
        out = inv_out_degree(n, src) * coo_spmm(coo_plan(src, dst), vec[:, None], n)[:, 0]
        rows = np.unique(src)
        got = pd.DataFrame({"node": rows, "val": out[rows]})
        assert_equivalent(
            spark.createDataFrame(got),
            """
            SELECT e.src AS node, SUM(e.w * v.x) AS val
            FROM edges_w e JOIN vecs v ON e.dst = v.node
            GROUP BY e.src
            """,
            edges_w=pd.DataFrame({"src": src, "dst": dst, "w": w}),
            vecs=pd.DataFrame({"node": np.arange(n), "x": vec}),
        )

    def test_output_sparse_only_message_receivers(self):
        # star graph: only node 0 has out-edges → only row 0 is nonzero
        src = np.array([0, 0, 0], dtype=np.int64)
        dst = np.array([1, 2, 3], dtype=np.int64)
        out = inv_out_degree(4, src)[:, None] * coo_spmm(coo_plan(src, dst), np.ones((4, 2)), 4)
        assert np.allclose(out, [[1.0, 1.0], [0, 0], [0, 0], [0, 0]])


class TestNormalizeAndSums:
    def test_col_normalize(self):
        m = np.random.default_rng(11).random((15, 4))
        m[:, 2] = 0.0  # zero column must stay zero
        got = normalize_cols(m)
        expected = m / np.where(m.sum(0) > 0, m.sum(0), 1.0)
        assert np.allclose(got, expected)
        assert np.allclose(got[:, 2], 0.0)

    def test_row_normalize(self):
        m = np.random.default_rng(12).random((10, 4))
        m[3] = 0.0  # zero row must stay zero
        got = normalize_rows(m)
        sums = got.sum(axis=1)
        assert np.allclose(sums[np.arange(10) != 3], 1.0)
        assert np.allclose(got[3], 0.0)

    def test_row_normalize_vs_duckdb(self, spark):
        m = np.abs(np.random.default_rng(13).random((8, 3))) + 0.1
        got = pd.DataFrame({"node": np.arange(8), "c0": normalize_rows(m)[:, 0]})
        pdf = pd.DataFrame(
            {"node": np.arange(8), "c0": m[:, 0], "rs": m.sum(axis=1)}
        )
        assert_equivalent(
            spark.createDataFrame(got),
            "SELECT node, c0 / rs AS c0 FROM t",
            t=pdf,
        )
