"""Tests for the linear-algebra substrate (system #1).

The state layout (one row per node block) is round-tripped on Spark,
and ``map_blocks`` is checked for its contract: one job per pass, block
order, and no change to rows it does not write. The COO kernels both
pipelines share (walk weights, presorted SpMM, normalizations) are
checked against dense NumPy references and — where the operation is
SQL-expressible — against the DuckDB oracle (``repro.oracle``), so a
wrong gather or aggregation is caught as a wrong *result*.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.linalg import (
    coo_plan,
    coo_spmm,
    map_blocks,
    node_blocks,
    normalize_cols,
    normalize_rows,
    state_to_numpy,
    walk_weights,
)
from repro.oracle import assert_equivalent
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


class TestWalkEdges:
    def test_weights_vs_duckdb(self, spark):
        src, dst = _random_graph(seed=2)
        got = pd.DataFrame({"src": src, "dst": dst, "w": walk_weights(30, src)})
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
        sums = np.bincount(src, weights=walk_weights(30, src), minlength=30)
        assert np.allclose(sums[np.unique(src)], 1.0)


class TestSpmm:
    @pytest.mark.parametrize("nb", [1, 2, 7])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_matches_numpy(self, nb, transpose):
        """One plan serves every column block, as in a PAPMI task."""
        n, dcols = 25, 4
        src, dst = _random_graph(n=n, m=100, seed=4)
        mat = np.random.default_rng(5).standard_normal((n, dcols))
        p = _p_dense(n, src, dst)
        expected = (p.T if transpose else p) @ mat
        w = walk_weights(n, src)
        plan = coo_plan(dst, src, w) if transpose else coo_plan(src, dst, w)
        got = np.hstack(
            [coo_spmm(plan, blk, n) for blk in np.array_split(mat, nb, axis=1)]
        )
        assert np.allclose(got, expected, atol=1e-10)

    def test_spmm_vs_duckdb_scalar_column(self, spark):
        """One-column SpMM is a SQL join+group-by — oracle-checkable."""
        n = 20
        src, dst = _random_graph(n=n, m=80, seed=6)
        vec = np.random.default_rng(7).random(n)
        w = walk_weights(n, src)
        out = coo_spmm(coo_plan(src, dst, w), vec[:, None], n)[:, 0]
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
        plan = coo_plan(src, dst, walk_weights(4, src))
        out = coo_spmm(plan, np.ones((4, 2)), 4)
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
