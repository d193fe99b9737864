"""End-to-end PANE tests: Algorithm 1 vs Algorithm 5, scoring APIs, ablations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.affinity import apmi_numpy, num_iterations, papmi_from_states
from repro.core.ccd import objective, psvdccd_spark, svdccd_numpy
from repro.core.greedy_init import greedy_init_numpy, random_init_numpy, sm_greedy_init_spark
from repro.core.pane import PaneEmbedding, pane_numpy, pane_spark
from repro.datasets import load
from repro.eval.metrics import roc_auc
from repro.eval.splits import attribute_split, link_split
from repro.linalg import node_blocks
from tests.spark_states import partition_blocks
from tests.test_papmi import _degenerate_graphs


@pytest.fixture(scope="module")
def g():
    return load("cora", profile="test")


@pytest.fixture(scope="module")
def emb_st(g):
    return pane_numpy(
        g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, k=32, seed=0
    )


@pytest.fixture(scope="module")
def spark_run(spark, g):
    """``spark_run(nb, i)``: the i-th ``pane_spark`` call at ``nb``, k=32, seed 0."""
    runs = {}

    def run(nb, i=0):
        if (nb, i) not in runs:
            runs[nb, i] = pane_spark(
                spark, g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight,
                k=32, nb=nb, seed=0,
            )
        return runs[nb, i]

    return run


class TestSingleThread:
    def test_shapes(self, g, emb_st):
        assert emb_st.xf.shape == (g.n, 16)
        assert emb_st.xb.shape == (g.n, 16)
        assert emb_st.y.shape == (g.d, 16)

    def test_deterministic(self, g, emb_st):
        emb2 = pane_numpy(
            g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, k=32, seed=0
        )
        assert np.array_equal(emb_st.xf, emb2.xf)
        assert np.array_equal(emb_st.y, emb2.y)

    def test_reconstructs_affinities(self, g, emb_st):
        t = num_iterations(0.015, 0.5)
        f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, t)
        rel_f = np.linalg.norm(f - emb_st.xf @ emb_st.y.T) / np.linalg.norm(f)
        rel_b = np.linalg.norm(b - emb_st.xb @ emb_st.y.T) / np.linalg.norm(b)
        assert rel_f < 0.8 and rel_b < 0.8  # far better than the zero model

    def test_greedy_beats_random_at_equal_iterations(self, g):
        """Section 5.7 (Figures 7-8): GreedyInit beats random init."""
        t = num_iterations(0.015, 0.5)
        f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, t)
        e_g = svdccd_numpy(f, b, *greedy_init_numpy(f, b, 16, t, 0), t)
        e_r = svdccd_numpy(f, b, *random_init_numpy(g.n, g.d, 16, 0), t)
        assert objective(f, b, *e_g) < objective(f, b, *e_r)

    def test_attr_scores_eq21(self, g, emb_st):
        nodes = np.array([0, 1, 2])
        attrs = np.array([0, 1, 2])
        got = emb_st.attr_scores(nodes, attrs)
        want = np.array(
            [
                emb_st.xf[v] @ emb_st.y[r] + emb_st.xb[v] @ emb_st.y[r]
                for v, r in zip(nodes, attrs)
            ]
        )
        assert np.allclose(got, want)

    def test_link_scores_eq22(self, g, emb_st):
        src = np.array([0, 3])
        dst = np.array([1, 4])
        got = emb_st.link_scores(src, dst)
        want = np.array(
            [
                sum(
                    (emb_st.xf[u] @ emb_st.y[r]) * (emb_st.xb[v] @ emb_st.y[r])
                    for r in range(g.d)
                )
                for u, v in zip(src, dst)
            ]
        )
        assert np.allclose(got, want, rtol=1e-8)

    def test_node_features_normalized_concat(self, g, emb_st):
        feats = emb_st.node_features()
        assert feats.shape == (g.n, 32)
        half = feats[:, :16]
        norms = np.linalg.norm(half, axis=1)
        nz = norms > 0
        assert np.allclose(norms[nz], 1.0)


class TestParallelVsSingle:
    @pytest.fixture(scope="class")
    def emb_par(self, spark_run):
        return spark_run(4)

    def test_shapes(self, g, emb_par):
        assert emb_par.xf.shape == (g.n, 16) and emb_par.y.shape == (g.d, 16)

    def test_objective_close_to_single_thread(self, g, emb_st, emb_par):
        """§4: parallel PANE trades a small utility loss for speed."""
        t = num_iterations(0.015, 0.5)
        f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, t)
        o_st = objective(f, b, emb_st.xf, emb_st.xb, emb_st.y)
        o_par = objective(f, b, emb_par.xf, emb_par.xb, emb_par.y)
        zero = objective(f, b, 0 * emb_st.xf, 0 * emb_st.xb, emb_st.y)
        assert o_par < 0.7 * zero  # genuinely fits the affinities
        assert o_par < 1.5 * o_st  # close to the single-thread optimum

    def test_reconstruction_correlates_with_single_thread(self, emb_st, emb_par):
        r_st = (emb_st.xf @ emb_st.y.T).ravel()
        r_par = (emb_par.xf @ emb_par.y.T).ravel()
        assert np.corrcoef(r_st, r_par)[0, 1] > 0.9

    def test_task_quality_parity(self, spark, g, emb_st, emb_par):
        """AUC gap between parallel and single-thread stays small (Table 4)."""
        s = attribute_split(g, seed=0)
        auc_st = roc_auc(
            s.test_label, emb_st.attr_scores(s.test_node, s.test_attr)
        )
        auc_par = roc_auc(
            s.test_label, emb_par.attr_scores(s.test_node, s.test_attr)
        )
        assert abs(auc_st - auc_par) < 0.1


class TestSparkAgreesAcrossRuns:
    @pytest.mark.parametrize("nb", [1, 4])
    def test_eq4_objective_parity(self, g, emb_st, spark_run, nb):
        """Eq. (4) of pane_spark is within 2% of pane_numpy's, at nb=1 too."""
        t = num_iterations(0.015, 0.5)
        f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, t)
        e = spark_run(nb)
        o_par = objective(f, b, e.xf, e.xb, e.y)
        o_st = objective(f, b, emb_st.xf, emb_st.xb, emb_st.y)
        assert abs(o_par / o_st - 1) <= 0.02

    @pytest.mark.parametrize("nb", [1, 4])
    def test_deterministic(self, spark_run, nb):
        """The same (seed, nb) gives bit-identical embeddings."""
        e1, e2 = spark_run(nb, 0), spark_run(nb, 1)
        assert np.array_equal(e1.xf, e2.xf)
        assert np.array_equal(e1.xb, e2.xb)
        assert np.array_equal(e1.y, e2.y)


class TestBlockPlacement:
    @pytest.mark.parametrize("nb", [3, 4])
    def test_one_node_block_per_partition(self, spark, g, nb):
        """From PAPMI to the last CCD pass, a partition holds one node block."""
        t = num_iterations(0.015, 0.5)
        inp = (g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight)
        papmi_state, _ = papmi_from_states(spark, *inp, 0.5, t, nb)
        state, y = sm_greedy_init_spark(papmi_state, 4, t, seed=0)
        ccd_state, _ = psvdccd_spark(state, y, 2)
        for st in (papmi_state, state, ccd_state):
            parts = partition_blocks(st)
            assert all(len(blks) == 1 for blks in parts)
            assert set().union(*parts) == set(range(nb))
        for st in (state, ccd_state):  # one task per node block
            assert st.rdd.getNumPartitions() == len(node_blocks(g.n, nb))


class TestJobBudget:
    def test_jobs_per_run(self, spark):
        """nb=3: PAPMI 2, SMGreedyInit 2, PSVDCCD one per CCD iteration,
        collect 1 — 11 jobs at the default ϵ (t=6), 8 at t=3."""
        rng = np.random.default_rng(4)
        n, d = 24, 7
        args = (
            n, d, rng.integers(0, n, 60), rng.integers(0, n, 60),
            rng.integers(0, n, 40), rng.integers(0, d, 40), np.ones(40),
        )
        sc = spark.sparkContext
        jobs = {}
        for eps in (0.015, 0.1):
            group = f"pane-job-budget-{eps}"
            sc.setJobGroup(group, group)
            try:
                pane_spark(spark, *args, k=4, eps=eps, nb=3, seed=0)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            jobs[num_iterations(eps, 0.5)] = len(sc.statusTracker().getJobIdsForGroup(group))
        assert jobs == {6: 11, 3: 8}


class TestBetterThanRandomEmbeddings:
    def test_attr_inference_beats_noise(self, g):
        s = attribute_split(g, seed=0)
        emb = pane_numpy(
            g.n, g.d, g.src, g.dst, s.train_node, s.train_attr, s.train_weight,
            k=32, seed=0,
        )
        auc = roc_auc(s.test_label, emb.attr_scores(s.test_node, s.test_attr))
        rng = np.random.default_rng(0)
        noise = PaneEmbedding(
            rng.standard_normal(emb.xf.shape),
            rng.standard_normal(emb.xb.shape),
            rng.standard_normal(emb.y.shape),
        )
        auc_noise = roc_auc(
            s.test_label, noise.attr_scores(s.test_node, s.test_attr)
        )
        assert auc > 0.6 > auc_noise + 0.05 or auc > auc_noise + 0.15

    def test_link_prediction_beats_noise(self, g):
        s = link_split(g, seed=0)
        emb = pane_numpy(
            g.n, g.d, s.train_src, s.train_dst, g.node, g.attr, g.weight,
            k=32, seed=0,
        )
        auc = roc_auc(s.test_label, emb.link_scores(s.test_src, s.test_dst))
        assert auc > 0.6


class TestNoSilentNodeDrop:
    @pytest.mark.parametrize("nb", [1, 3])
    def test_source_only_attributeless_node_is_embedded(self, spark, nb):
        """A node with out-edges but no in-edges and no attributes has an
        F' row and no B' row; Spark must still embed it like NumPy does."""
        rng = np.random.default_rng(nb)
        n, d = 12, 5
        src = np.concatenate([rng.integers(1, n, 30), [0, 0, 0]])
        dst = np.concatenate([rng.integers(1, n, 30), [1, 2, 3]])
        node = np.concatenate([np.arange(1, n), rng.integers(1, n, 10)])
        attr = rng.integers(0, d, len(node))
        weight = np.ones(len(node))
        args = (n, d, src, dst, node, attr, weight)
        emb_np = pane_numpy(*args, k=4, seed=0)
        emb_sp = pane_spark(spark, *args, k=4, nb=nb, seed=0)

        def embedded(e):
            return (np.abs(e.xf).sum(axis=1) + np.abs(e.xb).sum(axis=1)) > 0

        assert embedded(emb_np)[0]
        assert not (embedded(emb_np) & ~embedded(emb_sp)).any()


class TestHalfWidthAboveD:
    """k/2 > d: each side's rank-d affinity matrix fits in k/2 columns, so
    both drivers reach Eq. (4)'s zero and keep ``Y`` at ``(d, k/2)``."""

    N, D, K = 40, 5, 16

    @pytest.mark.parametrize("nb", [None, 1, 3], ids=["numpy", "spark-nb1", "spark-nb3"])
    def test_exact_fit(self, spark, nb):
        rng = np.random.default_rng(5)
        n, d = self.N, self.D
        args = (
            n, d, rng.integers(0, n, 160), rng.integers(0, n, 160),
            rng.integers(0, n, 120), rng.integers(0, d, 120), 1.0 + rng.random(120),
        )
        if nb is None:
            emb = pane_numpy(*args, k=self.K, seed=0)
        else:
            emb = pane_spark(spark, *args, k=self.K, nb=nb, seed=0)
        assert emb.y.shape == (d, self.K // 2)
        assert all(np.isfinite(x).all() for x in (emb.xf, emb.xb, emb.y))
        f, b = apmi_numpy(*args, 0.5, num_iterations(0.015, 0.5))
        scale = np.sum(f**2) + np.sum(b**2)
        assert objective(f, b, emb.xf, emb.xb, emb.y) <= 1e-20 * scale


_ID_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@given(_degenerate_graphs(), st.integers(1, 4), st.sampled_from(_ID_DTYPES))
@settings(max_examples=10, derandomize=True, deadline=None)
def test_both_drivers_fit_degenerate_graphs(spark, case, extra, dtype):
    """k/2 > d on graphs with every degenerate node kind, ids of a drawn
    integer dtype and ``nb`` up to n+2: both drivers reach Eq. (4)'s zero,
    and both embed every node that has a nonzero F' or B' row.

    The converse is not asserted: ``pane_numpy`` may embed an all-zero
    affinity row as rounding noise where ``pane_spark`` gives exact zeros.
    """
    n, d, src, dst, node, attr, w, nb = case
    k = 2 * (d + extra)
    ids = [a.astype(dtype) for a in (src, dst, node, attr)]
    f, b = apmi_numpy(n, d, src, dst, node, attr, w, 0.5, num_iterations(0.015, 0.5))
    scale = np.sum(f**2) + np.sum(b**2)
    has_affinity = (f != 0).any(axis=1) | (b != 0).any(axis=1)
    for emb in (
        pane_numpy(n, d, *ids, w, k=k, seed=0),
        pane_spark(spark, n, d, *ids, w, k=k, nb=nb, seed=0),
    ):
        assert objective(f, b, emb.xf, emb.xb, emb.y) <= 1e-20 * scale
        embedded = (emb.xf != 0).any(axis=1) | (emb.xb != 0).any(axis=1)
        assert embedded[has_affinity].all()


class TestIdDtypes:
    """Ids of any integer dtype give the int64 run's embeddings, bit for bit."""

    N, D, NB = 80, 5000, 8

    @pytest.fixture(scope="class")
    def inp(self):
        rng = np.random.default_rng(12)
        n, d = self.N, self.D
        return dict(
            n=n, d=d, src=rng.integers(0, n, 400), dst=rng.integers(0, n, 400),
            node=rng.integers(0, n, 600), attr=rng.integers(0, d, 600),
            weight=1.0 + rng.random(600),
        )

    @pytest.fixture(scope="class")
    def run(self, spark):
        def run(driver, inp):
            if driver == "numpy":
                return pane_numpy(**inp, k=8, seed=0)
            return pane_spark(spark, **inp, k=8, nb=self.NB, seed=0)

        return run

    @pytest.fixture(scope="class")
    def reference(self, run, inp):
        return {driver: run(driver, inp) for driver in ("numpy", "spark")}

    @pytest.mark.parametrize("driver", ["numpy", "spark"])
    @pytest.mark.parametrize(
        "name,dtype",
        [("attr", np.int16), ("src", np.uint64), ("node", np.uint64)],
        ids=["int16-attr", "uint64-src", "uint64-node"],
    )
    def test_same_embeddings_as_int64(self, run, inp, reference, driver, name, dtype):
        """An int16 attr id times the column-block count overflows int16."""
        got = run(driver, {**inp, name: inp[name].astype(dtype)})
        want = reference[driver]
        assert np.array_equal(got.xf, want.xf)
        assert np.array_equal(got.xb, want.xb)
        assert np.array_equal(got.y, want.y)


def _valid_input():
    return dict(
        n=4,
        d=3,
        src=np.array([0, 1, 2]),
        dst=np.array([1, 2, 3]),
        node=np.array([0, 1, 3]),
        attr=np.array([0, 2, 1]),
        weight=np.array([1.0, 2.0, 1.0]),
    )


class TestInputValidation:
    @pytest.mark.parametrize(
        "change",
        [
            dict(src=np.array([0, 1, 4])),
            dict(dst=np.array([-1, 2, 3])),
            dict(node=np.array([0, 1, 4])),
            dict(attr=np.array([0, 3, 1])),
            dict(dst=np.array([1, 2])),
            dict(weight=np.array([1.0, 2.0])),
            dict(weight=np.array([1.0, 0.0, 1.0])),
            dict(weight=np.array([1.0, -2.0, 1.0])),
            dict(k=3),
            dict(k=0),
            dict(nb=0),
            dict(weight=np.array([1.0, np.inf, 1.0])),
            dict(weight=np.array([1.0, np.nan, 1.0])),
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(eps=0.0),
            dict(eps=1.5),
            dict(src=np.array([0.0, 1.0, 2.0])),
            dict(node=np.array([0.5, 1.0, 3.0])),
            dict(k=4.0),
            dict(nb=2.5),
            dict(n=10.0),
            dict(d=4.0),
            dict(src=np.array([0, 1, 2]).reshape(-1, 1)),
        ],
        ids=[
            "src-out-of-range", "dst-negative", "node-out-of-range",
            "attr-out-of-range", "edge-lengths", "assoc-lengths",
            "zero-weight", "negative-weight", "odd-k", "k-below-2", "nb-below-1",
            "inf-weight", "nan-weight", "alpha-zero", "alpha-one", "eps-zero",
            "eps-above-1", "float-src", "fractional-node", "float-k", "float-nb",
            "float-n", "float-d", "2d-src",
        ],
    )
    def test_bad_input_raises(self, spark, change):
        kw = {**_valid_input(), "k": 4, **change}
        nb = kw.pop("nb", 2)
        if "nb" not in change:
            with pytest.raises(ValueError):
                pane_numpy(**kw)
        with pytest.raises(ValueError):
            pane_spark(spark, **kw, nb=nb)
