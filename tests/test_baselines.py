"""Tests for the baseline implementations (DESIGN.md § baseline substitutions)."""
import numpy as np
import pytest

from repro.baselines.bane import bane_lite
from repro.baselines.bla_lite import bla_lite
from repro.baselines.can_lite import can_lite
from repro.baselines.common import (
    MethodTooExpensive,
    row_norm_attr,
    smoothed_attrs,
    sym_norm_adj,
    sym_norm_op,
)
from repro.baselines.netmf import netmf_lite
from repro.baselines.nrp import nrp_lite
from repro.baselines.tadw import tadw_lite
from repro.datasets import load
from repro.eval.metrics import roc_auc
from repro.eval.splits import attribute_split, link_split
from repro.linalg.coo import _MIN_SLOT_ROWS, coo_plan, coo_spmm


@pytest.fixture(scope="module")
def g():
    return load("cora", profile="test")


@pytest.fixture(scope="module")
def lsplit(g):
    return link_split(g, seed=0)


def _coo_case(name):
    """``(out_idx, in_idx, r, v, n)`` for one SpMM kernel input; ``r`` is a row scale."""
    rng = np.random.default_rng(0)
    n, m, width = 15, 60, 4
    oi = rng.integers(0, n, m)
    ii = rng.integers(0, n, m)
    if name == "empty":
        oi, ii = oi[:0], ii[:0]
    elif name == "one-row":  # a star's hub: fewer rows than a slot needs
        oi = np.full(m, 3)
    elif name == "slots-and-tail":  # 40 rows of 3 entries, and a hub row of 200
        n = 40
        oi = np.r_[np.repeat(np.arange(n), 3), np.full(200, 5)]
        ii = rng.integers(0, n, len(oi))
    elif name == "repeated-pairs":
        oi, ii = np.tile(oi[:6], 10), np.tile(ii[:6], 10)
    elif name == "sorted-descending":
        oi = np.sort(oi)[::-1].copy()
    elif name == "int32":
        oi, ii = oi.astype(np.int32), ii.astype(np.int32)
    elif name == "width-1":
        width = 1
    r = rng.random(n)
    v = rng.standard_normal((n, width))
    return oi, ii, r, v, n


def _sym_norm_dense(n, s, t, dis):
    """The assembled ``diag(dis)·(A+I)·diag(dis)`` of ``sym_norm_adj``'s output."""
    a = np.zeros((n, n))
    np.add.at(a, (s, t), 1.0)  # a self-loop of the input adds to I's
    return dis[:, None] * a * dis[None, :]


class TestCommonKernels:
    @pytest.mark.parametrize(
        "case",
        ["random", "empty", "one-row", "slots-and-tail", "repeated-pairs",
         "sorted-descending", "int32", "width-1"],
    )
    def test_spmv_coo_matches_dense(self, case):
        oi, ii, r, v, n = _coo_case(case)
        dense = np.zeros((n, n))
        np.add.at(dense, (oi, ii), 1.0)
        plan = coo_plan(oi, ii)
        assert np.allclose(r[:, None] * coo_spmm(plan, v, n), np.diag(r) @ dense @ v)
        # Every slot spans _MIN_SLOT_ROWS rows or more, so a hub row's
        # entries go through the tail, not one slot each.
        assert np.all(np.diff(plan.bounds) >= _MIN_SLOT_ROWS)

    def test_sym_norm_adj_symmetric(self):
        s, t, dis = sym_norm_adj(6, np.array([0, 1, 2]), np.array([1, 2, 3]))
        a = _sym_norm_dense(6, s, t, dis)
        pairs = {(i, j): a[i, j] for i, j in zip(s.tolist(), t.tolist())}
        for (a, b), c in pairs.items():
            assert pairs.get((b, a)) == pytest.approx(c)

    def test_sym_norm_adj_spectral_bound(self):
        """Symmetric normalization keeps the spectral radius ≤ 1."""
        rng = np.random.default_rng(1)
        src = rng.integers(0, 20, 60)
        dst = rng.integers(0, 20, 60)
        a = _sym_norm_dense(20, *sym_norm_adj(20, src, dst))
        assert np.abs(np.linalg.eigvalsh((a + a.T) / 2)).max() <= 1 + 1e-9

    def test_sym_norm_op_matches_dense(self):
        """``Â·v`` as two scalings around the gather-add equals the assembled ``Â`` times ``v``."""
        rng = np.random.default_rng(2)
        src, dst = rng.integers(0, 20, 60), rng.integers(0, 20, 60)
        v = rng.standard_normal((20, 3))
        a = _sym_norm_dense(20, *sym_norm_adj(20, src, dst))
        assert np.allclose(sym_norm_op(20, src, dst)(v), a @ v)

    def test_row_norm_attr(self):
        r = row_norm_attr(
            3, 2, np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1.0, 3.0, 2.0])
        )
        assert np.allclose(r[0], [0.25, 0.75])
        assert np.allclose(r[1], [0, 1])
        assert np.allclose(r[2], [0, 0])

    def test_smoothed_attrs_mixes_neighbors(self):
        # 0-1 edge: after smoothing, node 0 sees node 1's attribute
        k = smoothed_attrs(
            2, 2, np.array([0]), np.array([1]),
            np.array([0, 1]), np.array([0, 1]), np.ones(2),
        )
        assert k[0, 1] > 0 and k[1, 0] > 0


def _link_auc(emb, split, directed=True):
    s = emb.link_scores(split.test_src, split.test_dst)
    return roc_auc(split.test_label, s)


class TestEmbeddingBaselines:
    def test_nrp_beats_random(self, g, lsplit):
        emb = nrp_lite(g.n, lsplit.train_src, lsplit.train_dst, k=32, seed=0)
        assert emb.xf.shape == (g.n, 16)
        # topology-only PPR on a tiny attribute-driven graph: weak but
        # reliably above chance (the paper's NRP row shape on small data)
        assert _link_auc(emb, lsplit) > 0.53

    def test_nrp_deterministic(self, g, lsplit):
        e1 = nrp_lite(g.n, lsplit.train_src, lsplit.train_dst, k=16, seed=1)
        e2 = nrp_lite(g.n, lsplit.train_src, lsplit.train_dst, k=16, seed=1)
        assert np.array_equal(e1.xf, e2.xf)

    def test_can_beats_random_on_links(self, g, lsplit):
        emb = can_lite(
            g.n, g.d, lsplit.train_src, lsplit.train_dst,
            g.node, g.attr, g.weight, k=32,
        )
        assert _link_auc(emb, lsplit) > 0.6

    def test_can_attr_inference_beats_random(self, g):
        s = attribute_split(g, seed=1)
        emb = can_lite(g.n, g.d, g.src, g.dst, s.train_node, s.train_attr,
                       s.train_weight, k=32)
        sc = emb.attr_scores(s.test_node, s.test_attr)
        assert roc_auc(s.test_label, sc) > 0.6

    def test_bane_embedding_is_binary(self, g, lsplit):
        emb = bane_lite(
            g.n, g.d, lsplit.train_src, lsplit.train_dst,
            g.node, g.attr, g.weight, k=16,
        )
        assert set(np.unique(emb.x)) <= {-1.0, 1.0}
        assert _link_auc(emb, lsplit) > 0.55

    def test_tadw_beats_random(self, g, lsplit):
        emb = tadw_lite(
            g.n, g.d, lsplit.train_src, lsplit.train_dst,
            g.node, g.attr, g.weight, k=32,
        )
        assert emb.x.shape == (g.n, 32)
        assert _link_auc(emb, lsplit) > 0.55

    def test_netmf_beats_random(self, g, lsplit):
        emb = netmf_lite(g.n, lsplit.train_src, lsplit.train_dst, k=32)
        assert _link_auc(emb, lsplit) > 0.55

    def test_bla_attr_inference(self, g):
        s = attribute_split(g, seed=2)
        sc = bla_lite(
            g.n, g.d, g.src, g.dst, s.train_node, s.train_attr, s.train_weight
        )
        scores = sc.attr_scores(s.test_node, s.test_attr)
        assert roc_auc(s.test_label, scores) > 0.6


class TestScaleCaps:
    """TADW/NetMF build Θ(n²) matrices — must refuse at scale (paper's "-")."""

    def test_tadw_cap(self):
        with pytest.raises(MethodTooExpensive):
            tadw_lite(
                10_000, 5, np.array([0]), np.array([1]),
                np.array([0]), np.array([0]), np.ones(1),
            )

    def test_netmf_cap(self):
        with pytest.raises(MethodTooExpensive):
            netmf_lite(10_000, np.array([0]), np.array([1]))


class TestFeatureInterfaces:
    def test_node_features_normalized(self, g, lsplit):
        for emb in (
            nrp_lite(g.n, lsplit.train_src, lsplit.train_dst, k=16),
            netmf_lite(g.n, lsplit.train_src, lsplit.train_dst, k=16),
        ):
            feats = emb.node_features()
            norms = np.linalg.norm(feats, axis=1)
            # forward/backward concat gives norm √2; single embeddings norm 1
            assert np.all((norms < 1.5) & (norms >= 0))

    def test_cosine_scores_bounded(self, g, lsplit):
        emb = netmf_lite(g.n, lsplit.train_src, lsplit.train_dst, k=16)
        cs = emb.link_scores_cosine(lsplit.test_src, lsplit.test_dst)
        assert (np.abs(cs) <= 1 + 1e-9).all()
