"""Tests for the Section 5.2/5.3 protocol splits."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import load
from repro.eval.splits import attribute_split, link_split
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def graph():
    return load("cora", profile="test")


@pytest.fixture(scope="module")
def und_graph():
    return load("facebook", profile="test")


class TestAttributeSplit:
    def test_proportions(self, graph):
        s = attribute_split(graph, test_frac=0.2, seed=0)
        n_pos = int(s.test_label.sum())
        assert n_pos == round(0.2 * graph.n_assoc)
        assert len(s.train_node) == graph.n_assoc - n_pos
        assert (s.test_label == 0).sum() == n_pos  # equal negatives

    def test_train_test_disjoint(self, graph):
        s = attribute_split(graph, seed=1)
        train = set(zip(s.train_node.tolist(), s.train_attr.tolist()))
        pos = s.test_label == 1
        test_pos = set(
            zip(s.test_node[pos].tolist(), s.test_attr[pos].tolist())
        )
        assert not (train & test_pos)

    def test_negatives_not_in_r(self, graph):
        s = attribute_split(graph, seed=2)
        all_assoc = set(zip(graph.node.tolist(), graph.attr.tolist()))
        neg = s.test_label == 0
        for v, r in zip(s.test_node[neg].tolist(), s.test_attr[neg].tolist()):
            assert (v, r) not in all_assoc

    def test_deterministic(self, graph):
        s1 = attribute_split(graph, seed=3)
        s2 = attribute_split(graph, seed=3)
        assert np.array_equal(s1.test_node, s2.test_node)
        assert np.array_equal(s1.train_attr, s2.train_attr)

    def test_union_is_whole_r(self, graph):
        s = attribute_split(graph, seed=4)
        pos = s.test_label == 1
        got = sorted(
            list(zip(s.train_node.tolist(), s.train_attr.tolist()))
            + list(zip(s.test_node[pos].tolist(), s.test_attr[pos].tolist()))
        )
        assert got == sorted(zip(graph.node.tolist(), graph.attr.tolist()))

    def test_split_counts_vs_duckdb(self, graph, spark):
        """Oracle check: per-node training counts = 80% split of R."""
        s = attribute_split(graph, seed=5)
        pdf = pd.DataFrame({"node": s.train_node, "attr": s.train_attr})
        sdf = spark.createDataFrame(pdf).groupBy("node").count()
        assert_equivalent(
            sdf,
            "SELECT node, COUNT(*) AS count FROM train GROUP BY node",
            train=pdf,
        )


class TestLinkSplit:
    def test_proportions_directed(self, graph):
        s = link_split(graph, test_frac=0.3, seed=0)
        n_pos = int(s.test_label.sum())
        assert n_pos == round(0.3 * graph.m)
        assert len(s.train_src) == graph.m - n_pos
        assert (s.test_label == 0).sum() == n_pos

    def test_residual_plus_removed_is_graph(self, graph):
        s = link_split(graph, seed=1)
        pos = s.test_label == 1
        got = sorted(
            list(zip(s.train_src.tolist(), s.train_dst.tolist()))
            + list(zip(s.test_src[pos].tolist(), s.test_dst[pos].tolist()))
        )
        assert got == sorted(zip(graph.src.tolist(), graph.dst.tolist()))

    def test_negatives_are_nonedges(self, graph):
        s = link_split(graph, seed=2)
        edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
        neg = s.test_label == 0
        for a, b in zip(s.test_src[neg].tolist(), s.test_dst[neg].tolist()):
            assert (a, b) not in edges and a != b

    def test_undirected_removes_both_directions(self, und_graph):
        s = link_split(und_graph, seed=3)
        train = set(zip(s.train_src.tolist(), s.train_dst.tolist()))
        pos = s.test_label == 1
        for a, b in zip(s.test_src[pos].tolist(), s.test_dst[pos].tolist()):
            assert (a, b) not in train and (b, a) not in train

    def test_undirected_residual_symmetric(self, und_graph):
        s = link_split(und_graph, seed=4)
        train = set(zip(s.train_src.tolist(), s.train_dst.tolist()))
        assert all((b, a) in train for a, b in train)

    def test_undirected_counts(self, und_graph):
        s = link_split(und_graph, test_frac=0.3, seed=5)
        n_und = und_graph.m // 2
        assert int(s.test_label.sum()) == round(0.3 * n_und)
        assert len(s.train_src) == 2 * (n_und - round(0.3 * n_und))

    def test_deterministic(self, graph):
        s1, s2 = link_split(graph, seed=6), link_split(graph, seed=6)
        assert np.array_equal(s1.test_src, s2.test_src)
        assert np.array_equal(s1.train_dst, s2.train_dst)

    def test_different_seeds_differ(self, graph):
        s1, s2 = link_split(graph, seed=7), link_split(graph, seed=8)
        assert not np.array_equal(s1.test_src, s2.test_src)
