"""Integration tests for the Table 4 / Table 5 / Figure 2 harnesses."""
import numpy as np
import pytest

from repro.datasets import load
from repro.eval.attr_inference import ATTR_METHODS, run_attr_inference
from repro.eval.classification import (
    classification_curve,
    method_features,
)
from repro.eval.link_prediction import LINK_METHODS, run_link_prediction


def _cap_tadw(monkeypatch):
    """Make the dispatcher's TADW refuse every graph (cap of one node)."""
    import repro.baselines.tadw as tadw_mod

    monkeypatch.setattr(tadw_mod, "MAX_NODES", 1)


@pytest.fixture(scope="module")
def g():
    return load("cora", profile="test")


@pytest.fixture(scope="module")
def g_und():
    return load("facebook", profile="test")


class TestAttrInferenceHarness:
    @pytest.mark.parametrize(
        "method", [m for m in ATTR_METHODS if m != "PANE (parallel)"]
    )
    def test_methods_run_and_beat_chance(self, g, method):
        r = run_attr_inference(g, method, k=32)
        assert r.dataset == "cora" and r.method == method
        assert 0.55 < r.auc <= 1.0
        assert 0.5 < r.ap <= 1.0
        assert r.seconds > 0

    def test_parallel_close_to_single(self, spark, g):
        r_st = run_attr_inference(g, "PANE (single thread)", k=32)
        r_par = run_attr_inference(g, "PANE (parallel)", spark=spark, k=32, nb=4)
        assert abs(r_st.auc - r_par.auc) < 0.1

    def test_unknown_method_raises(self, g):
        with pytest.raises(ValueError):
            run_attr_inference(g, "DeepMagic")

    def test_undirected_dataset(self, g_und):
        r = run_attr_inference(g_und, "PANE (single thread)", k=32)
        assert r.auc > 0.55


class TestLinkPredictionHarness:
    @pytest.mark.parametrize(
        "method", [m for m in LINK_METHODS if m != "PANE (parallel)"]
    )
    def test_methods_run_and_beat_chance(self, g, method):
        r = run_link_prediction(g, method, k=32)
        assert r is not None
        assert 0.52 < r.auc <= 1.0

    def test_parallel_close_to_single(self, spark, g):
        r_st = run_link_prediction(g, "PANE (single thread)", k=32)
        r_par = run_link_prediction(g, "PANE (parallel)", spark=spark, k=32, nb=4)
        assert abs(r_st.auc - r_par.auc) < 0.1

    def test_too_expensive_renders_as_dash(self, monkeypatch):
        """A method over its scale cap yields None — the paper's "-" cell."""
        from repro.eval import link_prediction as lp

        _cap_tadw(monkeypatch)
        g = load("cora", profile="test")
        assert lp.run_link_prediction(g, "TADW", k=16) is None

    def test_undirected_dataset_symmetrized_scoring(self, g_und):
        r = run_link_prediction(g_und, "PANE (single thread)", k=32)
        assert r.auc > 0.55


class TestClassificationHarness:
    def test_pane_features_classify_communities(self, g):
        feats = method_features(g, "PANE (single thread)", k=32)
        curve = classification_curve(
            feats, g.labels, g.n_labels, fractions=(0.5,), repeats=2
        )
        micro, macro = curve[0.5]
        # communities are attribute-defined; chance is 1/n_labels
        assert micro > 1.5 / g.n_labels

    @pytest.mark.parametrize("method", ["NRP-lite", "CAN-lite", "BANE-lite"])
    def test_baseline_features_shape(self, g, method):
        feats = method_features(g, method, k=32)
        assert feats.shape[0] == g.n

    def test_too_expensive_returns_none(self, monkeypatch, g):
        """A capped method has no features — the paper's "-" cell."""
        _cap_tadw(monkeypatch)
        assert method_features(g, "TADW", k=16) is None

    def test_parallel_features(self, spark, g):
        feats = method_features(g, "PANE (parallel)", spark=spark, k=32, nb=4)
        assert feats.shape == (g.n, 32)

    def test_pane_beats_topology_only_on_attribute_communities(self, g):
        """The paper's Figure 2 shape: ANE ≥ topology-only embeddings."""
        f_pane = method_features(g, "PANE (single thread)", k=32)
        f_nrp = method_features(g, "NRP-lite", k=32)
        c_pane = classification_curve(
            f_pane, g.labels, g.n_labels, fractions=(0.7,), repeats=3
        )[0.7][0]
        c_nrp = classification_curve(
            f_nrp, g.labels, g.n_labels, fractions=(0.7,), repeats=3
        )[0.7][0]
        assert c_pane > c_nrp


class TestMethodNames:
    """Each harness accepts only its own methods, though one dispatcher
    behind them knows every method name."""

    @pytest.mark.parametrize(
        "harness, method",
        [
            (run_link_prediction, "DeepMagic"),
            (run_link_prediction, "BLA-lite"),
            (method_features, "DeepMagic"),
            (method_features, "BLA-lite"),
            (run_attr_inference, "NRP-lite"),
        ],
        ids=["link-unknown", "link-BLA-lite", "features-unknown",
             "features-BLA-lite", "attr-NRP-lite"],
    )
    def test_method_outside_harness_raises(self, g, harness, method):
        with pytest.raises(ValueError):
            harness(g, method)
