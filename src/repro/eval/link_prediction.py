"""Table 5 harness — link prediction AUC/AP per (method, dataset).

Protocol (Section 5.3): remove 30% of edges, train every method on the
residual graph G' (attributes fully visible), score the held-out edges
against equally many sampled non-edges. PANE/NRP score directed pairs
with their forward·backward products (Equation 22); undirected methods
get both inner-product and cosine scorers with the best AUC reported,
mirroring the paper's best-of-four scoring rule. For undirected
datasets, directed methods use p(u,v)+p(v,u).
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.common import MethodTooExpensive, NodeEmbedding
from repro.datasets import AttributedGraph
from repro.eval.attr_inference import TaskResult
from repro.eval.methods import embed
from repro.eval.metrics import average_precision, roc_auc
from repro.eval.splits import LinkSplit, link_split

LINK_METHODS = (
    "NRP-lite",
    "NetMF-lite (stand-in)",
    "TADW",
    "BANE-lite",
    "CAN-lite",
    "PANE (single thread)",
    "PANE (parallel)",
)


def _directed_scores(emb, split: LinkSplit, directed: bool) -> np.ndarray:
    """Forward·backward scoring; symmetrized on undirected datasets."""
    s = emb.link_scores(split.test_src, split.test_dst)
    if not directed:
        s = s + emb.link_scores(split.test_dst, split.test_src)
    return s


def _best_undirected_scores(emb: NodeEmbedding, split: LinkSplit, labels) -> np.ndarray:
    """Best-of inner-product vs cosine, by AUC (paper's best-of-four rule)."""
    inner = emb.link_scores(split.test_src, split.test_dst)
    cos = emb.link_scores_cosine(split.test_src, split.test_dst)
    return inner if roc_auc(labels, inner) >= roc_auc(labels, cos) else cos


def run_link_prediction(
    g: AttributedGraph,
    method: str,
    spark: SparkSession | None = None,
    k: int = 64,
    alpha: float = 0.5,
    eps: float = 0.015,
    nb: int = 8,
    seed: int = 0,
) -> TaskResult | None:
    """Score one (method, dataset) cell of Table 5.

    Returns ``None`` when the method cannot run at this scale
    (:class:`MethodTooExpensive`) — rendered as the paper's "-" cell.
    """
    if method not in LINK_METHODS:
        raise ValueError(f"unknown link-prediction method {method!r}")
    split = link_split(g, seed=seed)
    t0 = time.perf_counter()
    try:
        model = embed(
            replace(g, src=split.train_src, dst=split.train_dst),
            method, spark, k, alpha, eps, nb, seed,
        )
    except MethodTooExpensive:
        return None
    # undirected embeddings offer a cosine scorer; PANE and NRP do not
    if hasattr(model, "link_scores_cosine"):
        scores = _best_undirected_scores(model, split, split.test_label)
    else:
        scores = _directed_scores(model, split, g.directed)
    dt = time.perf_counter() - t0
    return TaskResult(
        method=method,
        dataset=g.name,
        auc=roc_auc(split.test_label, scores),
        ap=average_precision(split.test_label, scores),
        seconds=dt,
    )
