"""Table 4 harness — attribute inference AUC/AP per (method, dataset).

Protocol (Section 5.2): split R's nonzeros 80/20, train every method on
the 80% *training associations only* (the topology is fully visible, as
in the paper), then score each held-out pair against an equal number of
sampled negatives. PANE scores with Equation (21); CAN-lite with its
co-embedding inner product; BLA-lite with its propagated mass.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

from pyspark.sql import SparkSession

from repro.datasets import AttributedGraph
from repro.eval.methods import embed
from repro.eval.metrics import average_precision, roc_auc
from repro.eval.splits import attribute_split


@dataclass
class TaskResult:
    """One table cell: metrics plus the wall time that produced them."""

    method: str
    dataset: str
    auc: float
    ap: float
    seconds: float


ATTR_METHODS = ("BLA-lite", "CAN-lite", "PANE (single thread)", "PANE (parallel)")


def run_attr_inference(
    g: AttributedGraph,
    method: str,
    spark: SparkSession | None = None,
    k: int = 64,
    alpha: float = 0.5,
    eps: float = 0.015,
    nb: int = 8,
    seed: int = 0,
) -> TaskResult:
    """Score one (method, dataset) cell of Table 4."""
    if method not in ATTR_METHODS:
        raise ValueError(f"unknown attribute-inference method {method!r}")
    split = attribute_split(g, seed=seed)
    # every method sees the full EV and 80% of ER
    train = replace(
        g, node=split.train_node, attr=split.train_attr, weight=split.train_weight
    )
    t0 = time.perf_counter()
    model = embed(train, method, spark, k, alpha, eps, nb, seed)
    scores = model.attr_scores(split.test_node, split.test_attr)
    dt = time.perf_counter() - t0
    return TaskResult(
        method=method,
        dataset=g.name,
        auc=roc_auc(split.test_label, scores),
        ap=average_precision(split.test_label, scores),
        seconds=dt,
    )
