"""End-to-end PANE drivers: Algorithm 1 (single thread) / Algorithm 5 (parallel).

The single-thread version is the NumPy reference implementation — it is
both the paper's "PANE (single thread)" table row and the semantic
oracle the Spark version is tested against. The parallel version is the
PySpark reproduction: node/attribute sets are partitioned into ``nb``
blocks (Alg. 5 Lines 1-2 — here ``block = id % nb`` Spark partitions),
PAPMI computes the affinities, SMGreedyInit seeds and PSVDCCD refines.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.affinity import apmi_numpy, num_iterations, papmi_from_states
from repro.core.ccd import collect_embeddings, psvdccd_spark, svdccd_numpy
from repro.core.greedy_init import greedy_init_numpy, sm_greedy_init_spark


@dataclass
class PaneEmbedding:
    """PANE's output: forward/backward node embeddings + attribute embeddings.

    ``xf, xb`` are (n, k/2); ``y`` is (d, k/2). Scoring helpers implement
    the paper's prediction rules: Equation (21) for attribute inference
    and Equation (22) for link prediction (with the exact ``Y^T Y``
    contraction rather than the ``≈ I`` shortcut).
    """

    xf: np.ndarray
    xb: np.ndarray
    y: np.ndarray

    def attr_scores(self, nodes: np.ndarray, attrs: np.ndarray) -> np.ndarray:
        """Equation (21): p(v, r) = Xf[v]·Y[r] + Xb[v]·Y[r]."""
        yv = self.y[attrs]
        return np.einsum("ij,ij->i", self.xf[nodes] + self.xb[nodes], yv)

    def link_scores(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Equation (22): p(u, v) = Xf[u] · (Y^T Y) · Xb[v]^T."""
        m = self.y.T @ self.y
        return np.einsum("ij,ij->i", self.xf[src] @ m, self.xb[dst])

    def node_features(self) -> np.ndarray:
        """Section 5.4's classifier input: L2-normalized [Xf ‖ Xb]."""

        def norm(x: np.ndarray) -> np.ndarray:
            s = np.linalg.norm(x, axis=1, keepdims=True)
            return np.divide(x, s, out=np.zeros_like(x), where=s > 0)

        return np.hstack([norm(self.xf), norm(self.xb)])


def check_inputs(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    k: int,
    alpha: float,
    eps: float,
    nb: int = 1,
) -> None:
    """Raise ``ValueError`` on input that either pipeline would mis-handle."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if len(src) != len(dst):
        raise ValueError(f"src and dst lengths differ: {len(src)} vs {len(dst)}")
    if not len(node) == len(attr) == len(weight):
        raise ValueError(
            f"node, attr and weight lengths differ: {len(node)}, {len(attr)}, {len(weight)}"
        )
    for name, ids, hi in (("src", src, n), ("dst", dst, n), ("node", node, n), ("attr", attr, d)):
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu":
            raise ValueError(f"{name} ids must be integers, got dtype {ids.dtype}")
        if len(ids) and (np.min(ids) < 0 or np.max(ids) >= hi):
            raise ValueError(f"{name} ids must lie in [0, {hi})")
    weight = np.asarray(weight)
    if not np.all((weight > 0) & np.isfinite(weight)):
        raise ValueError("attribute weights must be finite and > 0")
    if not isinstance(k, numbers.Integral) or not isinstance(nb, numbers.Integral):
        raise ValueError(f"k and nb must be integers, got k={k!r}, nb={nb!r}")
    if k < 2 or k % 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    if nb < 1:
        raise ValueError(f"nb must be >= 1, got {nb}")
    if not (0 < alpha < 1 and 0 < eps < 1):
        raise ValueError(f"need 0 < alpha < 1 and 0 < eps < 1, got alpha={alpha}, eps={eps}")


def pane_numpy(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    k: int = 32,
    alpha: float = 0.5,
    eps: float = 0.015,
    seed: int = 0,
) -> PaneEmbedding:
    """Algorithm 1: APMI → GreedyInit → SVDCCD, all in NumPy."""
    check_inputs(n, d, src, dst, node, attr, weight, k, alpha, eps)
    t = num_iterations(eps, alpha)
    f, b = apmi_numpy(n, d, src, dst, node, attr, weight, alpha, t)
    xf, xb, y = greedy_init_numpy(f, b, k // 2, t, seed)
    xf, xb, y = svdccd_numpy(f, b, xf, xb, y, t)
    return PaneEmbedding(xf, xb, y)


def pane_spark(
    spark: SparkSession,
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    k: int = 32,
    alpha: float = 0.5,
    eps: float = 0.015,
    nb: int = 8,
    seed: int = 0,
) -> PaneEmbedding:
    """Algorithm 5: PAPMI → SMGreedyInit → PSVDCCD on Spark DataFrames.

    Inputs arrive as COO arrays (the datasets module's native format) and
    go straight to PAPMI, which ships them to its tasks. From PAPMI on,
    each node block is one state row in one partition, and every stage is
    a narrow map over those rows. The final embeddings are
    collected to NumPy (n×k/2 each — the same driver-resident output the
    paper writes to disk).
    """
    check_inputs(n, d, src, dst, node, attr, weight, k, alpha, eps, nb)
    t = num_iterations(eps, alpha)
    k2 = k // 2
    state, _ = papmi_from_states(spark, n, d, src, dst, node, attr, weight, alpha, t, nb)
    state, y = sm_greedy_init_spark(state, d, k2, t, seed)
    state, y = psvdccd_spark(state, y, t)
    xf, xb = collect_embeddings(state, n, k2)
    return PaneEmbedding(xf, xb, y)
