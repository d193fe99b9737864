"""Shared sparse kernels and embedding containers for the baselines."""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.linalg.coo import coo_dense, coo_plan, coo_spmm, normalize_rows, normalize_rows_l2

# Hops of attribute smoothing in the CAN/BANE-class baselines.
SMOOTHING_HOPS = 2


class MethodTooExpensive(Exception):
    """Raised when a baseline's faithful form cannot run at this scale.

    Mirrors the paper's "-" table cells: TADW/NetMF-class methods
    materialize Θ(n²) proximity matrices and are reported as failing on
    the large datasets; we enforce the same cap instead of silently
    switching algorithms.
    """


@dataclass
class NodeEmbedding:
    """Topology-only embedding (one vector per node; no attribute side)."""

    x: np.ndarray  # (n, k)

    def link_scores(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.x[src], self.x[dst])

    def link_scores_cosine(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        xn = normalize_rows_l2(self.x)
        return np.einsum("ij,ij->i", xn[src], xn[dst])

    def node_features(self) -> np.ndarray:
        return normalize_rows_l2(self.x)


def undirected_edges(
    n: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each edge in both directions, each pair once, ordered by ``(s, t)``.

    The undirected baselines all ignore edge direction, which is exactly
    the handicap the paper's experiments expose.
    """
    s = np.concatenate([src, dst])
    t = np.concatenate([dst, src])
    _, ix = np.unique(s * n + t, return_index=True)
    return s[ix], t[ix]


def sym_norm_adj(
    n: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Â = D̃^{-1/2} (A_sym + I) D̃^{-1/2}`` (GCN-style smoothing) as ``(s, t, dis)``.

    ``(s, t)`` is the COO pattern of ``A_sym + I`` and ``dis`` the
    diagonal of ``D̃^{-1/2}``; every degree is ≥ 1, counting the self-loop.
    """
    s, t = undirected_edges(n, src, dst)
    s = np.concatenate([s, np.arange(n, dtype=s.dtype)])
    t = np.concatenate([t, np.arange(n, dtype=t.dtype)])
    return s, t, 1.0 / np.sqrt(np.bincount(s, minlength=n))


def sym_norm_op(n: int, src: np.ndarray, dst: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``v ↦ Â·v``: the pattern's gather-add between two ``D̃^{-1/2}`` scalings."""
    s, t, dis = sym_norm_adj(n, src, dst)
    plan, dis = coo_plan(s, t), dis[:, None]
    return lambda v: dis * coo_spmm(plan, dis * v, n)


def row_norm_attr(
    n: int, d: int, node: np.ndarray, attr: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Dense row-normalized attribute matrix (each node's attr distribution)."""
    return normalize_rows(coo_dense(n, d, node, attr, weight))


def smoothed_attrs(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """``Â^SMOOTHING_HOPS · R_row`` — the graph-smoothed attribute matrix.

    The common core of the CAN/BANE-class baselines: attribute signal
    diffused a few hops over the (undirected, normalized) topology.
    """
    smooth = sym_norm_op(n, src, dst)
    k = row_norm_attr(n, d, node, attr, weight)
    for _ in range(SMOOTHING_HOPS):
        k = smooth(k)
    return k
