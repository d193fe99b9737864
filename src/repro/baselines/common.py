"""Shared sparse kernels and embedding containers for the baselines."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.coo import coo_plan, coo_spmm


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
        norm = np.linalg.norm(self.x, axis=1)
        norm = np.where(norm > 0, norm, 1.0)
        xn = self.x / norm[:, None]
        return np.einsum("ij,ij->i", xn[src], xn[dst])

    def node_features(self) -> np.ndarray:
        s = np.linalg.norm(self.x, axis=1, keepdims=True)
        return np.divide(self.x, s, out=np.zeros_like(self.x), where=s > 0)


def spmv_coo(
    out_idx: np.ndarray, in_idx: np.ndarray, w: np.ndarray, v: np.ndarray, n: int
) -> np.ndarray:
    """``out[out_idx] += w · v[in_idx]`` — COO sparse-times-dense (reduceat)."""
    return coo_spmm(coo_plan(out_idx, in_idx, w), v, n)


def sym_norm_adj(
    n: int, src: np.ndarray, dst: np.ndarray, self_loops: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO of ``Â = D̃^{-1/2} (A_sym + I) D̃^{-1/2}`` (GCN-style smoothing).

    Symmetrizes directed input first — the undirected baselines all
    ignore edge direction, which is exactly the handicap the paper's
    experiments expose.
    """
    s = np.concatenate([src, dst])
    t = np.concatenate([dst, src])
    eid = s * n + t
    _, ix = np.unique(eid, return_index=True)
    s, t = s[ix], t[ix]
    if self_loops:
        s = np.concatenate([s, np.arange(n, dtype=s.dtype)])
        t = np.concatenate([t, np.arange(n, dtype=t.dtype)])
    deg = np.zeros(n)
    np.add.at(deg, s, 1.0)
    w = 1.0 / np.sqrt(deg[s] * deg[t])
    return s, t, w


def row_norm_attr(
    n: int, d: int, node: np.ndarray, attr: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Dense row-normalized attribute matrix (each node's attr distribution)."""
    r = np.zeros((n, d))
    np.add.at(r, (node, attr), weight)
    s = r.sum(axis=1, keepdims=True)
    return np.divide(r, s, out=np.zeros_like(r), where=s > 0)


def smoothed_attrs(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    hops: int = 2,
) -> np.ndarray:
    """``Â^hops · R_row`` — the graph-smoothed attribute matrix.

    The common core of the CAN/BANE-class baselines: attribute signal
    diffused a few hops over the (undirected, normalized) topology.
    """
    s, t, w = sym_norm_adj(n, src, dst)
    k = row_norm_attr(n, d, node, attr, weight)
    for _ in range(hops):
        k = spmv_coo(s, t, w, k, n)
    return k
