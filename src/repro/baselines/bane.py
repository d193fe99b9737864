"""BANE-lite — binarized attributed network embedding (substitute for [47]).

BANE factorizes a fused topology+attribute (Weisfeiler-Lehman) proximity
matrix under a binary constraint, trading accuracy for space — the
paper's experiments show it consistently below real-valued methods.
This substitute keeps exactly that trade-off: alternating least squares
on the hop-smoothed node-attribute matrix with a ``sign(·)`` projection
on the node factor, so the node embedding is in {−1, +1}^k.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.common import NodeEmbedding, smoothed_attrs
from repro.linalg.randsvd import rand_svd

RIDGE = 0.1  # λ of the ridge solve for the attribute factor
ITERS = 8  # alternating rounds


def bane_lite(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    k: int = 32,
    seed: int = 0,
) -> NodeEmbedding:
    """Binary-constrained ALS on the smoothed node-attribute matrix."""
    kmat = smoothed_attrs(n, d, src, dst, node, attr, weight)
    u, s, v = rand_svd(kmat, k, t=5, seed=seed)
    x = np.sign(u)
    x[x == 0] = 1.0
    y = v * np.diag(s)[None, :]  # (d, k) real-valued attribute factor
    for _ in range(ITERS):
        # fix X: ridge solve for Y, then re-project X onto {−1,+1}.
        y = np.linalg.solve(x.T @ x + RIDGE * np.eye(x.shape[1]), x.T @ kmat).T
        x = np.sign(kmat @ y)
        x[x == 0] = 1.0
    return NodeEmbedding(x=x)
