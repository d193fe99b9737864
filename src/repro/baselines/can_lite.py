"""CAN-lite — co-embedding of nodes and attributes (substitute for [27]).

CAN embeds nodes *and* attributes into a shared space with a
graph-convolutional VAE; it is the paper's only competitor capable of
attribute inference. This substitute keeps the defining interface and
signal path — attributes diffused over the symmetrically-normalized
(undirected) topology, then a joint low-rank co-embedding via SVD so
that ``node_emb · attr_emb^T`` reconstructs the smoothed node-attribute
matrix — replacing the VAE encoder with its linear skeleton
(DESIGN.md § baseline substitutions). As in the paper, it is blind to
edge direction, which is where PANE's forward/backward split wins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.common import NodeEmbedding, smoothed_attrs
from repro.linalg.randsvd import rand_svd


@dataclass
class CanEmbedding(NodeEmbedding):
    """Shared-space node and attribute embeddings."""

    y: np.ndarray  # (d, k) attribute embeddings; ``x`` is (n, k)

    def attr_scores(self, nodes: np.ndarray, attrs: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.x[nodes], self.y[attrs])


def can_lite(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    k: int = 32,
    seed: int = 0,
) -> CanEmbedding:
    """Rank-k co-embedding of the hop-smoothed node-attribute matrix.

    CAN's latent space is the full budget k for nodes *and* attributes
    (the paper gives every method the same k), unlike PANE which splits
    k across forward/backward vectors.
    """
    k2 = max(1, k)
    kmat = smoothed_attrs(n, d, src, dst, node, attr, weight)
    u, s, v = rand_svd(kmat, k2, t=5, seed=seed)
    sqrt_s = np.sqrt(np.diag(s))
    return CanEmbedding(x=u * sqrt_s[None, :], y=v * sqrt_s[None, :])
