"""NetMF-lite — log-PMI matrix factorization of random-walk proximity.

Qiu et al. [33] showed the DeepWalk/LINE/node2vec SkipGram family is
equivalent to factorizing ``log(vol(G)/b · (Σ_{q=1..T} P̃^q)/T · D^{-1})``
over the undirected graph. This module is the repo's single honest
representative of the paper's undirected, attribute-blind neural
baselines (STNE / ARGA / DGI / PRRE / GATNE / LQANR — see DESIGN.md
§ baseline substitutions); it is reported as "NetMF-lite (stand-in)".

Like TADW, the proximity matrix is Θ(n²), so large graphs raise
:class:`MethodTooExpensive` — matching the "-" cells in Table 5.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.common import MethodTooExpensive, NodeEmbedding, undirected_edges
from repro.linalg.randsvd import rand_svd

MAX_NODES = 6000  # the largest n whose n×n proximity matrix is built
WINDOW = 3  # T: walk lengths 1..T in the proximity sum
NEG = 1.0  # b: SkipGram's negative samples per positive


def netmf_lite(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    k: int = 32,
    seed: int = 0,
) -> NodeEmbedding:
    """Rank-k factorization of the truncated log-PMI proximity matrix."""
    if n > MAX_NODES:
        raise MethodTooExpensive(
            f"NetMF materializes an n×n proximity matrix; n={n} > cap {MAX_NODES}"
        )
    s, t = undirected_edges(n, src, dst)  # SkipGram methods are undirected
    a = np.zeros((n, n))
    a[s, t] = 1.0
    deg = a.sum(axis=1)
    vol = float(deg.sum())
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    p = a * inv_deg[:, None]
    acc = np.zeros_like(p)
    cur = np.eye(n)
    for _ in range(WINDOW):
        cur = cur @ p
        acc += cur
    m = (vol / (NEG * WINDOW)) * acc * inv_deg[None, :]
    logm = np.log(np.maximum(m, 1.0))  # log of the positive part (NetMF's max(·,1))
    u, sig, _ = rand_svd(logm, k, t=5, seed=seed)
    return NodeEmbedding(x=u * np.sqrt(np.diag(sig))[None, :])
