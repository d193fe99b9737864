"""NRP-lite — homogeneous network embedding via PPR factorization [49].

NRP (the paper's strongest topology-only competitor) factorizes the
personalized-PageRank proximity matrix into forward/backward embeddings
for directed graphs, with per-node reweighting. This implementation
keeps the defining structure — truncated-PPR proximity, directed
forward/backward factors via a two-sided randomized sketch, the
``p(u,v) = Xf[u]·Xb[v]`` link score, and NRP's node-reweighting
refinement (alternating least squares on per-node forward/backward
weights so predicted out-/in-degrees match the graph's). Attributes are
ignored by construction, which is the comparison the paper draws.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.coo import CooPlan, coo_plan, coo_spmm, walk_weights


@dataclass
class NrpEmbedding:
    """Directed forward/backward node embeddings."""

    xf: np.ndarray
    xb: np.ndarray

    def link_scores(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.xf[src], self.xb[dst])

    def node_features(self) -> np.ndarray:
        def norm(x: np.ndarray) -> np.ndarray:
            s = np.linalg.norm(x, axis=1, keepdims=True)
            return np.divide(x, s, out=np.zeros_like(x), where=s > 0)

        return np.hstack([norm(self.xf), norm(self.xb)])


def nrp_lite(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    k: int = 32,
    alpha: float = 0.15,
    t: int = 10,
    seed: int = 0,
) -> NrpEmbedding:
    """Sketched rank-k/2 factorization of ``Π = α Σ (1-α)^ℓ P^ℓ``.

    Range-find ``Q ≈ range(Π Ω)``, then form ``B = Q^T Π`` through the
    transpose recurrence (both sides cost O(m·k·t), never touching an
    n×n matrix), and SVD the small ``B``.
    """
    rng = np.random.default_rng(seed)
    k2 = max(1, k // 2)
    q_dim = min(n, k2 + 8)
    w = walk_weights(n, src)
    fwd, bwd = coo_plan(src, dst, w), coo_plan(dst, src, w)

    def ppr_apply(v: np.ndarray, plan: CooPlan) -> np.ndarray:
        """``Π̃ v`` (``Π̃^T v`` with the backward plan) by the truncated-series recurrence.

        The series starts at ℓ=1 (Π̃ = Π − α·I): like NRP/STRAP, we
        factorize the *off-diagonal* proximity — the α·I self-mass is a
        full-rank component that would otherwise eat most of the sketch's
        capacity while carrying zero link information.
        """
        acc = np.zeros_like(v)
        cur = v
        for ell in range(1, t + 1):
            cur = coo_spmm(plan, cur, n)
            acc += alpha * (1 - alpha) ** ell * cur
        return acc

    omega = rng.standard_normal((n, q_dim))
    q, _ = np.linalg.qr(ppr_apply(omega, fwd))
    b = ppr_apply(q, bwd).T  # Q^T Π  (q_dim × n)
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    r = min(k2, len(s))
    scale = np.sqrt(s[:r])
    xf = (q @ ub[:, :r]) * scale
    xb = vt[:r].T * scale
    if r < k2:  # pad to fixed width on degenerate graphs
        xf = np.hstack([xf, np.zeros((n, k2 - r))])
        xb = np.hstack([xb, np.zeros((n, k2 - r))])

    # NRP's reweighting: per-node forward/backward weights fitted so the
    # reconstructed proximity's row/column sums match out-/in-degrees —
    # this is the step that stops hubs from dominating every score.
    deg_out = np.zeros(n)
    np.add.at(deg_out, src, 1.0)
    deg_in = np.zeros(n)
    np.add.at(deg_in, dst, 1.0)
    wf = np.ones(n)
    wb = np.ones(n)
    lam = 1e-3
    for _ in range(10):
        sb = xb.T @ wb  # Σ_v wb[v]·xb[v]
        qf = xf @ sb  # row-sum of reconstructed Π under current wb
        wf = np.maximum(deg_out * qf / (qf * qf + lam), 0.0)
        sf = xf.T @ wf
        qb = xb @ sf
        wb = np.maximum(deg_in * qb / (qb * qb + lam), 0.0)
    return NrpEmbedding(xf=xf * wf[:, None], xb=xb * wb[:, None])
