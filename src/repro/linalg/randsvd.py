"""Randomized truncated SVD (the paper's ``RandSVD`` [30]).

We implement randomized subspace iteration (Halko et al.; the
power-iteration cousin of Musco–Musco block Krylov): same O(ndkt)
cost class and, as ``t → ∞``, the same exact-SVD limit that Lemma 4.2
relies on. Used directly by GreedyInit (Algorithm 3) and once per
node block by SMGreedyInit (Algorithm 7).

The subspace after t power steps is range(A·(AᵀA)^t·Ω), so the steps
can run in the smaller dimension m = min(n, d) (Halko et al., SIAM Rev.
2011, Sec. 4.5): one m×m Gram matrix, then t products with it and t QRs
of an m×p block. ``rand_svd`` takes that side whenever it costs fewer
flops than the 2t sketch products it replaces, which holds for every
input PANE factorizes; a square n×n input with n > 2tp (NetMF's) keeps
the sketch loop. Both forms round alike: a product with ``G``, like one
with ``Aᵀ`` then ``A``, is exact to ε·σ₁², so they agree while the kept
singular values stay far above √ε·σ₁ (DESIGN.md, deviation #5).
"""
from __future__ import annotations

import numpy as np

OVERSAMPLE = 8  # extra sketch columns beyond k


def rand_svd(
    mat: np.ndarray, k: int, t: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``k`` approximate SVD: returns ``(U, Sigma, V)`` with
    ``mat ≈ U @ Sigma @ V.T``, ``U: (n,k)``, ``Sigma: (k,k)`` diagonal,
    ``V: (d,k)`` with orthonormal columns.

    ``t`` is the number of power iterations (clamped to ≤ 8 — beyond
    that the subspace has converged to machine precision for the
    spectra we factorize). If ``k`` exceeds ``min(n, d)`` the exact SVD
    is returned, zero-padded to ``k`` components so callers always get
    fixed-width embeddings.
    """
    n, d = mat.shape
    rank = min(n, d)
    if k >= rank:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
        if k > rank:  # pad so embedding width is always k
            u = np.hstack([u, np.zeros((n, k - rank))])
            s = np.concatenate([s, np.zeros(k - rank)])
            vt = np.vstack([vt, np.zeros((k - rank, d))])
        return u, np.diag(s), vt.T

    rng = np.random.default_rng(seed)
    p = min(k + OVERSAMPLE, rank)
    omega = rng.standard_normal((d, p))
    steps = min(max(t, 0), 8)
    big = max(n, d)
    if rank * (big + 2 * steps * p) < 4 * steps * big * p:
        # The m×m Gram and t products with it cost fewer flops than the
        # 2t sketch products A·(Aᵀ·q).
        if n >= d:  # steps on the d side, then one map: A·(AᵀA)^t·Ω
            g, z = mat.T @ mat, omega
        else:  # steps on the n side: (AAᵀ)^t·A·Ω
            g, z = mat @ mat.T, np.linalg.qr(mat @ omega)[0]
        for _ in range(steps):
            z, _ = np.linalg.qr(g @ z)
        q = np.linalg.qr(mat @ z)[0] if n >= d else z
    else:
        q, _ = np.linalg.qr(mat @ omega)
        for _ in range(steps):
            q, _ = np.linalg.qr(mat @ (mat.T @ q))
    b = q.T @ mat
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return (q @ ub)[:, :k], np.diag(s[:k]), vt[:k].T
