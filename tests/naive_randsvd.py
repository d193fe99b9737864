"""The sketch-side RandSVD power loop, the reference the Gram-side iteration is tested against."""
import numpy as np

from repro.linalg.randsvd import OVERSAMPLE


def sketch_rand_svd(
    mat: np.ndarray, k: int, t: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized subspace iteration with every power step on the n×p
    sketch: ``q = qr(A·(Aᵀ·q))``, t times, from ``q = qr(A·Ω)``.

    The same seed, draw of Ω and exact-SVD fallback as
    ``repro.linalg.randsvd.rand_svd``, which takes this path unchanged
    whenever its flop rule does not pick the Gram side.
    """
    n, d = mat.shape
    rank = min(n, d)
    if k >= rank:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
        if k > rank:
            u = np.hstack([u, np.zeros((n, k - rank))])
            s = np.concatenate([s, np.zeros(k - rank)])
            vt = np.vstack([vt, np.zeros((k - rank, d))])
        return u, np.diag(s), vt.T

    rng = np.random.default_rng(seed)
    p = min(k + OVERSAMPLE, rank)
    q = mat @ rng.standard_normal((d, p))
    q, _ = np.linalg.qr(q)
    for _ in range(min(max(t, 0), 8)):
        q, _ = np.linalg.qr(mat @ (mat.T @ q))
    b = q.T @ mat
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return (q @ ub)[:, :k], np.diag(s[:k]), vt[:k].T
