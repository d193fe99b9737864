"""Greedy embedding initialization: GreedyInit (Alg. 3) / SMGreedyInit (Alg. 7).

The key idea of the paper's solver: seed CCD with ``Xf = UΣ, Y = V``
from a rank-k/2 randomized SVD of ``F'`` (so ``Xf·Y^T ≈ F'`` instantly)
and exploit ``Y``'s near-orthonormality to seed ``Xb = B'·Y`` (so
``Xb·Y^T ≈ B'Y Y^T ≈ B'``). SMGreedyInit distributes this with the
split-merge trick: one local RandSVD per node block, then a small
driver-side RandSVD of the stacked right factors ``V = [V1 … Vnb]^T``
(that merge matrix is (nb·k/2)×d — tiny by construction, exactly the
single-thread step of Algorithm 7 Lines 4–6).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.linalg.matrix import map_blocks
from repro.linalg.randsvd import rand_svd


def greedy_init_numpy(
    f: np.ndarray, b: np.ndarray, k2: int, t: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 3: returns ``(Xf, Xb, Y)`` (residuals are derived by CCD)."""
    u, s, v = rand_svd(f, k2, t, seed)
    return u @ s, b @ v, v


def random_init_numpy(
    n: int, d: int, k2: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PANE-R's random initialization (Section 5.7 ablation baseline)."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(k2)
    return (
        rng.standard_normal((n, k2)) * scale,
        rng.standard_normal((n, k2)) * scale,
        rng.standard_normal((d, k2)) * scale,
    )


def sm_greedy_init_spark(
    state: DataFrame, k2: int, t: int, seed: int = 0
) -> tuple[DataFrame, np.ndarray]:
    """Algorithm 7 (SMGreedyInit): returns the CCD state and ``Y``.

    The returned state is PAPMI's, with each block's ``x`` set to
    ``(Xfᵢ, Xbᵢ)``; ``Y`` lives on the driver (it is d×k/2 and is shipped
    into every CCD pass). Both stages are passes of ``map_blocks``.
    """

    # -- Split phase: one RandSVD of F'ᵢ per node block (Alg. 7 Lines 1-3).
    # The block's UᵢΣᵢ stays in its x until assembled; only Vᵢ goes to the
    # driver, since the merge input [V1 … Vnb]^T is small by construction.
    def split(blk, m, x):
        u, s, v = rand_svd(m[0], k2, t, seed=seed + 17 * int(blk))
        return u @ s, v.T

    state, v_parts = map_blocks(state, split)

    # -- Merge phase (Alg. 7 Lines 4-6), on the driver: V ∈ R^{nb·k2 × d}.
    phi, sig, y = rand_svd(np.vstack(v_parts), k2, t, seed=seed + 1009)
    w = np.split(phi @ sig, len(v_parts))  # block i's Wᵢ: its k2 rows of ΦΣ

    # -- Assemble phase (Alg. 7 Lines 7-11): Xf[Vi] = Ui · W_i, Xb[Vi] = B'[Vi]·Y.
    def assemble(blk, m, x):
        return (x @ w[blk], m[1] @ y), None

    state, _ = map_blocks(state, assemble)
    return state, y
