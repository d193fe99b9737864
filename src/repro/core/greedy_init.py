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

from repro.linalg.matrix import STAGE_SCHEMA, STATE_SCHEMA, rows_of
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
    state: DataFrame,
    d: int,
    k2: int,
    t: int,
    seed: int = 0,
    random_init: bool = False,
) -> tuple[DataFrame, np.ndarray]:
    """Algorithm 7 (SMGreedyInit): returns the CCD state and ``Y``.

    The returned state is PAPMI's, with each block's ``x`` set to
    ``[Xfᵢ; Xbᵢ]``; ``Y`` lives on the driver (it is d×k/2 and is shipped
    into every CCD pass). Both stages are narrow maps over the blocks'
    rows. With ``random_init=True`` the SVD seeding is replaced by
    Gaussian noise and the split-merge RandSVD is skipped — the PANE-R
    ablation of Section 5.7, sharing all other machinery.
    """
    if random_init:
        y = np.random.default_rng(seed + 2003).standard_normal((d, k2)) / np.sqrt(k2)
    else:
        # -- Split phase: one RandSVD of F'ᵢ per node block (Alg. 7 Lines 1-3).
        # The block's U_i = ΦΣ stays in its row's x; only V_i goes to the
        # driver, since the merge input [V1 … Vnb]^T is small by construction.
        def split(batches):
            for pdf in batches:
                svds = [
                    rand_svd(m[0], k2, t, seed=seed + 17 * int(blk))
                    for blk, m in zip(pdf["block"], rows_of(pdf, "m"))
                ]
                yield pdf.assign(
                    x=[(u @ s).ravel() for u, s, _ in svds],
                    out=[v.T.ravel() for _, _, v in svds],
                )

        # The lazy checkpoint is filled by the collect's job: the split runs once.
        state = state.mapInPandas(split, STAGE_SCHEMA).localCheckpoint(eager=False)
        v_rows = sorted(state.select("block", "out").collect())

        # -- Merge phase (Alg. 7 Lines 4-6), on the driver: V ∈ R^{nb·k2 × d}.
        v_stack = np.vstack([np.reshape(out, (k2, d)) for _, out in v_rows])
        phi, sig, y = rand_svd(v_stack, k2, t, seed=seed + 1009)
        # Block i's W_i is its k2 rows of ΦΣ.
        w = dict(zip([blk for blk, _ in v_rows], np.split(phi @ sig, len(v_rows))))
        state = state.drop("out")

    # -- Assemble phase (Alg. 7 Lines 7-11): Xf[Vi] = Ui · W_i, Xb[Vi] = B'[Vi]·Y.
    def assemble(batches):
        for pdf in batches:
            xs = []
            for blk, m, us in zip(pdf["block"], rows_of(pdf, "m"), pdf["x"]):
                if random_init:  # one stream per block: its Xf rows, then its Xb rows
                    rng = np.random.default_rng(seed + 31 * int(blk))
                    x = rng.standard_normal((2, m.shape[1], k2)) * (1.0 / np.sqrt(k2))
                else:
                    x = np.stack([np.reshape(us, (-1, k2)) @ w[blk], m[1] @ y])
                xs.append(x.ravel())
            yield pdf.assign(x=xs)

    state = state.mapInPandas(assemble, STATE_SCHEMA).localCheckpoint(eager=True)
    return state, y
