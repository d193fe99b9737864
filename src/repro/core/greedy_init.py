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
import pandas as pd
from pyspark.sql import DataFrame

from repro.linalg.matrix import STATE_SCHEMA
from repro.linalg.randsvd import rand_svd

# Combined per-node solver state used by SMGreedyInit → PSVDCCD:
# the node's affinity rows (f, b) and its embedding rows (xf, xb).
CCD_STATE_SCHEMA = (
    "block int, node long, f array<double>, b array<double>, "
    "xf array<double>, xb array<double>"
)


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
    f_state: DataFrame,
    b_state: DataFrame,
    d: int,
    k2: int,
    t: int,
    seed: int = 0,
    random_init: bool = False,
) -> tuple[DataFrame, np.ndarray]:
    """Algorithm 7 (SMGreedyInit): returns the combined CCD state and ``Y``.

    The returned DataFrame has one row per node with columns
    ``(block, node, f, b, xf, xb)``; ``Y`` lives on the driver (it is
    d×k/2 and is broadcast into every CCD phase). With
    ``random_init=True`` the SVD seeding is replaced by Gaussian noise
    and the split-merge RandSVD is skipped — the PANE-R ablation of
    Section 5.7, sharing all other machinery.
    """
    combined = f_state.select("block", "node", f_state["vec"].alias("f")).join(
        b_state.select("node", b_state["vec"].alias("b")), "node"
    )
    if random_init:
        y = np.random.default_rng(seed + 2003).standard_normal((d, k2)) / np.sqrt(k2)
    else:
        # -- Split phase: one RandSVD per node block (Alg. 7 Lines 1-3). The
        # block's U_i = ΦΣ rows stay distributed (node >= 0); its V_i^T rows
        # are emitted with sentinel node ids -(1..k2) and collected, since the
        # merge input [V1 … Vnb]^T is small by construction.
        def split(pdf: pd.DataFrame) -> pd.DataFrame:
            blk = np.int32(pdf["block"].iloc[0])
            fi = np.stack(pdf["vec"].to_numpy())
            u, s, v = rand_svd(fi, k2, t, seed=seed + 17 * int(blk))
            ui = u @ s
            urows = pd.DataFrame(
                {"block": blk, "node": pdf["node"].to_numpy(), "vec": list(ui)}
            )
            vrows = pd.DataFrame(
                {
                    "block": blk,
                    "node": -(np.arange(k2, dtype=np.int64) + 1),
                    "vec": list(v.T),
                }
            )
            return pd.concat([urows, vrows], ignore_index=True)

        mixed = (
            f_state.groupBy("block")
            .applyInPandas(split, STATE_SCHEMA)
            .localCheckpoint(eager=True)
        )
        v_pdf = mixed.filter("node < 0").toPandas()
        blocks = sorted(v_pdf["block"].unique().tolist())
        pos = {blk: i for i, blk in enumerate(blocks)}

        # -- Merge phase (Alg. 7 Lines 4-6), on the driver: V ∈ R^{nb·k2 × d}.
        v_pdf = v_pdf.sort_values(["block", "node"], ascending=[True, False])
        v_stack = np.stack(v_pdf["vec"].to_numpy())
        phi, sig, y = rand_svd(v_stack, k2, t, seed=seed + 1009)
        w = phi @ sig  # (nb·k2, k2); block i owns rows [i·k2, (i+1)·k2)

        # -- Assemble phase (Alg. 7 Lines 7-11): Xf[Vi] = Ui · W_i, Xb[Vi] = B'[Vi]·Y.
        u_state = mixed.filter("node >= 0")
        combined = combined.join(u_state.select("node", u_state["vec"].alias("u")), "node")

    def assemble(pdf: pd.DataFrame) -> pd.DataFrame:
        blk = int(pdf["block"].iloc[0])
        fi = np.stack(pdf["f"].to_numpy())
        bi = np.stack(pdf["b"].to_numpy())
        if random_init:
            rng = np.random.default_rng(seed + 31 * blk)
            scale = 1.0 / np.sqrt(k2)
            xf = rng.standard_normal((len(pdf), k2)) * scale
            xb = rng.standard_normal((len(pdf), k2)) * scale
        else:
            ui = np.stack(pdf["u"].to_numpy())
            xf = ui @ w[pos[blk] * k2 : (pos[blk] + 1) * k2]
            xb = bi @ y
        return pd.DataFrame(
            {
                "block": np.int32(blk),
                "node": pdf["node"].to_numpy(),
                "f": list(fi),
                "b": list(bi),
                "xf": list(xf),
                "xb": list(xb),
            }
        )

    state = (
        combined.groupBy("block")
        .applyInPandas(assemble, CCD_STATE_SCHEMA)
        .localCheckpoint(eager=True)
    )
    return state, y
