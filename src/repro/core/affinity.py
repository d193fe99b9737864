"""Forward/backward affinity approximation: APMI (Alg. 2) and PAPMI (Alg. 6).

Both compute, without sampling a single walk,

    P_f^(t) = α Σ_{ℓ=0..t} (1-α)^ℓ P^ℓ R_r      (Equation 6)
    P_b^(t) = α Σ_{ℓ=0..t} (1-α)^ℓ (P^T)^ℓ R_c

via the recurrence ``P^(ℓ) = (1-α)·P·P^(ℓ-1) + α·P^(0)``, then column-
normalize the forward / row-normalize the backward matrix and apply the
SPMI transform ``F' = log2(n·P̂f + 1)``, ``B' = log2(d·P̂b + 1)``
(Equation 7; base-2 per Lemma 3.1, DESIGN.md note #4).

``R_r`` is row-stochastic (each node's attribute distribution) and
``R_c`` column-stochastic (each attribute's node distribution) — the
walk semantics of Section 2.2; see DESIGN.md deviation #1 on the
Equation (1) typo.

Both run the recurrence through one NumPy kernel, ``propagate``. The
Spark version (PAPMI) partitions the attribute set, as the paper does:
the columns of ``Pf``/``Pb`` propagate independently, so each of
``min(nb, d)`` column-block tasks runs all ``t`` iterations on its own
slice, with the walk matrix ``P`` and the slices broadcast once, and one
transpose back to node blocks row-normalizes ``Pb``.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.linalg import (
    coo_plan,
    coo_spmm,
    node_blocks,
    normalize_cols,
    normalize_rows,
    pin_blocks,
    state_to_numpy,
    walk_weights,
)


def num_iterations(eps: float, alpha: float) -> int:
    """The paper's iteration count ``t = log(ϵ)/log(1-α) − 1`` (Alg. 1, Line 1).

    Rounded up so the tail bound (1-α)^{t+1} ≤ ϵ of Lemma 3.1 holds.
    """
    t = math.log(eps) / math.log(1.0 - alpha) - 1.0
    return max(1, math.ceil(t - 1e-9))


def normalize_attrs(
    n: int, d: int, node: np.ndarray, attr: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(R_r, R_c)`` from COO associations (Equation 1, walk semantics)."""
    R = np.zeros((n, d))
    np.add.at(R, (node, attr), weight)
    return normalize_rows(R), normalize_cols(R)


def propagate(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    rr: np.ndarray,
    rc: np.ndarray,
    alpha: float,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``t`` steps of Equation (6) for ``(Pf, Pb)`` over any set of columns.

    ``(src, dst, w)`` are the nonzeros of ``P``; each direction is sorted
    once, not once per step.
    """
    n = rr.shape[0]
    fwd, bwd = coo_plan(src, dst, w), coo_plan(dst, src, w)
    pf, pb = rr, rc
    for _ in range(t):
        pf = (1 - alpha) * coo_spmm(fwd, pf, n) + alpha * rr
        pb = (1 - alpha) * coo_spmm(bwd, pb, n) + alpha * rc
    return pf, pb


def apmi_numpy(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    alpha: float,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2 (single-thread reference): returns ``(F', B')``."""
    rr, rc = normalize_attrs(n, d, node, attr, weight)
    pf, pb = propagate(src, dst, walk_weights(n, src), rr, rc, alpha, t)
    return np.log2(n * normalize_cols(pf) + 1), np.log2(d * normalize_rows(pb) + 1)


def papmi_from_states(
    spark: SparkSession,
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    alpha: float,
    t: int,
    nb: int,
) -> tuple[DataFrame, DataFrame]:
    """Algorithm 6 (PAPMI) from COO input: the ``(F', B')`` states.

    The driver normalizes ``R`` into ``R_r``/``R_c`` weights in O(nnz).
    ``P`` and ``R``, cut into ``min(nb, d)`` contiguous attribute-column
    blocks, are broadcast, so both must fit in the driver's and in one
    task's memory (DESIGN.md system #4). One task per column block
    densifies its n-row slices (duplicate ``(node, attr)`` pairs add up),
    runs all ``t`` iterations and finishes ``F'`` (column normalization is
    local to a column). One transpose (``pin_blocks``) then lands each
    node block in its own partition, where ``Pb`` is row-normalized into
    ``B'``. The result is one materialized state, a row per node block
    holding both ``F'`` and ``B'``, covering every node ``0..n-1``.
    """
    w_r = weight / np.bincount(node, weight, minlength=n)[node]
    w_c = weight / np.bincount(attr, weight, minlength=d)[attr]
    nc = min(nb, d)
    # Column block c holds attributes [lo[c], lo[c+1]); attr a is in block a·nc // d.
    lo = [-(-c * d // nc) for c in range(nc + 1)]
    in_block = [attr * nc // d == c for c in range(nc)]
    slices = [
        (node[s], attr[s] - lo[c], w_r[s], w_c[s]) for c, s in enumerate(in_block)
    ]
    shared = spark.sparkContext.broadcast((src, dst, walk_weights(n, src), slices))
    blocks = node_blocks(n, nb)

    def column_block(batches):
        src, dst, w, slices = shared.value
        for pdf in batches:
            for c in pdf["id"]:
                rows, cols, wr, wc = slices[c]
                rr, rc = np.zeros((2, n, lo[c + 1] - lo[c]))
                np.add.at(rr, (rows, cols), wr)
                np.add.at(rc, (rows, cols), wc)
                pf, pb = propagate(src, dst, w, rr, rc, alpha, t)
                f = np.log2(n * normalize_cols(pf) + 1)
                yield pd.DataFrame(
                    {
                        "block": np.arange(len(blocks), dtype=np.int32),
                        "cblk": np.int32(c),
                        "f": [f[ids].ravel() for ids in blocks],
                        "pb": [pb[ids].ravel() for ids in blocks],
                    }
                )

    def node_block(ids, rows):
        rows = rows.sort_values("cblk")
        f = np.hstack([s.reshape(len(ids), -1) for s in rows["f"]])
        pb = np.hstack([s.reshape(len(ids), -1) for s in rows["pb"]])
        return np.stack([f, np.log2(d * normalize_rows(pb) + 1)])

    # spark.range pins one column block to each task. pin_blocks samples
    # its input in a job of its own, so the column stage is checkpointed
    # first and runs once.
    cols = (
        spark.range(nc, numPartitions=nc)
        .mapInPandas(column_block, "block int, cblk int, f array<double>, pb array<double>")
        .localCheckpoint(eager=True)
    )
    state = pin_blocks(cols, n, nb, node_block)
    shared.unpersist()
    # One state, returned twice: panebench/run.py unpacks the pair into affinities_spark_to_numpy.
    return state, state


def affinities_spark_to_numpy(
    f_state: DataFrame, b_state: DataFrame, n: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Collect distributed ``(F', B')`` for verification against Alg. 2."""
    return state_to_numpy(f_state, n, d)[0], state_to_numpy(b_state, n, d)[1]
