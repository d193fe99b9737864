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

Both normalize ``R`` by one formula (``attr_weights``) and run two NumPy
kernels: ``column_affinities`` (``F'`` and ``Pb`` on a set of attribute
columns) and ``backward_affinities`` (``B'`` from whole rows of ``Pb``).
APMI calls each once over all ``d`` columns. PAPMI partitions the
attribute set, as the paper does: the columns of ``Pf``/``Pb`` propagate
independently (Lemma 4.1), so each of ``min(nb, d)`` column-block tasks
runs the first kernel on its own slice, and each node block then runs the
second on its ``Pb`` rows. ``linalg.matrix.pin_blocks`` runs both stages,
one task per partition, and hands each node block its rows from every
column task through files, as the paper's threads share memory: no
shuffle, and PAPMI is two jobs.
"""
from __future__ import annotations

import math

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.linalg import (
    coo_dense,
    coo_plan,
    coo_spmm,
    inv_out_degree,
    node_blocks,
    normalize_cols,
    normalize_rows,
    pin_blocks,
    state_to_numpy,
)

# Most columns per block of APMI's walk. A step gathers the rows of one
# (n, width) block into an accumulator of the same size; at width 64 and
# n=2000 the two fit a 2 MB L2 cache together. On a 4-core Xeon with 2 MB
# of L2 per core, apmi_numpy on tweibo-attr (n=2000, d=200) took 149, 115,
# 111, 109, 131 and 150 ms at widths 16, 32, 48, 64, 100 and 200: narrower
# blocks pay the slot loop's per-call cost more often, wider ones spill L2.
# On the mag stand-in (n=20000, d=256), widths 32-128 tie and 256 is 1.4x
# slower.
BLOCK_WIDTH = 64


def num_iterations(eps: float, alpha: float) -> int:
    """The paper's iteration count ``t = log(ϵ)/log(1-α) − 1`` (Alg. 1, Line 1).

    Rounded up so the tail bound (1-α)^{t+1} ≤ ϵ of Lemma 3.1 holds.
    """
    t = math.log(eps) / math.log(1.0 - alpha) - 1.0
    return max(1, math.ceil(t - 1e-9))


def attr_weights(
    n: int, d: int, node: np.ndarray, attr: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each association's ``R_r``/``R_c`` weight: over its node's/attribute's total.

    APMI and PAPMI both normalize ``R`` by this formula, so they agree bit for bit.
    """
    return (
        weight / np.bincount(node, weight, minlength=n)[node],
        weight / np.bincount(attr, weight, minlength=d)[attr],
    )


def propagate(
    src: np.ndarray,
    dst: np.ndarray,
    rr: np.ndarray,
    rc: np.ndarray,
    alpha: float,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``t`` steps of Equation (6) for ``(Pf, Pb)`` over any set of columns.

    ``(src, dst)`` are the edges of ``A``; each direction's pattern is
    laid out once, not once per step. ``P = D^{-1} A`` enters only as a
    diagonal scaling, ``s = (1-α)·D^{-1}``, applied once per row and step
    around the pattern's gather-add:

        Pf ← s·(A·Pf) + α·R_r        Pb ← Aᵀ·(s·Pb) + α·R_c

    The columns propagate independently (Lemma 4.1), so the ``t`` steps
    run on one column block of at most ``BLOCK_WIDTH`` columns at a time,
    whose working set stays in cache (see ``BLOCK_WIDTH`` for the measured
    choice); the blocks are near-equal, so none is a sliver that pays a
    whole block's per-call cost. A column's bits do not depend on the
    blocking (see ``linalg.coo``), so APMI's blocks and PAPMI's column
    blocks give the same ``Pf, Pb``.
    """
    n, d = rr.shape
    fwd, bwd = coo_plan(src, dst), coo_plan(dst, src)
    s = ((1 - alpha) * inv_out_degree(n, src))[:, None]
    pf, pb = np.empty((n, d)), np.empty((n, d))
    nblk = max(1, -(-d // BLOCK_WIDTH))
    cuts = [j * d // nblk for j in range(nblk + 1)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ar, ac = alpha * rr[:, lo:hi], alpha * rc[:, lo:hi]
        f, b = rr[:, lo:hi], rc[:, lo:hi]
        for _ in range(t):
            f = coo_spmm(fwd, f, n)
            f *= s
            f += ar
            b = coo_spmm(bwd, s * b, n)
            b += ac
        pf[:, lo:hi], pb[:, lo:hi] = f, b
    return pf, pb


def column_affinities(
    n: int, src: np.ndarray, dst: np.ndarray, node: np.ndarray, col: np.ndarray,
    w_r: np.ndarray, w_c: np.ndarray, width: int, alpha: float, t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(F', Pb)`` on ``width`` attribute columns, from their ``R_r``/``R_c`` weights.

    ``(node, col)`` are the associations' cells; duplicate pairs add up.
    Column normalization is local to a column, so ``F'`` is final.
    """
    rr, rc = coo_dense(n, width, node, col, w_r), coo_dense(n, width, node, col, w_c)
    pf, pb = propagate(src, dst, rr, rc, alpha, t)
    return np.log2(n * normalize_cols(pf) + 1), pb


def backward_affinities(pb: np.ndarray, d: int) -> np.ndarray:
    """``B' = log2(d·P̂b + 1)`` from whole rows of ``Pb`` over all ``d`` columns."""
    return np.log2(d * normalize_rows(pb) + 1)


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
    w_r, w_c = attr_weights(n, d, node, attr, weight)
    f, pb = column_affinities(n, src, dst, node, attr, w_r, w_c, d, alpha, t)
    return f, backward_affinities(pb, d)


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
    blocks, ship in the tasks' closure, so both must fit in the driver's
    and in one task's memory (DESIGN.md system #4). ``column_block`` runs
    ``column_affinities`` on one block's columns; ``node_block`` runs
    ``backward_affinities`` on a node block's ``Pb`` rows. The result is
    one state, a row per node block holding ``(F'ᵢ, B'ᵢ)``, covering every
    node ``0..n-1``.
    """
    w_r, w_c = attr_weights(n, d, node, attr, weight)
    nc = min(nb, d)
    # Column block c holds attributes [lo[c], lo[c+1]); attr a is in block a·nc // d.
    lo = [-(-c * d // nc) for c in range(nc + 1)]
    in_block = [attr * nc // d == c for c in range(nc)]
    slices = [
        (node[s], attr[s] - lo[c], w_r[s], w_c[s]) for c, s in enumerate(in_block)
    ]
    blocks = node_blocks(n, nb)

    def column_block(c):
        f, pb = column_affinities(n, src, dst, *slices[c], lo[c + 1] - lo[c], alpha, t)
        return [(f[ids], pb[ids]) for ids in blocks]

    def node_block(ids, parts):
        f, pb = (np.hstack(side) for side in zip(*parts))
        return f, backward_affinities(pb, d)

    state = pin_blocks(spark, n, nb, range(nc), column_block, node_block)
    # One state, returned twice: panebench/run.py unpacks the pair into affinities_spark_to_numpy.
    return state, state


def affinities_spark_to_numpy(
    f_state: DataFrame, b_state: DataFrame, n: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Collect distributed ``(F', B')`` for verification against Alg. 2."""
    return state_to_numpy(f_state, n, d)[0], state_to_numpy(b_state, n, d)[1]
