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
transpose shuffle back to node blocks row-normalizes ``Pb``.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.linalg import (
    coo_plan,
    coo_spmm,
    make_state,
    normalize_cols,
    normalize_rows,
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
    edges: DataFrame,
    rr_state: DataFrame,
    rc_state: DataFrame,
    n: int,
    d: int,
    alpha: float,
    t: int,
    nb: int,
) -> tuple[DataFrame, DataFrame]:
    """Algorithm 6 (PAPMI) on pre-built R_r/R_c states: ``(F', B')`` states.

    The edge list and the nonzeros of ``R_r``/``R_c`` are collected once;
    ``P`` and ``R``, cut into ``min(nb, d)`` contiguous attribute-column
    blocks, are broadcast, so both must fit in the driver's and in one
    task's memory (DESIGN.md system #4). One task per column block
    densifies its n-row slices, runs all ``t`` iterations and finishes
    ``F'`` (column normalization is local to a column). One transpose
    shuffle to node blocks ``node % nb`` then row-normalizes ``Pb`` into
    ``B'``. Both states carry a row for every node ``0..n-1`` and are
    materialized once, together.
    """
    spark = rr_state.sparkSession
    e = edges.select("src", "dst").toPandas()
    src, dst = e["src"].to_numpy(np.int64), e["dst"].to_numpy(np.int64)
    nc = min(nb, d)
    # Column block c holds attributes [lo[c], lo[c+1]); attr a is in block a·nc // d.
    lo = [-(-c * d // nc) for c in range(nc + 1)]

    def entries(state: DataFrame, kind: int) -> DataFrame:
        return state.select(
            F.lit(kind).alias("kind"), "node", F.posexplode("vec").alias("attr", "w")
        ).filter("w != 0")

    r = entries(rr_state, 0).unionByName(entries(rc_state, 1)).toPandas()
    slices = [r[r["attr"] * nc // d == c] for c in range(nc)]
    shared = spark.sparkContext.broadcast((src, dst, walk_weights(n, src), slices))
    node_blocks = [np.arange(blk, n, nb) for blk in range(min(nb, n))]

    def column_block(batches):
        src, dst, w, slices = shared.value
        for pdf in batches:
            for c in pdf["id"]:
                s = slices[c]
                rs = np.zeros((2, n, lo[c + 1] - lo[c]))
                rs[s["kind"], s["node"], s["attr"] - lo[c]] = s["w"]
                pf, pb = propagate(src, dst, w, rs[0], rs[1], alpha, t)
                f = np.log2(n * normalize_cols(pf) + 1)
                yield pd.DataFrame(
                    {
                        "cblk": np.int32(c),
                        "block": np.arange(len(node_blocks), dtype=np.int32),
                        "node": node_blocks,
                        "f": [f[ids].ravel() for ids in node_blocks],
                        "pb": [pb[ids].ravel() for ids in node_blocks],
                    }
                )

    def node_block(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("cblk")
        ids = pdf["node"].iloc[0]
        f = np.hstack([s.reshape(len(ids), -1) for s in pdf["f"]])
        pb = np.hstack([s.reshape(len(ids), -1) for s in pdf["pb"]])
        b = np.log2(d * normalize_rows(pb) + 1)
        return pd.DataFrame(
            {"block": pdf["block"].iloc[0], "node": ids, "f": list(f), "b": list(b)}
        )

    # spark.range pins one column block to each task; no shuffle can merge them.
    out = (
        spark.range(nc, numPartitions=nc)
        .mapInPandas(
            column_block,
            "cblk int, block int, node array<long>, f array<double>, pb array<double>",
        )
        .groupBy("block")
        .applyInPandas(node_block, "block int, node long, f array<double>, b array<double>")
        .localCheckpoint(eager=True)
    )
    shared.unpersist()
    return (
        out.select("block", "node", F.col("f").alias("vec")),
        out.select("block", "node", F.col("b").alias("vec")),
    )


def papmi_spark(
    spark: SparkSession,
    edges: DataFrame,
    n: int,
    d: int,
    rr: np.ndarray,
    rc: np.ndarray,
    alpha: float,
    t: int,
    nb: int,
) -> tuple[DataFrame, DataFrame]:
    """Algorithm 6 (PAPMI) from dense ``(R_r, R_c)`` — the test entry point."""
    rr_state = make_state(spark, rr, nb).localCheckpoint(eager=True)
    rc_state = make_state(spark, rc, nb).localCheckpoint(eager=True)
    return papmi_from_states(edges, rr_state, rc_state, n, d, alpha, t, nb)


def affinities_spark_to_numpy(
    f_state: DataFrame, b_state: DataFrame, n: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Collect distributed ``(F', B')`` for verification against Alg. 2."""
    return state_to_numpy(f_state, n, d), state_to_numpy(b_state, n, d)
