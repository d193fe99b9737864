"""Cyclic coordinate descent refinement: SVDCCD (Alg. 4) / PSVDCCD (Alg. 8).

Loop structure vs the paper: Algorithm 4 iterates node-major
(``for vi: for l``) in the X-phase and attribute-major (``for rj: for
l``) in the Y-phase. Rows do not interact within the X-phase (each
update touches only ``Xf[vi,·]`` and the residual row ``Sf[vi]``) and
columns do not interact within the Y-phase (``Y[rj,·]`` touches only
``Sf[:,rj]``), so interchanging the loops to coordinate-major
(``for l: all vi at once``) performs the same update sequence per
row/column while vectorizing over the independent index; the remaining
loop over ``l`` is one triangular solve (below). Tests assert
agreement with the literal Algorithm-4 loop nest
(``tests/naive_ccd.naive_svdccd_numpy``) to ``atol=1e-9``: the sums are
associated differently, so the results agree up to rounding, not bit
for bit.

Neither phase forms the n×d residual ``S = X·Yᵀ − M``. Each reads the
residual's products through a moment identity (DESIGN.md, "CCD
reformulation"), the CCD++ trick of Yu et al. (ICDM 2012), and each
phase's cyclic column sweep is one Gauss–Seidel step, a triangular solve
with no Python loop over the k/2 columns (``_sweep_maps``):

* X-phase: ``S·y_l = X·(YᵀY)[:,l] − (M·Y)[:,l]``, read with columns
  ``< l`` already updated, is ``X_new·T = M·Y − X·E`` with ``T``/``E``
  the upper/strict lower triangle of ``YᵀY``. Per side a sweep is
  ``X_new = M·(Y·T⁻¹) − X·(E·T⁻¹)``: one n×d by d×(k/2) GEMM and one
  n×(k/2) by (k/2)² GEMM, O(n·d·k + n·k²) with no n×d temporary.
* Y-phase: ``N := Xf^T Sf + Xb^T Sb = G·Y^T − C`` with ``G = Xfᵀ·Xf +
  Xbᵀ·Xb`` and ``C = Xfᵀ·F' + Xbᵀ·B'``. The moments are tiny ((k/2)² and
  (k/2)×d) and computed by partial sums over the state's node-block rows
  (``moments``). The paper's dynamic maintenance (Equation 20) reads row
  ``l`` of ``N`` with rows ``< l`` of ``Yᵀ`` already updated, so the
  driver's sweep is ``tril(G)·Y_newᵀ = C − triu(G, 1)·Yᵀ``.

Tests check both sweeps against their column-by-column loops
(``tests/naive_ccd.loop_x_phase`` and ``loop_y_phase_from_moments``) to
1e-10 relative.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.linalg.matrix import map_blocks, state_to_numpy

_TINY = 1e-12


def objective(
    f: np.ndarray, b: np.ndarray, xf: np.ndarray, xb: np.ndarray, y: np.ndarray
) -> float:
    """Equation (4): total squared reconstruction error of both affinities."""
    return float(
        np.sum((f - xf @ y.T) ** 2) + np.sum((b - xb @ y.T) ** 2)
    )


def _tril_inv(l: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix with a nonzero diagonal, by
    forward substitution: row ``i`` is ``(e_i − L[i,:i]·inv[:i]) / L[i,i]``.

    The loop runs over the (k/2)×(k/2) triangle, not over node rows.
    NumPy has no triangular solver, and its LAPACK inverse is no
    substitute here: with OpenBLAS threads, four concurrent processes
    (PSVDCCD's workers on a 4-core box) took 20–180 ms per 64×64 inverse,
    against 0.2 ms alone.
    """
    inv = np.zeros_like(l)
    for i in range(len(l)):
        inv[i, :i] = -(l[i, :i] @ inv[:i, :i])
        inv[i, i] = 1.0
        inv[i] /= l[i, i]
    return inv


def _sweep_maps(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P, Q)`` such that one cyclic coordinate sweep over the rows of
    ``z`` for the normal equations ``g·z = r`` is ``z_new = P·r − Q·z``.

    Row ``l`` solves its equation with rows ``< l`` already updated and
    rows ``> l`` still old, which is the triangular system
    ``tril(g)·z_new = r − triu(g, 1)·z``: ``P = tril(g)⁻¹`` and
    ``Q = tril(g)⁻¹·triu(g, 1)``. A row whose diagonal is below
    ``_TINY`` keeps its old value (its row of ``P`` is 0, of ``Q`` is
    ``−e_l``), and every other row reads that old value, above the
    diagonal or below it.
    """
    keep = np.diag(g) >= _TINY
    upper = np.triu(g, 1)
    upper[:, ~keep] = g[:, ~keep]
    p = np.zeros_like(g)
    p[np.ix_(keep, keep)] = _tril_inv(np.tril(g[np.ix_(keep, keep)]))
    return p, p @ upper - np.diag((~keep).astype(g.dtype))


def x_phase(
    f: np.ndarray, b: np.ndarray, xf: np.ndarray, xb: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One CCD sweep over the node rows: ``Xf`` against ``F'`` and ``Xb``
    against ``B'`` (Alg. 4 Lines 3-9).

    Neither side nor any row interacts with another, so any set of node
    rows is swept on its own. Column ``l``'s update reads the residual
    product ``S·y_l = X·(YᵀY)[:,l] − (M·Y)[:,l]`` with columns ``< l``
    already updated, so a sweep solves ``X_new·T = M·Y − X·E`` with
    ``T``/``E`` the upper/strict lower triangle of ``YᵀY``. Per side that
    is ``X_new = M·(Y·T⁻¹) − X·(E·T⁻¹)``: one n×d by d×(k/2) product and
    one n×(k/2) by (k/2)² product (DESIGN.md, "CCD reformulation").
    Columns of ``Y`` with zero norm leave their column of ``X``
    untouched. Pure function: inputs are not mutated.
    """
    p, q = _sweep_maps(y.T @ y)
    w = y @ p.T
    return f @ w - xf @ q.T, b @ w - xb @ q.T


def moments(
    f: np.ndarray, b: np.ndarray, xf: np.ndarray, xb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Y-phase moments ``G = Xfᵀ·Xf + Xbᵀ·Xb`` and ``C = Xfᵀ·F' + Xbᵀ·B'``.

    Both are sums over node rows, so PSVDCCD sums them over node blocks.
    """
    return xf.T @ xf + xb.T @ xb, xf.T @ f + xb.T @ b


def y_phase_from_moments(
    y: np.ndarray, g: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """One CCD sweep over Y (Alg. 4 Lines 10-14) given the moments.

    ``g = Xf^T Xf + Xb^T Xb`` and ``c = Xf^T F' + Xb^T B'``. Column ``l``
    of ``Y`` moves by row ``l`` of the numerator ``G·Yᵀ − C`` with columns
    ``< l`` already updated, which absorbs Equation (20)'s residual
    maintenance; the sweep is the triangular solve
    ``tril(G)·Y_newᵀ = C − triu(G, 1)·Yᵀ``.
    """
    p, q = _sweep_maps(g)
    return c.T @ p.T - y @ q.T


def svdccd_numpy(
    f: np.ndarray,
    b: np.ndarray,
    xf: np.ndarray,
    xb: np.ndarray,
    y: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 4's refinement loop (single-thread reference)."""
    for _ in range(t):
        xf, xb = x_phase(f, b, xf, xb, y)
        y = y_phase_from_moments(y, *moments(f, b, xf, xb))
    return xf, xb, y


def psvdccd_spark(
    state: DataFrame, y: np.ndarray, t: int
) -> tuple[DataFrame, np.ndarray]:
    """Algorithm 8's refinement loop on the CCD state DataFrame.

    Each iteration is one ``map_blocks`` pass with ``Y`` shipped in the
    task closure: every node block runs the body of ``svdccd_numpy`` on
    its rows — ``x_phase`` (Alg. 8 Lines 3-10), then its partial
    ``moments``. The driver sums them into ``(G, C)`` in block order and
    replays the exact Y-phase (Lines 11-16).
    """
    for _ in range(t):

        def ccd_block(blk, m, x, y=y):
            x = x_phase(*m, *x, y)
            return x, moments(*m, *x)

        state, parts = map_blocks(state, ccd_block)
        g, c = (sum(side) for side in zip(*parts))
        y = y_phase_from_moments(y, g, c)
    return state, y


def collect_embeddings(
    state: DataFrame, n: int, k2: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pull the final per-node embeddings ``(Xf, Xb)`` back to the driver."""
    xf, xb = state_to_numpy(state, n, k2, "x")
    return xf, xb
