"""Cyclic coordinate descent refinement: SVDCCD (Alg. 4) / PSVDCCD (Alg. 8).

Loop structure vs the paper: Algorithm 4 iterates node-major
(``for vi: for l``) in the X-phase and attribute-major (``for rj: for
l``) in the Y-phase. Rows do not interact within the X-phase (each
update touches only ``Xf[vi,·]`` and the residual row ``Sf[vi]``) and
columns do not interact within the Y-phase (``Y[rj,·]`` touches only
``Sf[:,rj]``), so interchanging the loops to coordinate-major
(``for l: all vi at once``) performs the same update sequence per
row/column while vectorizing over the independent index. Tests assert
agreement with the literal Algorithm-4 loop nest (``naive_svdccd_numpy``)
to ``atol=1e-9``: the sums are associated differently, so the results
agree up to rounding, not bit for bit.

Neither phase forms the n×d residual ``S = X·Yᵀ − M``. Each reads the
residual's products through a moment identity (DESIGN.md, "CCD
reformulation"), the CCD++ trick of Yu et al. (ICDM 2012):

* X-phase: ``S·y_l = X·(YᵀY)[:,l] − (M·Y)[:,l]``. ``YᵀY`` is (k/2)² and
  ``M·Y`` one n×d by d×(k/2) product per side, so a sweep costs
  O(n·d·k + n·k²) with no n×d temporary.
* Y-phase: ``N := Xf^T Sf + Xb^T Sb = (Gf+Gb)·Y^T − (Xf^T F' + Xb^T B')``.
  The four moments are tiny ((k/2)² and (k/2)×d) and computed by partial
  sums over the state's node-block rows (``moments``), after which the
  driver replays the exact cyclic update including the paper's dynamic
  maintenance (Equation 20) as ``N[:,rj] −= µy·G[:,l]``.
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


def x_phase(
    f: np.ndarray, b: np.ndarray, xf: np.ndarray, xb: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One CCD sweep over the node rows: ``Xf`` against ``F'`` and ``Xb``
    against ``B'`` (Alg. 4 Lines 3-9), vectorized.

    Neither side nor any row interacts with another, so any set of node
    rows is swept on its own. The update of column ``l`` needs the
    residual product ``S·y_l`` with ``S = X·Yᵀ − M`` at its current
    value; it is read as ``X·(YᵀY)[:,l] − (M·Y)[:,l]`` from the current
    ``X``, which equals the paper's dynamically-maintained residual
    (Equations 18-19) without forming it. Columns of ``Y`` with zero norm
    leave their column of ``X`` untouched. Pure function: inputs are not
    mutated.
    """
    gy = y.T @ y
    out = []
    for m, x in ((f, xf), (b, xb)):
        x = x.copy()
        my = m @ y
        for l in range(y.shape[1]):
            denom = gy[l, l]
            if denom < _TINY:
                continue
            x[:, l] -= (x @ gy[:, l] - my[:, l]) / denom
        out.append(x)
    return out[0], out[1]


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

    ``g = Xf^T Xf + Xb^T Xb`` and ``c = Xf^T F' + Xb^T B'``; the running
    numerator matrix ``n = g·Y^T − c`` absorbs Equation (20)'s residual
    maintenance. Vectorized over the independent attribute index.
    """
    y = y.copy()
    n = g @ y.T - c
    for l in range(y.shape[1]):
        denom = g[l, l]
        if denom < _TINY:
            continue
        mu = n[l, :] / denom
        y[:, l] -= mu
        n -= np.outer(g[:, l], mu)
    return y


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


def naive_svdccd_numpy(
    f: np.ndarray,
    b: np.ndarray,
    xf: np.ndarray,
    xb: np.ndarray,
    y: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Literal transcription of Algorithm 4 (Lines 2-14), scalar loops.

    Exists only as the ground-truth for equivalence tests — O(ndk·t)
    with Python-level loops, usable on toy sizes.
    """
    xf, xb, y = xf.copy(), xb.copy(), y.copy()
    n, d = f.shape
    k2 = y.shape[1]
    sf = xf @ y.T - f
    sb = xb @ y.T - b
    for _ in range(t):
        for vi in range(n):
            for l in range(k2):
                denom = y[:, l] @ y[:, l]
                if denom < _TINY:
                    continue
                muf = (sf[vi] @ y[:, l]) / denom  # Equation (16)
                mub = (sb[vi] @ y[:, l]) / denom
                xf[vi, l] -= muf  # Equation (13)
                xb[vi, l] -= mub  # Equation (14)
                sf[vi] -= muf * y[:, l]  # Equation (18)
                sb[vi] -= mub * y[:, l]  # Equation (19)
        for rj in range(d):
            for l in range(k2):
                denom = xf[:, l] @ xf[:, l] + xb[:, l] @ xb[:, l]
                if denom < _TINY:
                    continue
                muy = (xf[:, l] @ sf[:, rj] + xb[:, l] @ sb[:, rj]) / denom  # (17)
                y[rj, l] -= muy  # Equation (15)
                sf[:, rj] -= muy * xf[:, l]  # Equation (20)
                sb[:, rj] -= muy * xb[:, l]
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
    d, k2 = y.shape
    for _ in range(t):

        def ccd_block(blk, m, x, y=y):
            x = np.stack(x_phase(*m, *x, y))
            return x, np.concatenate([a.ravel() for a in moments(*m, *x)])

        state, parts = map_blocks(state, ccd_block)
        gc = np.sum(parts, axis=0)
        g, c = gc[: k2 * k2].reshape(k2, k2), gc[k2 * k2 :].reshape(k2, d)
        y = y_phase_from_moments(y, g, c)
    return state, y


def collect_embeddings(
    state: DataFrame, n: int, k2: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pull the final per-node embeddings ``(Xf, Xb)`` back to the driver."""
    xf, xb = state_to_numpy(state, n, k2, "x")
    return xf, xb
