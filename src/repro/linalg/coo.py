"""NumPy COO kernels shared by both PANE pipelines.

The random-walk matrix ``P = D^{-1} A`` is held as COO arrays ``(src,
dst, w)``. ``coo_plan`` sorts one direction of it by output row once, so
each of the ``t`` products of an APMI run (Alg. 2), or of one PAPMI
column-block task (Alg. 6), is a gather plus one ``np.add.reduceat`` —
``np.add.at`` is an order of magnitude slower at bench scale.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class CooPlan(NamedTuple):
    """A COO matrix sorted by output row: ``out[rows] = reduceat(w·V[cols], starts)``."""

    rows: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    w: np.ndarray


def walk_weights(n: int, src: np.ndarray) -> np.ndarray:
    """Random-walk weights ``w = 1 / outdeg(src)``: the nonzeros of ``P = D^{-1} A``.

    Duplicate edges count once each toward the out-degree and each carries
    its own weight. Dangling nodes (out-degree 0) have no edge, hence a
    zero row of ``P`` (DESIGN.md deviation #3).
    """
    deg = np.bincount(src, minlength=n).astype(np.float64)
    return 1.0 / deg[src]


def coo_plan(out_idx: np.ndarray, in_idx: np.ndarray, w: np.ndarray) -> CooPlan:
    """Sort the COO entries ``(out_idx, in_idx, w)`` by output row, once."""
    order = np.argsort(out_idx, kind="stable")
    rows, starts = np.unique(out_idx[order], return_index=True)
    return CooPlan(rows, starts, in_idx[order], w[order][:, None])


def coo_spmm(plan: CooPlan, v: np.ndarray, n: int) -> np.ndarray:
    """``out[out_idx] += w · v[in_idx]`` — sparse times dense, ``(n, v.shape[1])``."""
    out = np.zeros((n, v.shape[1]))
    if len(plan.cols):
        contrib = v[plan.cols]  # one (nnz, width) temporary, scaled in place
        contrib *= plan.w
        out[plan.rows] = np.add.reduceat(contrib, plan.starts, axis=0)
    return out


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to sum 1; all-zero rows stay zero."""
    s = m.sum(axis=1, keepdims=True)
    return np.divide(m, s, out=np.zeros_like(m), where=s > 0)


def normalize_cols(m: np.ndarray) -> np.ndarray:
    """Scale each column to sum 1; all-zero columns stay zero."""
    s = m.sum(axis=0, keepdims=True)
    return np.divide(m, s, out=np.zeros_like(m), where=s > 0)
