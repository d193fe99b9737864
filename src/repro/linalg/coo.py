"""NumPy COO kernels shared by both PANE pipelines.

A plan holds only the pattern of ``A``, the graph's edges. Every weight
the walks need factors into diagonal scalings: ``P = D^{-1} A`` is
``inv_out_degree`` applied to the rows of ``A·v`` (or, for ``Pᵀ``, to
``v`` before ``Aᵀ``), and the baselines' ``D̃^{-1/2}(A+I)D̃^{-1/2}`` is one
scaling on each side. So ``coo_spmm`` is a pure gather-add and the
scalings cost one multiply per row and column, not one per edge and
column.

``coo_plan`` lays one direction of the pattern out once in the
jagged-diagonal (JAD) format of Saad (SIAM J. Sci. Stat. Comput., 1989):
the output rows ordered by entry count, descending, and slot ``k``
holding the ``k``-th entry of every row that has more than ``k``. Those
rows are a prefix of the row order, so each of the ``t`` products of an
APMI run (Alg. 2), or of one PAPMI column-block task (Alg. 6), adds one
gathered slot at a time into a contiguous ``(rows, width)`` accumulator
and scatters it once; no temporary is ``nnz × width``. The slot loop
stops at the first slot with fewer than ``_MIN_SLOT_ROWS`` rows, and the
rest of those few heavy rows' entries go through one gather plus
``np.add.reduceat``, so a hub is not one slot per entry. Each output
column is summed in the same order at any width, so splitting the
columns into blocks gives the same bits; ``affinity.propagate`` relies
on that to walk a few cache-sized column blocks one after another.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Measured on a 4-core box: the bench stand-ins run as fast with any value
# from 4 to 128, and ~20% slower at 256. At 16, 16 hub rows of 2000 entries
# at width 8 ran 4× slower than at 32 (per-slot overhead); at 64 and 128,
# 48 such rows at widths 64–200 ran 2–3× slower (the tail's gather).
_MIN_SLOT_ROWS = 32


class CooPlan(NamedTuple):
    """The pattern of a COO matrix in jagged-diagonal order.

    ``rows`` are the output rows, most entries first. Slot ``k`` is
    ``cols[bounds[k]:bounds[k+1]]`` (input rows) for the first
    ``bounds[k+1] - bounds[k]`` of ``rows``. The tail holds the remaining
    entries of ``rows[:len(tail_starts)]``, row by row, as ``reduceat``
    segments.
    """

    rows: np.ndarray
    bounds: np.ndarray
    cols: np.ndarray
    tail_starts: np.ndarray
    tail_cols: np.ndarray


def inv_out_degree(n: int, src: np.ndarray) -> np.ndarray:
    """``1 / outdeg``, the diagonal of ``D^{-1}`` in ``P = D^{-1} A``; 0 for dangling nodes.

    Duplicate edges count once each toward the out-degree. A dangling
    node (out-degree 0) has a zero row of ``P`` (DESIGN.md deviation #3).
    """
    deg = np.bincount(src, minlength=n).astype(np.float64)
    return np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)


def coo_plan(out_idx: np.ndarray, in_idx: np.ndarray) -> CooPlan:
    """Lay the COO pattern ``(out_idx, in_idx)`` out in JAD order, once.

    Each row keeps its entries in their stable sort order.
    """
    order = np.argsort(out_idx, kind="stable")
    ids = out_idx[order]
    first = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))  # each row's start in ``order``
    counts = np.diff(first, append=len(ids))
    by_count = np.argsort(-counts, kind="stable")
    rows, first, counts = ids[first[by_count]], first[by_count], counts[by_count]
    # Slot k holds the rows with more than k entries; it has at least
    # _MIN_SLOT_ROWS of them while k is below the _MIN_SLOT_ROWS-th count.
    n_slots = int(counts[_MIN_SLOT_ROWS - 1]) if len(rows) >= _MIN_SLOT_ROWS else 0
    per_slot = np.searchsorted(-counts, -np.arange(n_slots)).tolist()
    slot_idx = np.concatenate([order[:0]] + [order[first[:c] + k] for k, c in enumerate(per_slot)])
    heavy = counts > n_slots  # a prefix of ``rows``, shorter than _MIN_SLOT_ROWS
    rest = counts[heavy] - n_slots
    tail_idx = np.concatenate(
        [order[:0]] + [order[f : f + r] for f, r in zip((first[heavy] + n_slots).tolist(), rest.tolist())]
    )
    return CooPlan(rows, np.cumsum([0] + per_slot), in_idx[slot_idx], np.cumsum(rest) - rest, in_idx[tail_idx])


def coo_spmm(plan: CooPlan, v: np.ndarray, n: int) -> np.ndarray:
    """``out[out_idx] += v[in_idx]`` — the pattern times dense, ``(n, v.shape[1])``.

    A pure gather-add: weights that factor as diagonal scalings are
    applied by the caller, once per row rather than once per entry.
    Temporaries are at most ``(rows, width)``, plus the heavy rows' tail.
    """
    acc = np.zeros((len(plan.rows), v.shape[1]))
    bounds = plan.bounds.tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        acc[: b - a] += v[plan.cols[a:b]]
    if len(plan.tail_starts):
        acc[: len(plan.tail_starts)] += np.add.reduceat(v[plan.tail_cols], plan.tail_starts, axis=0)
    out = np.zeros((n, v.shape[1]))
    out[plan.rows] = acc
    return out


def coo_dense(n: int, d: int, rows: np.ndarray, cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The dense ``(n, d)`` matrix of COO entries; duplicate pairs add up."""
    out = np.zeros((n, d))
    np.add.at(out, (rows, cols), w)
    return out


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to sum 1; all-zero rows stay zero."""
    s = m.sum(axis=1, keepdims=True)
    return np.divide(m, s, out=np.zeros_like(m), where=s > 0)


def normalize_cols(m: np.ndarray) -> np.ndarray:
    """Scale each column to sum 1; all-zero columns stay zero."""
    s = m.sum(axis=0, keepdims=True)
    return np.divide(m, s, out=np.zeros_like(m), where=s > 0)


def normalize_rows_l2(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; all-zero rows stay zero."""
    s = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, s, out=np.zeros_like(m), where=s > 0)
