"""Linear-algebra substrate for the PANE reproduction.

* **Sparse graph matrices** — the random-walk matrix ``P`` and the
  attribute matrix ``R`` — are COO arrays on the driver and in tasks
  (``coo``: walk weights, presorted SpMM, row/column normalization, the
  kernels both pipelines share), and COO DataFrames ``(src, dst)`` /
  ``(node, attr, weight)`` at the Spark entry point (``matrix``).
* **Dense node-indexed matrices** (``R_r/R_c``, the affinities ``F'/B'``)
  live in Spark as *state DataFrames*: one row per node with an
  ``array<double>`` vector column, plus a ``block`` column that maps the
  paper's ``nb`` threads onto Spark partitions.
* ``randsvd``: the randomized SVD of GreedyInit/SMGreedyInit.
"""
from repro.linalg.coo import (  # noqa: F401
    coo_plan,
    coo_spmm,
    normalize_cols,
    normalize_rows,
    walk_weights,
)
from repro.linalg.matrix import (  # noqa: F401
    STATE_SCHEMA,
    attrs_df,
    edges_df,
    make_state,
    state_to_numpy,
)
from repro.linalg.randsvd import rand_svd  # noqa: F401
