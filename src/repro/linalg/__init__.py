"""Linear-algebra substrate for the PANE reproduction.

* **Sparse graph matrices** — the random-walk matrix ``P`` and the
  attribute matrix ``R`` — are COO arrays on the driver and in tasks
  (``coo``: walk weights, presorted SpMM, row/column normalization, the
  kernels both pipelines share).
* **Dense node-indexed matrices** (the affinities ``F'/B'`` and the
  embeddings ``Xf/Xb``) live in Spark as *state DataFrames* (``matrix``):
  one row per node block holding both sides of the block's flattened
  rows, so each of the paper's ``nb`` threads maps to one row and one task.
  ``pin_blocks`` builds a state and ``map_blocks`` runs a pass over it.
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
    map_blocks,
    node_blocks,
    pin_blocks,
    state_to_numpy,
)
from repro.linalg.randsvd import rand_svd  # noqa: F401
