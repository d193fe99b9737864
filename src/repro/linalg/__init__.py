"""Linear-algebra substrate for the PANE reproduction.

* **Sparse graph matrices** — the graph's pattern ``A`` and the
  attribute matrix ``R`` — are COO arrays on the driver and in tasks
  (``coo``: ``1/outdeg``, COO to dense, the jagged-diagonal gather-add
  over ``A``'s pattern, row/column and L2 row normalization, the kernels
  both pipelines and the baselines share).
* **Dense node-indexed matrices** (the affinities ``F'/B'`` and the
  embeddings ``Xf/Xb``) live in Spark as *state DataFrames* (``matrix``):
  one row per node block holding both sides of the block's rows as NumPy
  values, so each of the paper's ``nb`` threads maps to one row and one task.
  ``matrix`` alone runs Spark stages: ``pin_blocks`` builds a state and
  ``map_blocks`` runs a pass over it, each from plain NumPy functions.
* ``randsvd``: the randomized SVD of GreedyInit/SMGreedyInit.
"""
from repro.linalg.coo import (  # noqa: F401
    coo_dense,
    coo_plan,
    coo_spmm,
    inv_out_degree,
    normalize_cols,
    normalize_rows,
    normalize_rows_l2,
)
from repro.linalg.matrix import (  # noqa: F401
    map_blocks,
    node_blocks,
    pin_blocks,
    state_to_numpy,
)
from repro.linalg.randsvd import rand_svd  # noqa: F401
