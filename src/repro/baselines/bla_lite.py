"""BLA-lite — bidirectional attribute/link propagation (substitute for [45]).

BLA is the paper's non-embedding attribute-inference baseline: it
jointly infers user attributes and links by iterative bidirectional
propagation. The substitute keeps that inference mechanism — damped
diffusion of the observed attribute indicators over the normalized
topology until fixpoint, scoring a (node, attribute) pair by the
propagated mass — without the joint link-side EM refinement
(DESIGN.md § baseline substitutions). No embedding is produced; the
method exists purely for Table 4's comparison.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.common import row_norm_attr, sym_norm_op

DAMPING = 0.85  # λ: the share of each step's mass that comes from neighbours
ITERS = 10


@dataclass
class BlaScores:
    """Propagated attribute-mass matrix used directly as the scorer."""

    z: np.ndarray  # (n, d)

    def attr_scores(self, nodes: np.ndarray, attrs: np.ndarray) -> np.ndarray:
        return self.z[nodes, attrs]


def bla_lite(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
) -> BlaScores:
    """``Z ← (1-λ)·R + λ·Â·Z`` to (near) fixpoint, seeded by observed R."""
    smooth = sym_norm_op(n, src, dst)
    r = row_norm_attr(n, d, node, attr, weight)
    z = r.copy()
    for _ in range(ITERS):
        z = (1 - DAMPING) * r + DAMPING * smooth(z)
    return BlaScores(z=z)
