"""Monte-Carlo random-walk oracle on the extended graph (Section 2.2).

APMI's closed-form affinities (Algorithm 2) are tested against the
paper's probabilistic model: forward/backward random walks with restart
on the extended node∪attribute graph, including footnote 1's
restart-on-attributeless-node rule, sampled here or solved exactly.
Everything operates on small in-memory graphs; the library never samples
a walk, which is the whole point of APMI, and never imports this module.
"""
from __future__ import annotations

import numpy as np


class Graph:
    """A tiny in-memory attributed directed graph for walk simulation.

    ``adj[v]`` lists v's out-neighbors; ``attr_w[v]`` maps attribute id
    to weight (the ER associations of the extended graph in Figure 1).
    """

    def __init__(self, n: int, d: int, edges: list[tuple[int, int]],
                 assoc: list[tuple[int, int, float]]):
        self.n, self.d = n, d
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for s, t in edges:
            self.adj[s].append(t)
        self.attr_ids: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(n)]
        self.attr_ps: list[np.ndarray] = [np.empty(0) for _ in range(n)]
        by_node: dict[int, list[tuple[int, float]]] = {}
        by_attr: dict[int, list[tuple[int, float]]] = {}
        for v, r, w in assoc:
            by_node.setdefault(v, []).append((r, w))
            by_attr.setdefault(r, []).append((v, w))
        for v, rw in by_node.items():
            ids = np.array([r for r, _ in rw], dtype=np.int64)
            ws = np.array([w for _, w in rw], dtype=np.float64)
            self.attr_ids[v], self.attr_ps[v] = ids, ws / ws.sum()
        # column-normalized: the backward walk's node-selection distribution
        self.attr_nodes: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(d)]
        self.attr_node_ps: list[np.ndarray] = [np.empty(0) for _ in range(d)]
        for r, vw in by_attr.items():
            ids = np.array([v for v, _ in vw], dtype=np.int64)
            ws = np.array([w for _, w in vw], dtype=np.float64)
            self.attr_nodes[r], self.attr_node_ps[r] = ids, ws / ws.sum()


def _walk_from(g: Graph, v: int, alpha: float, rng: np.random.Generator) -> int:
    """One RWR from node v: returns the terminal node."""
    cur = v
    while True:
        if rng.random() < alpha or not g.adj[cur]:
            return cur
        cur = g.adj[cur][rng.integers(len(g.adj[cur]))]


def sample_forward_walks(
    g: Graph, alpha: float, nr: int, seed: int = 0, max_restarts: int = 1000
) -> np.ndarray:
    """Empirical ``pf``: (n, d) matrix of forward walk frequencies.

    Implements footnote 1: if the walk terminates at an attribute-less
    node, restart from the source and repeat (bounded by
    ``max_restarts`` to stay total on pathological graphs; a source
    whose reachable set has no attributes yields a zero row).
    """
    rng = np.random.default_rng(seed)
    pf = np.zeros((g.n, g.d))
    for v in range(g.n):
        for _ in range(nr):
            for _ in range(max_restarts):
                term = _walk_from(g, v, alpha, rng)
                if len(g.attr_ids[term]):
                    r = rng.choice(g.attr_ids[term], p=g.attr_ps[term])
                    pf[v, r] += 1
                    break
    return pf / nr


def sample_backward_walks(
    g: Graph, alpha: float, nr: int, seed: int = 1
) -> np.ndarray:
    """Empirical ``pb``: (n, d) matrix of backward walk frequencies."""
    rng = np.random.default_rng(seed)
    pb = np.zeros((g.n, g.d))
    for r in range(g.d):
        if not len(g.attr_nodes[r]):
            continue
        for _ in range(nr):
            v0 = rng.choice(g.attr_nodes[r], p=g.attr_node_ps[r])
            term = _walk_from(g, v0, alpha, rng)
            pb[term, r] += 1
    return pb / nr


def exact_walk_probs(
    g: Graph, alpha: float, iters: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(pf, pb)`` by power iteration of Equation (5) to convergence.

    Uses the matrix model (zero rows for dangling/attribute-less nodes
    — DESIGN.md deviations #2–3), so it matches APMI's semantics, and
    matches the sampled walks whenever every node reachable from a
    source has ≥1 attribute and ≥0 dangling issues.
    """
    P = np.zeros((g.n, g.n))
    for v, outs in enumerate(g.adj):
        for u in outs:
            P[v, u] += 1.0 / len(outs)
    # np.add.at: duplicate (node, attr) association entries accumulate,
    # matching both the sampler's choice() over entries and APMI's COO sum.
    Rr = np.zeros((g.n, g.d))
    for v in range(g.n):
        np.add.at(Rr[v], g.attr_ids[v], g.attr_ps[v])
    Rc = np.zeros((g.n, g.d))
    for r in range(g.d):
        np.add.at(Rc[:, r], g.attr_nodes[r], g.attr_node_ps[r])
    pf, pb = Rr.copy(), Rc.copy()
    for _ in range(iters):
        pf = (1 - alpha) * P @ pf + alpha * Rr
        pb = (1 - alpha) * P.T @ pb + alpha * Rc
    return pf, pb


def empirical_affinities(
    pf: np.ndarray, pb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Equations (2)–(3): SPMI affinities from walk probabilities (base-2 log).

    Zero-probability columns/rows are guarded (affinity 0 — log(0+1)).
    """
    n, d = pf.shape
    colsum = pf.sum(axis=0)
    fa = np.log2(np.divide(n * pf, colsum, out=np.zeros_like(pf),
                           where=colsum > 0) + 1)
    rowsum = pb.sum(axis=1, keepdims=True)
    ba = np.log2(np.divide(d * pb, rowsum, out=np.zeros_like(pb),
                           where=rowsum > 0) + 1)
    return fa, ba
