"""Tests for APMI (Algorithm 2) — the NumPy reference affinity pipeline."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.affinity import apmi_numpy, attr_weights, num_iterations, propagate
from repro.datasets import attributed_graph
from repro.linalg import coo_dense, inv_out_degree
from tests.walks import Graph, empirical_affinities, exact_walk_probs


def _random_instance(n=14, d=5, deg=3, seed=0, weights=False):
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        for _ in range(deg):
            j = int(rng.integers(0, n))
            if j != i:
                src.append(i)
                dst.append(j)
    node = np.arange(n, dtype=np.int64)
    attr = rng.integers(0, d, n)
    w = 1.0 + rng.random(n) if weights else np.ones(n)
    return (
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        node,
        attr.astype(np.int64),
        w,
    )


class TestNumIterations:
    def test_paper_default(self):
        # ϵ=0.015, α=0.5 → log(.015)/log(.5) − 1 ≈ 5.06 → 6 (ceil, so the
        # Lemma 3.1 tail bound (1-α)^{t+1} ≤ ϵ holds)
        t = num_iterations(0.015, 0.5)
        assert t == 6
        assert (1 - 0.5) ** (t + 1) <= 0.015

    @pytest.mark.parametrize("eps", [0.001, 0.005, 0.015, 0.05, 0.25])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_tail_bound_holds(self, eps, alpha):
        t = num_iterations(eps, alpha)
        assert (1 - alpha) ** (t + 1) <= eps + 1e-12

    def test_monotone_in_eps(self):
        ts = [num_iterations(e, 0.5) for e in (0.25, 0.05, 0.015, 0.005, 0.001)]
        assert ts == sorted(ts)
        assert ts[0] >= 1

    def test_paper_figure4c_range(self):
        # paper §5.6: at α=0.5, ϵ from 0.001 to 0.25 ↔ t from ~9 to 1
        assert num_iterations(0.25, 0.5) in (1, 2)
        assert num_iterations(0.001, 0.5) in (9, 10)


def normalize_attrs(n, d, node, attr, w):
    """Dense ``(R_r, R_c)``, as APMI and PAPMI build them from COO associations."""
    return tuple(coo_dense(n, d, node, attr, x) for x in attr_weights(n, d, node, attr, w))


class TestNormalizeAttrs:
    def test_row_and_col_stochastic(self):
        src, dst, node, attr, w = _random_instance(weights=True, seed=1)
        rr, rc = normalize_attrs(14, 5, node, attr, w)
        assert np.allclose(rr.sum(axis=1), 1.0)  # every node has attrs here
        col_has = rc.sum(axis=0) > 0
        assert np.allclose(rc.sum(axis=0)[col_has], 1.0)

    def test_zero_rows_for_attributeless_nodes(self):
        rr, rc = normalize_attrs(
            3, 2, np.array([0]), np.array([1]), np.array([2.0])
        )
        assert np.allclose(rr[1], 0) and np.allclose(rr[2], 0)
        assert rr[0, 1] == 1.0
        assert rc[0, 1] == 1.0

    def test_duplicate_associations_accumulate(self):
        rr, _ = normalize_attrs(
            1, 2, np.array([0, 0, 0]), np.array([0, 0, 1]), np.array([1.0, 1.0, 2.0])
        )
        assert rr[0, 0] == pytest.approx(0.5)
        assert rr[0, 1] == pytest.approx(0.5)

    def test_weighted(self):
        rr, rc = normalize_attrs(
            2, 2, np.array([0, 0, 1]), np.array([0, 1, 0]), np.array([3.0, 1.0, 1.0])
        )
        assert rr[0, 0] == pytest.approx(0.75)
        assert rc[0, 0] == pytest.approx(0.75)  # col 0: weights 3 vs 1


class TestApmiMatchesWalkModel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_matches_exact_walks_at_convergence(self, seed, alpha):
        src, dst, node, attr, w = _random_instance(seed=seed, weights=True)
        n, d = 14, 5
        g = Graph(
            n, d, list(zip(src.tolist(), dst.tolist())),
            list(zip(node.tolist(), attr.tolist(), w.tolist())),
        )
        pf, pb = exact_walk_probs(g, alpha)
        f_ref, b_ref = empirical_affinities(pf, pb)
        f, b = apmi_numpy(n, d, src, dst, node, attr, w, alpha, t=60)
        assert np.abs(f - f_ref).max() < 1e-10
        assert np.abs(b - b_ref).max() < 1e-10

    def test_lemma31_truncation_bounds(self):
        """Lemma 3.1: 2^F'−1 vs 2^F−1 ratio bounded by the ϵ-tail."""
        src, dst, node, attr, w = _random_instance(seed=3)
        n, d = 14, 5
        alpha, eps = 0.5, 0.015
        t = num_iterations(eps, alpha)
        f_t, b_t = apmi_numpy(n, d, src, dst, node, attr, w, alpha, t=t)
        f_inf, b_inf = apmi_numpy(n, d, src, dst, node, attr, w, alpha, t=200)
        # the raw propagated probabilities differ by ≤ ϵ entrywise, so the
        # normalized-and-logged affinities are close in the 2^x−1 domain
        rat_f = (2 ** f_t - 1) / np.maximum(2 ** f_inf - 1, 1e-12)
        ok = (2 ** f_inf - 1) > 0.05  # bound is only tight away from zero
        assert rat_f[ok].min() > 0.5 and rat_f[ok].max() < 2.0
        rat_b = (2 ** b_t - 1) / np.maximum(2 ** b_inf - 1, 1e-12)
        okb = (2 ** b_inf - 1) > 0.05
        assert rat_b[okb].min() > 0.5 and rat_b[okb].max() < 2.0

    def test_affinities_nonnegative(self):
        src, dst, node, attr, w = _random_instance(seed=4)
        f, b = apmi_numpy(14, 5, src, dst, node, attr, w, 0.5, 6)
        assert (f >= 0).all() and (b >= 0).all()

    def test_dangling_node_zero_p_row(self):
        """A node with no out-edges contributes a zero P row (deviation #3)."""
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 2], dtype=np.int64)  # node 2 dangling
        node = np.array([0, 1, 2], dtype=np.int64)
        attr = np.array([0, 1, 2], dtype=np.int64)
        w = np.ones(3)
        f, b = apmi_numpy(3, 3, src, dst, node, attr, w, 0.5, 20)
        assert np.isfinite(f).all() and np.isfinite(b).all()
        # node 2's forward affinity concentrates on its own attribute r2
        assert f[2, 2] > f[2, 0] and f[2, 2] > f[2, 1]

    def test_attributeless_node_zero_f_row_mass_conserving_elsewhere(self):
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 0], dtype=np.int64)  # 3-cycle
        node = np.array([1, 2], dtype=np.int64)  # node 0 has no attributes
        attr = np.array([0, 1], dtype=np.int64)
        w = np.ones(2)
        f, b = apmi_numpy(3, 2, src, dst, node, attr, w, 0.5, 20)
        assert np.isfinite(f).all()
        # node 0 still gets forward affinity through its out-neighbor v1
        assert f[0, 0] > 0

    def test_deterministic(self):
        src, dst, node, attr, w = _random_instance(seed=5)
        f1, b1 = apmi_numpy(14, 5, src, dst, node, attr, w, 0.5, 6)
        f2, b2 = apmi_numpy(14, 5, src, dst, node, attr, w, 0.5, 6)
        assert np.array_equal(f1, f2) and np.array_equal(b1, b2)

    def test_log_base_two(self):
        """Affinity is log2 (Lemma 3.1 manipulates 2^F − 1)."""
        # single node, single attr: pf_hat = 1, so F = log2(n·1 + 1) = 1
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        f, b = apmi_numpy(
            1, 1, src, dst, np.array([0]), np.array([0]), np.array([1.0]), 0.5, 3
        )
        assert f[0, 0] == pytest.approx(1.0)  # log2(1·1+1) = 1
        assert b[0, 0] == pytest.approx(1.0)


@st.composite
def _walk_cases(draw, width):
    """A multigraph with every kind of row the walk meets, and ``(R_r, R_c)`` to propagate.

    Node ``n-2`` is dangling and ``n-1`` isolated; node 0 has a duplicated
    self-loop and the first edges are repeated. ``n`` runs from below a
    slot's 32 rows to past it, and a hub draws ~2n out-edges from node 1
    and ~2n in-edges into node 2, more than the slots hold, so on larger
    graphs their rest goes through the plan's tail in both directions.
    Some rows of ``R`` are zero (attribute-less nodes).
    """
    n = draw(st.integers(4, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 4 * n))
    src, dst = rng.integers(0, n - 2, m), rng.integers(0, n - 1, m)
    src = np.r_[src, src[:5], 0, 0]
    dst = np.r_[dst, dst[:5], 0, 0]
    if draw(st.booleans()):  # hubs
        src = np.r_[src, np.full(2 * n, 1), rng.integers(0, n - 2, 2 * n)]
        dst = np.r_[dst, rng.integers(0, n - 1, 2 * n), np.full(2 * n, 2 % (n - 1))]
    rr, rc = rng.random((2, n, width)) * (rng.random((2, n, 1)) < 0.8)
    cuts = [0]  # up to 3 cuts into column blocks
    for _ in range(draw(st.integers(0, 3))):
        if width - cuts[-1] >= 2:
            cuts.append(draw(st.integers(cuts[-1] + 1, width - 1)))
    alpha = draw(st.sampled_from([0.15, 0.5, 0.8]))
    return src, dst, rr, rc, alpha, draw(st.integers(1, 6)), cuts + [width]


class TestPropagate:
    @pytest.mark.parametrize("width", [1, 2, 31, 32, 33, 65])
    @given(data=st.data())
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_matches_dense_recurrence(self, width, data):
        """Equation (6) against ``P = D⁻¹A`` built densely; any column blocks keep the bits."""
        src, dst, rr, rc, alpha, t, cuts = data.draw(_walk_cases(width))
        n = rr.shape[0]
        p = coo_dense(n, n, src, dst, inv_out_degree(n, src)[src])
        pf_ref, pb_ref = rr, rc
        for _ in range(t):
            pf_ref = (1 - alpha) * p @ pf_ref + alpha * rr
            pb_ref = (1 - alpha) * p.T @ pb_ref + alpha * rc
        pf, pb = propagate(src, dst, rr, rc, alpha, t)
        assert np.allclose(pf, pf_ref, rtol=1e-12, atol=0)
        assert np.allclose(pb, pb_ref, rtol=1e-12, atol=0)
        # Any column blocks, one column wide too, straddling propagate's own blocks.
        parts = [propagate(src, dst, rr[:, a:b], rc[:, a:b], alpha, t) for a, b in zip(cuts[:-1], cuts[1:])]
        assert np.array_equal(np.hstack([f for f, _ in parts]), pf)
        assert np.array_equal(np.hstack([b for _, b in parts]), pb)


def test_apmi_peak_memory_within_seven_dense_blocks():
    """On the tweibo-attr shape APMI allocates no full-width temporary per step.

    Its inputs ``R_r, R_c`` and outputs ``Pf, Pb`` are four n×d blocks,
    and finishing ``F'`` takes two more; the steps themselves work on one
    column block at a time.
    """
    g = attributed_graph(name="tweibo", seed=0, n=2000, d=200, m=37500, n_labels=8, avg_attrs=6, directed=True)
    tracemalloc.start()
    try:
        apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * g.n * g.d * 8
