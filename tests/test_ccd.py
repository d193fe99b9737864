"""Tests for the CCD solver: Algorithm 4 equivalences and PSVDCCD (Alg. 8)."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.affinity import apmi_numpy, num_iterations
from repro.core.ccd import (
    collect_embeddings,
    moments,
    objective,
    psvdccd_spark,
    svdccd_numpy,
    x_phase,
    y_phase_from_moments,
)
from repro.core.greedy_init import greedy_init_numpy, random_init_numpy
from repro.datasets import load
from tests.naive_ccd import loop_x_phase, loop_y_phase_from_moments, naive_svdccd_numpy
from tests.spark_states import pinned_state


def _problem(n=18, d=7, k2=3, seed=0):
    rng = np.random.default_rng(seed)
    f = np.abs(rng.standard_normal((n, d)))
    b = np.abs(rng.standard_normal((n, d)))
    xf, xb, y = random_init_numpy(n, d, k2, seed=seed + 1)
    return f, b, xf, xb, y


class TestLoopInterchangeEquivalence:
    """Vectorized coordinate-major sweeps ≡ the literal Algorithm 4 loops."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("t", [1, 3])
    def test_vectorized_equals_naive(self, seed, t):
        f, b, xf, xb, y = _problem(seed=seed)
        r_fast = svdccd_numpy(f, b, xf, xb, y, t)
        r_naive = naive_svdccd_numpy(f, b, xf, xb, y, t)
        for a, c in zip(r_fast, r_naive):
            assert np.allclose(a, c, atol=1e-9)

    def test_greedy_seeded_equivalence(self):
        f, b, _, _, _ = _problem(seed=3)
        xf, xb, y = greedy_init_numpy(f, b, 3, t=5)
        r_fast = svdccd_numpy(f, b, xf, xb, y, 2)
        r_naive = naive_svdccd_numpy(f, b, xf, xb, y, 2)
        for a, c in zip(r_fast, r_naive):
            assert np.allclose(a, c, atol=1e-9)

    @pytest.mark.parametrize("n,d,k2", [(18, 3, 5), (9, 7, 8)])
    @pytest.mark.parametrize("init", ["random", "greedy"])
    def test_wide_rank_deficient_equals_naive(self, n, d, k2, init):
        """k/2 > d makes YᵀY singular; from GreedyInit, Y also has k/2 − d
        zero-padded columns, which both sweeps must skip."""
        f, b, xf, xb, y = _problem(n=n, d=d, k2=k2, seed=13)
        if init == "greedy":
            xf, xb, y = greedy_init_numpy(f, b, k2, t=5)
            assert np.sum(~y.any(axis=0)) == k2 - d
        r_fast = svdccd_numpy(f, b, xf, xb, y, 2)
        r_naive = naive_svdccd_numpy(f, b, xf, xb, y, 2)
        for a, c in zip(r_fast, r_naive):
            assert np.allclose(a, c, atol=1e-9)


class TestGramXPhase:
    def test_zero_column_guard(self):
        f, b, xf, xb, y = _problem(seed=5)
        y[:, 1] = 0.0
        xf2, xb2 = x_phase(f, b, xf, xb, y)
        assert np.array_equal(xf2[:, 1], xf[:, 1])  # untouched, not NaN
        assert np.array_equal(xb2[:, 1], xb[:, 1])
        assert np.isfinite(xf2).all() and np.isfinite(xb2).all()

    def test_allocates_no_n_by_d_array(self):
        """The sweep reads the residual through YᵀY and M·Y, so its traced
        peak stays below one n×d float64 array."""
        n, d, k2 = 2000, 200, 16
        f, b, xf, xb, y = _problem(n=n, d=d, k2=k2, seed=14)
        tracemalloc.start()
        try:
            x_phase(f, b, xf, xb, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8


class TestMomentYPhase:
    def test_y_phase_moment_identity(self):
        """The driver's moment-based Y sweep equals the residual-maintained
        sweep (the DESIGN.md identity N = G·Y^T − C)."""
        f, b, xf, xb, y = _problem(seed=4)
        # reference: explicit residual maintenance (paper Lines 10-14)
        y_ref = y.copy()
        sf = xf @ y_ref.T - f
        sb = xb @ y_ref.T - b
        for l in range(y.shape[1]):
            denom = xf[:, l] @ xf[:, l] + xb[:, l] @ xb[:, l]
            mu = (xf[:, l] @ sf + xb[:, l] @ sb) / denom
            y_ref[:, l] -= mu
            sf -= np.outer(xf[:, l], mu)
            sb -= np.outer(xb[:, l], mu)
        g = xf.T @ xf + xb.T @ xb
        c = xf.T @ f + xb.T @ b
        y_mom = y_phase_from_moments(y, g, c)
        assert np.allclose(y_mom, y_ref, atol=1e-10)

    def test_zero_column_guard(self):
        f, b, xf, xb, y = _problem(seed=5)
        xf[:, 1] = 0.0
        xb[:, 1] = 0.0
        g = xf.T @ xf + xb.T @ xb
        c = xf.T @ f + xb.T @ b
        y2 = y_phase_from_moments(y, g, c)
        assert np.array_equal(y2[:, 1], y[:, 1])  # untouched, not NaN
        assert np.isfinite(y2).all()


class TestConvergence:
    def test_objective_monotone_decreasing(self):
        f, b, xf, xb, y = _problem(seed=6)
        objs = [objective(f, b, xf, xb, y)]
        for _ in range(6):
            xf, xb = x_phase(f, b, xf, xb, y)
            g = xf.T @ xf + xb.T @ xb
            c = xf.T @ f + xb.T @ b
            y = y_phase_from_moments(y, g, c)
            objs.append(objective(f, b, xf, xb, y))
        assert all(o2 <= o1 + 1e-9 for o1, o2 in zip(objs, objs[1:]))
        assert objs[-1] < objs[0]

    def test_objective_monotone_on_cora(self):
        """Eq. (4) does not increase across ``svdccd_numpy``'s t sweeps on
        the test-profile cora stand-in, from GreedyInit as in ``pane_numpy``."""
        g = load("cora", profile="test")
        t = num_iterations(0.015, 0.5)
        f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, t)
        emb = greedy_init_numpy(f, b, 16, t)
        objs = [objective(f, b, *emb)]
        for _ in range(t):
            emb = svdccd_numpy(f, b, *emb, 1)
            objs.append(objective(f, b, *emb))
        assert all(o2 <= o1 * (1 + 1e-12) for o1, o2 in zip(objs, objs[1:]))
        assert objs[-1] < objs[0]

    def test_x_phase_does_not_mutate_inputs(self):
        f, b, xf, xb, y = _problem(seed=7)
        xf0, xb0 = xf.copy(), xb.copy()
        x_phase(f, b, xf, xb, y)
        assert np.array_equal(xf, xf0) and np.array_equal(xb, xb0)

    def test_greedy_converges_faster_than_random(self):
        """Section 5.7's claim, at the objective level: same #iterations,
        greedy-seeded CCD reaches a lower objective than random-seeded."""
        f, b, _, _, _ = _problem(n=40, d=12, seed=8)
        k2 = 4
        xg = greedy_init_numpy(f, b, k2, t=5)
        xr = random_init_numpy(40, 12, k2, seed=9)
        og = objective(f, b, *svdccd_numpy(f, b, *xg, 2))
        orand = objective(f, b, *svdccd_numpy(f, b, *xr, 2))
        assert og < orand


@st.composite
def _sweep_inputs(draw):
    """A CCD sweep input with every column kind the sweeps must handle:
    k/2 > d, zero-norm columns of Y and of X, nonzero columns whose
    squared norm is below ``_TINY``, and nearly dependent columns of Y
    and of X."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 12))
    k2 = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = np.abs(rng.standard_normal((n, d)))
    b = np.abs(rng.standard_normal((n, d)))
    xf, xb, y = (rng.standard_normal((r, k2)) for r in (n, n, d))
    cols = st.integers(0, k2 - 1)
    for i, j in draw(st.lists(st.tuples(cols, cols), max_size=3)):
        for a in (y, xf, xb):
            a[:, j] = 2.0 * a[:, i] + 1e-7 * rng.standard_normal(len(a))
    for scale in (0.0, 1e-8):
        y[:, draw(st.lists(cols, max_size=2))] *= scale
        x_cols = draw(st.lists(cols, max_size=2))
        xf[:, x_cols] *= scale
        xb[:, x_cols] *= scale
    return f, b, xf, xb, y


def _assert_close(new, ref, rel=1e-10):
    assert np.max(np.abs(new - ref), initial=0.0) <= rel * max(np.max(np.abs(ref), initial=0.0), 1.0)


class TestSweepOracles:
    """The triangular-solve sweeps equal the column-by-column loops."""

    @given(_sweep_inputs())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_sweeps_equal_loops(self, case):
        f, b, xf, xb, y = case
        for new, ref in zip(x_phase(f, b, xf, xb, y), loop_x_phase(f, b, xf, xb, y)):
            _assert_close(new, ref)
        g, c = moments(f, b, xf, xb)
        _assert_close(y_phase_from_moments(y, g, c), loop_y_phase_from_moments(y, g, c))


class TestPsvdccdSpark:
    @pytest.mark.parametrize("nb", [1, 4])
    def test_matches_numpy_given_same_init(self, spark, nb):
        """PSVDCCD ≡ SVDCCD: identical updates from identical seeds."""
        f, b, xf, xb, y = _problem(n=22, d=8, k2=3, seed=10)
        xf_ref, xb_ref, y_ref = svdccd_numpy(f, b, xf, xb, y, t=3)
        state = pinned_state(spark, nb, f, b, xf, xb)
        state, y_sp = psvdccd_spark(state, y, t=3)
        xf_sp, xb_sp = collect_embeddings(state, 22, 3)
        assert np.allclose(y_sp, y_ref, atol=1e-8)
        assert np.allclose(xf_sp, xf_ref, atol=1e-8)
        assert np.allclose(xb_sp, xb_ref, atol=1e-8)

    def test_objective_decreases_distributed(self, spark):
        f, b, xf, xb, y = _problem(n=20, d=6, k2=3, seed=11)
        o0 = objective(f, b, xf, xb, y)
        state = pinned_state(spark, 3, f, b, xf, xb)
        state, y2 = psvdccd_spark(state, y, t=4)
        xf2, xb2 = collect_embeddings(state, 20, 3)
        assert objective(f, b, xf2, xb2, y2) < o0

    def test_zero_iterations_identity(self, spark):
        f, b, xf, xb, y = _problem(seed=12)
        state = pinned_state(spark, 2, f, b, xf, xb)
        state, y2 = psvdccd_spark(state, y, t=0)
        xf2, xb2 = collect_embeddings(state, f.shape[0], 3)
        assert np.allclose(xf2, xf) and np.allclose(y2, y)
