"""Tests for the CCD solver: Algorithm 4 equivalences and PSVDCCD (Alg. 8)."""
import tracemalloc

import numpy as np
import pytest

from repro.core.ccd import (
    collect_embeddings,
    objective,
    psvdccd_spark,
    svdccd_numpy,
    x_phase,
    y_phase_from_moments,
)
from repro.core.greedy_init import greedy_init_numpy, random_init_numpy
from tests.naive_ccd import naive_svdccd_numpy
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
