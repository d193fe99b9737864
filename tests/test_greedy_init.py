"""Tests for GreedyInit (Alg. 3) / SMGreedyInit (Alg. 7) — Lemma 4.2 invariants."""
import numpy as np
import pytest

from repro.core.affinity import apmi_numpy
from repro.core.greedy_init import (
    greedy_init_numpy,
    random_init_numpy,
    sm_greedy_init_spark,
)
from repro.linalg import state_to_numpy
from tests.spark_states import pinned_state


def _affinities(n=30, d=10, seed=0):
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        for _ in range(3):
            j = int(rng.integers(0, n))
            if j != i:
                src.append(i)
                dst.append(j)
    node = rng.integers(0, n, 3 * n).astype(np.int64)
    attr = rng.integers(0, d, 3 * n).astype(np.int64)
    return apmi_numpy(
        n, d, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
        node, attr, np.ones(3 * n), 0.5, 5,
    )


class TestGreedyInitNumpy:
    def test_forward_reconstruction_near_best_rank(self):
        f, b = _affinities()
        k2 = 4
        xf, xb, y = greedy_init_numpy(f, b, k2, t=6)
        err = np.linalg.norm(f - xf @ y.T)
        u, s, vt = np.linalg.svd(f, full_matrices=False)
        best = np.linalg.norm(f - (u[:, :k2] * s[:k2]) @ vt[:k2])
        assert err <= 1.1 * best

    def test_y_orthonormal(self):
        f, b = _affinities(seed=1)
        _, _, y = greedy_init_numpy(f, b, 4, t=6)
        assert np.allclose(y.T @ y, np.eye(4), atol=1e-8)

    def test_xb_equals_b_projected(self):
        """Algorithm 3 Line 2: Xb is seeded as B'·Y exactly."""
        f, b = _affinities(seed=2)
        _, xb, y = greedy_init_numpy(f, b, 4, t=6)
        assert np.allclose(xb, b @ y)

    def test_backward_reconstruction_reasonable(self):
        f, b = _affinities(seed=3)
        _, xb, y = greedy_init_numpy(f, b, 5, t=6)
        # Xb·Y^T = B'YY^T: projection of B' onto Y's column space — must
        # beat the zero matrix by a wide margin (the whole point of the
        # greedy seed)
        assert np.linalg.norm(b - xb @ y.T) < 0.9 * np.linalg.norm(b)

    def test_random_init_shapes_and_determinism(self):
        xf, xb, y = random_init_numpy(10, 6, 3, seed=5)
        xf2, xb2, y2 = random_init_numpy(10, 6, 3, seed=5)
        assert xf.shape == (10, 3) and xb.shape == (10, 3) and y.shape == (6, 3)
        assert np.array_equal(xf, xf2) and np.array_equal(y, y2)

    def test_greedy_beats_random_init_objective(self):
        from repro.core.ccd import objective

        f, b = _affinities(seed=6)
        k2 = 4
        xg = greedy_init_numpy(f, b, k2, t=6)
        xr = random_init_numpy(f.shape[0], f.shape[1], k2, seed=1)
        assert objective(f, b, *xg) < objective(f, b, *xr)


class TestSMGreedyInitSpark:
    @pytest.mark.parametrize("nb", [1, 3])
    def test_lemma42_invariants(self, spark, nb):
        """Split-merge init reconstructs F' as well as the rank-k2 optimum
        allows (within the split-merge slack) and produces orthonormal Y."""
        n, d = 30, 10
        f, b = _affinities()
        k2 = 4
        state, y = sm_greedy_init_spark(
            pinned_state(spark, nb, f, b), d, k2, t=6, seed=0
        )
        assert np.allclose(y.T @ y, np.eye(k2), atol=1e-8)
        xf, xb = state_to_numpy(state, n, k2, "x")
        f_rows, b_rows = state_to_numpy(state, n, d)
        assert np.array_equal(f_rows, f) and np.array_equal(b_rows, b)
        u, s, vt = np.linalg.svd(f, full_matrices=False)
        best = np.linalg.norm(f - (u[:, :k2] * s[:k2]) @ vt[:k2])
        err = np.linalg.norm(f_rows - xf @ y.T)
        assert err <= 1.5 * best + 1e-9  # split-merge introduces bounded slack
        # Xb = B'[Vi]·Y blockwise (Alg. 7 Line 9)
        assert np.allclose(xb, b_rows @ y, atol=1e-8)

    def test_single_block_matches_numpy_greedy_quality(self, spark):
        """nb=1 split-merge ≈ single-thread GreedyInit (same SVD problem)."""
        from repro.core.ccd import objective

        n, d = 30, 10
        f, b = _affinities(seed=7)
        k2 = 4
        state, y = sm_greedy_init_spark(
            pinned_state(spark, 1, f, b), d, k2, t=6, seed=0
        )
        xf, xb = state_to_numpy(state, n, k2, "x")
        obj_sm = objective(f, b, xf, xb, y)
        xg = greedy_init_numpy(f, b, k2, t=6)
        obj_st = objective(f, b, *xg)
        assert obj_sm <= 1.05 * obj_st + 1e-9

    def test_more_blocks_than_wide(self, spark):
        """Blocks narrower than k2 rows still produce fixed-width output."""
        n, d = 9, 6
        rng = np.random.default_rng(9)
        f = rng.random((n, d))
        b = rng.random((n, d))
        state, y = sm_greedy_init_spark(
            pinned_state(spark, 4, f, b), d, 4, t=3, seed=2
        )
        xf, _ = state_to_numpy(state, n, 4, "x")
        assert xf.shape == (n, 4) and np.all(np.abs(xf).sum(axis=1) > 0)
        assert y.shape == (d, 4)
