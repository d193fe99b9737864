"""Unit tests for the randomized SVD substrate (DESIGN.md system #2)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.randsvd import OVERSAMPLE, rand_svd
from tests.naive_randsvd import sketch_rand_svd


def _low_rank(n, d, r, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    if noise:
        m += noise * rng.standard_normal((n, d))
    return m


def _spectrum(n, d, lo, seed=0):
    """An n×d matrix with singular values geometric from 1 down to ``lo``."""
    rng = np.random.default_rng(seed)
    r = min(n, d)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((d, r)))
    return (u * np.geomspace(1.0, lo, r)) @ v.T


def _assert_matches_sketch(m, k, t, seed=0):
    """Singular values and the rank-k reconstruction equal the sketch-side
    oracle's to 1e-10 of σ₁."""
    u, s, v = rand_svd(m, k, t, seed)
    u0, s0, v0 = sketch_rand_svd(m, k, t, seed)
    scale = 1e-10 * np.linalg.norm(m, 2)
    assert np.max(np.abs(np.diag(s) - np.diag(s0))) <= scale
    assert np.max(np.abs(u @ s @ v.T - u0 @ s0 @ v0.T)) <= scale


@st.composite
def _svd_inputs(draw):
    """Both orientations, k up to past min(n, d), t up to past the clamp,
    and a Gaussian or a geometrically decaying spectrum."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    decay = draw(st.sampled_from([None, 1e-1, 1e-3, 1e-6]))
    if decay is None:
        m = np.random.default_rng(seed).standard_normal((n, d))
    else:
        m = _spectrum(n, d, decay, seed)
    k = draw(st.integers(1, min(n, d) + 2))
    return m, k, draw(st.integers(0, 10)), seed


class TestGramSide:
    """The Gram-side power steps equal the sketch-side loop they replace."""

    @given(_svd_inputs())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_equals_sketch_loop(self, case):
        _assert_matches_sketch(*case)

    @pytest.mark.parametrize("n,d", [(300, 60), (60, 300)])
    def test_equals_sketch_loop_on_decay_to_1e6(self, n, d):
        _assert_matches_sketch(_spectrum(n, d, 1e-6, seed=5), 20, 6, seed=2)

    def test_square_netmf_shape_keeps_sketch_bits(self):
        """n×n with n > 2tp: the Gram would cost more than the sketch
        products, so the sketch loop runs and returns its bits."""
        n, k, t = 500, 32, 5
        assert n > 2 * t * (k + OVERSAMPLE)
        m = np.log1p(np.abs(_low_rank(n, n, 40, seed=6, noise=0.1)))
        for a, b in zip(rand_svd(m, k, t, seed=3), sketch_rand_svd(m, k, t, seed=3)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "n,d", [(2708, 200), (677, 200), (256, 200)], ids=["F", "F_block", "merge"]
    )
    def test_pane_shapes_take_gram_side(self, monkeypatch, n, d):
        """F′ (n×d), one node block's F′ᵢ at nb=4, and the (nb·k/2)×d merge
        input at nb=4: t QRs of d×p, then one of n×p."""
        k2, t, p = 64, 6, 64 + OVERSAMPLE
        shapes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: shapes.append(a.shape) or qr(a))
        rand_svd(np.abs(_low_rank(n, d, 80, seed=7, noise=0.1)), k2, t)
        assert shapes == [(d, p)] * t + [(n, p)]


class TestRandSvd:
    @pytest.mark.parametrize("n,d,r", [(40, 25, 5), (25, 40, 5), (100, 30, 10)])
    def test_exact_recovery_of_low_rank(self, n, d, r):
        m = _low_rank(n, d, r)
        u, s, v = rand_svd(m, r, t=5, seed=1)
        assert np.allclose(u @ s @ v.T, m, atol=1e-8)

    def test_shapes(self):
        m = _low_rank(30, 20, 8)
        u, s, v = rand_svd(m, 6, t=3)
        assert u.shape == (30, 6) and s.shape == (6, 6) and v.shape == (20, 6)

    def test_v_orthonormal(self):
        m = _low_rank(50, 30, 10, noise=0.1)
        _, _, v = rand_svd(m, 8, t=4)
        assert np.allclose(v.T @ v, np.eye(8), atol=1e-8)

    def test_u_orthonormal(self):
        m = _low_rank(50, 30, 10, noise=0.1)
        u, _, _ = rand_svd(m, 8, t=4)
        assert np.allclose(u.T @ u, np.eye(8), atol=1e-8)

    def test_sigma_nonnegative_descending(self):
        m = _low_rank(40, 30, 12, noise=0.2)
        _, s, _ = rand_svd(m, 10, t=4)
        diag = np.diag(s)
        assert (diag >= 0).all()
        assert (np.diff(diag) <= 1e-9).all()

    def test_near_optimal_vs_exact_svd(self):
        m = _low_rank(60, 40, 20, noise=0.3, seed=3)
        k = 10
        u, s, v = rand_svd(m, k, t=6, seed=4)
        err = np.linalg.norm(m - u @ s @ v.T)
        u0, s0, vt0 = np.linalg.svd(m, full_matrices=False)
        best = np.linalg.norm(m - (u0[:, :k] * s0[:k]) @ vt0[:k])
        assert err <= 1.10 * best  # within 10% of the optimal rank-k error

    def test_k_exceeds_rank_pads_with_zeros(self):
        m = _low_rank(10, 6, 3)
        u, s, v = rand_svd(m, 8, t=3)
        assert u.shape == (10, 8) and v.shape == (6, 8)
        assert np.allclose(u @ s @ v.T, m, atol=1e-8)
        assert np.allclose(np.diag(s)[6:], 0)

    def test_k_equals_min_dim_is_exact(self):
        m = _low_rank(9, 5, 5, noise=0.5)
        u, s, v = rand_svd(m, 5, t=0)
        assert np.allclose(u @ s @ v.T, m, atol=1e-8)

    def test_deterministic_in_seed(self):
        m = _low_rank(30, 20, 8, noise=0.1)
        r1 = rand_svd(m, 5, t=3, seed=7)
        r2 = rand_svd(m, 5, t=3, seed=7)
        for a, b in zip(r1, r2):
            assert np.array_equal(a, b)

    def test_zero_matrix(self):
        u, s, v = rand_svd(np.zeros((10, 8)), 4, t=2)
        assert np.allclose(u @ s @ v.T, 0)

    def test_more_power_iterations_do_not_hurt(self):
        m = _low_rank(60, 40, 25, noise=0.5, seed=8)
        errs = []
        for t in (0, 2, 6):
            u, s, v = rand_svd(m, 8, t=t, seed=9)
            errs.append(np.linalg.norm(m - u @ s @ v.T))
        assert errs[-1] <= errs[0] + 1e-6
