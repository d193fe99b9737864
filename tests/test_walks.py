"""Tests for the Monte-Carlo random-walk oracle (``tests/walks.py``, DESIGN.md system #3)."""
import numpy as np
import pytest

from tests.walks import (
    Graph,
    empirical_affinities,
    exact_walk_probs,
    sample_backward_walks,
    sample_forward_walks,
)


def _line_graph():
    """v0 → v1 → v2; attrs: v0-r0, v1-r1, v2-r2 (hand-solvable)."""
    return Graph(3, 3, [(0, 1), (1, 2)], [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)])


class TestExactWalkProbs:
    def test_line_graph_forward_hand_computed(self):
        g = _line_graph()
        alpha = 0.5
        pf, _ = exact_walk_probs(g, alpha)
        # from v0: stop at v0 w.p. .5 → r0; reach v1 (.5): stop .5·.5 → r1;
        # reach v2 (.25): v2 dangling in matrix model... v2 has no out-edges,
        # so P row is zero: mass .25·(stay) → only the alpha-stop counts.
        # pf(v0,r0)=.5, pf(v0,r1)=.25, pf(v0,r2)=.25 (all residual mass
        # parks at v2: zero P row keeps it there and alpha-stops it over
        # the infinite tail: sum_{l>=2} .25 * ... — verify by simplex: rows
        # must sum to <= 1.
        assert pf[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert pf[0, 1] == pytest.approx(0.25, abs=1e-9)
        assert pf[0].sum() <= 1.0 + 1e-9

    def test_terminal_node_self_mass(self):
        g = _line_graph()
        pf, _ = exact_walk_probs(g, 0.5)
        # v2 has no out-edges: all its forward mass stops at itself → r2
        assert pf[2, 2] == pytest.approx(0.5, abs=1e-9)  # alpha-stop at l=0
        assert pf[2, [0, 1]].sum() == 0.0

    def test_backward_line_graph(self):
        g = _line_graph()
        _, pb = exact_walk_probs(g, 0.5)
        # backward from r0 starts at v0 (only holder): stops at v0 w.p. .5,
        # at v1 w.p. .25, rest parks at v2.
        assert pb[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert pb[1, 0] == pytest.approx(0.25, abs=1e-9)

    def test_probability_simplex(self):
        rng = np.random.default_rng(0)
        n, d = 15, 5
        edges = [(i, int(rng.integers(0, n))) for i in range(n) for _ in range(3)]
        edges = [(s, t) for s, t in edges if s != t]
        assoc = [(v, int(rng.integers(0, d)), 1.0) for v in range(n)]
        pf, pb = exact_walk_probs(Graph(n, d, edges, assoc), 0.3)
        assert (pf >= -1e-12).all() and (pf.sum(axis=1) <= 1 + 1e-9).all()
        assert (pb >= -1e-12).all() and (pb.sum(axis=0) <= 1 + 1e-9).all()


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_forward_sampling_matches_exact(self, alpha):
        rng = np.random.default_rng(1)
        n, d = 10, 4
        # every node: out-edges and ≥1 attribute → sampler ≡ matrix model
        edges = []
        for i in range(n):
            for _ in range(3):
                j = int(rng.integers(0, n))
                while j == i:  # keep every node non-dangling (deviation #3)
                    j = int(rng.integers(0, n))
                edges.append((i, j))
        assoc = [(v, int(rng.integers(0, d)), 1.0 + v % 2) for v in range(n)]
        g = Graph(n, d, edges, assoc)
        pf_mc = sample_forward_walks(g, alpha, nr=20000, seed=2)
        pf_ex, _ = exact_walk_probs(g, alpha)
        assert np.abs(pf_mc - pf_ex).max() < 0.02

    def test_backward_sampling_matches_exact(self):
        rng = np.random.default_rng(3)
        n, d = 8, 3
        edges = []
        for i in range(n):
            for _ in range(2):
                # guarantee out-degree ≥ 2: dangling nodes are a documented
                # sampler/matrix divergence (DESIGN.md deviation #3)
                j = int(rng.integers(0, n))
                while j == i:
                    j = int(rng.integers(0, n))
                edges.append((i, j))
        assoc = [(v, v % d, 1.0) for v in range(n)]
        g = Graph(n, d, edges, assoc)
        pb_mc = sample_backward_walks(g, 0.5, nr=60000, seed=4)
        _, pb_ex = exact_walk_probs(g, 0.5)
        assert np.abs(pb_mc - pb_ex).max() < 0.02

    def test_footnote1_restart_attributeless_node(self):
        """Footnote 1: terminating on an attribute-less node restarts.

        v0 → v1 (no attrs) → v2 (r0). Sampled forward walks from v0 must
        put ALL mass on attrs reachable eventually (r0 or v0's own r1),
        never "lose" mass — unlike the matrix model, which zeroes the
        attribute-less node's row (DESIGN.md deviation #2).
        """
        g = Graph(3, 2, [(0, 1), (1, 2)], [(0, 1, 1.0), (2, 0, 1.0)])
        pf = sample_forward_walks(g, 0.5, nr=4000, seed=5)
        assert pf[0].sum() == pytest.approx(1.0)  # restart conserves mass
        pf_ex, _ = exact_walk_probs(g, 0.5)
        assert pf_ex[0].sum() < 1.0  # matrix model drops the v1-mass


class TestEmpiricalAffinities:
    def test_zero_guards(self):
        pf = np.zeros((3, 2))
        pb = np.zeros((3, 2))
        fa, ba = empirical_affinities(pf, pb)
        assert np.allclose(fa, 0) and np.allclose(ba, 0)

    def test_spmi_positive(self):
        rng = np.random.default_rng(6)
        pf = rng.random((5, 3))
        pb = rng.random((5, 3))
        fa, ba = empirical_affinities(pf, pb)
        assert (fa >= 0).all() and (ba >= 0).all()

    def test_spmi_order_preserved_within_column(self):
        # SPMI is monotone in p within a column (same normalizer)
        pf = np.array([[0.1, 0.0], [0.3, 0.0], [0.2, 0.0]])
        fa, _ = empirical_affinities(pf, pf)
        col = fa[:, 0]
        assert col[1] > col[2] > col[0]
