"""Lemma 4.1: PAPMI (Algorithm 6) returns the same F', B' as APMI (Alg. 2)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.affinity import BLOCK_WIDTH, affinities_spark_to_numpy, apmi_numpy, papmi_from_states


def _instance(n=24, d=7, deg=3, seed=0):
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        for _ in range(deg):
            j = int(rng.integers(0, n))
            if j != i:
                src.append(i)
                dst.append(j)
    n_assoc = 2 * n
    node = rng.integers(0, n, n_assoc).astype(np.int64)
    attr = rng.integers(0, d, n_assoc).astype(np.int64)
    w = 1.0 + rng.random(n_assoc)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), node, attr, w


def _bit_for_bit(d, nb):
    """Whether PAPMI's column blocks give APMI's exact bits: one block, or all ≥2 wide.

    NumPy sums the rows of a one-column block pairwise, but of a wider
    block one row after another, as APMI sums its d columns.
    """
    nc = min(nb, d)
    return nc == 1 or d >= 2 * nc


def _assert_papmi_equals_apmi(f, b, f_ref, b_ref, bit_for_bit):
    if bit_for_bit:
        assert np.array_equal(f, f_ref) and np.array_equal(b, b_ref)
    else:
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9


class TestLemma41:
    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_papmi_equals_apmi(self, spark, nb):
        """Bit for bit at nb 1 and 3; at nb 8 every block is one column wide."""
        n, d = 24, 7
        src, dst, node, attr, w = _instance(n, d)
        alpha, t = 0.5, 5
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, alpha, t)
        fs, bs = papmi_from_states(spark, n, d, src, dst, node, attr, w, alpha, t, nb)
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        _assert_papmi_equals_apmi(f, b, f_ref, b_ref, _bit_for_bit(d, nb))

    def test_apmi_blocks_straddle_column_blocks(self, spark):
        """APMI's own column blocks (2 of 35 at d=70) cut across PAPMI's (24, 23, 23): still bit for bit."""
        n, d, nb = 40, 70, 3
        assert -(-d // BLOCK_WIDTH) == 2 and _bit_for_bit(d, nb)
        src, dst, node, attr, w = _instance(n, d, seed=3)
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, 0.5, 5)
        fs, bs = papmi_from_states(spark, n, d, src, dst, node, attr, w, 0.5, 5, nb)
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        _assert_papmi_equals_apmi(f, b, f_ref, b_ref, True)

    @pytest.mark.parametrize("alpha,t", [(0.3, 3), (0.7, 8)])
    def test_parameter_variants(self, spark, alpha, t):
        n, d = 18, 5
        src, dst, node, attr, w = _instance(n, d, seed=2)
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, alpha, t)
        fs, bs = papmi_from_states(spark, n, d, src, dst, node, attr, w, alpha, t, 4)
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9

    def test_with_dangling_and_attributeless_nodes(self, spark):
        # node 3 dangling; node 0 attribute-less — the documented deviations
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 3], dtype=np.int64)
        node = np.array([1, 2, 3], dtype=np.int64)
        attr = np.array([0, 1, 1], dtype=np.int64)
        w = np.ones(3)
        n, d = 4, 2
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, 0.5, 6)
        fs, bs = papmi_from_states(spark, n, d, src, dst, node, attr, w, 0.5, 6, 2)
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9

    def test_duplicate_pairs_accumulate(self, spark):
        """A repeated (node, attr) pair adds its weights, as APMI's dense R does."""
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 0], dtype=np.int64)
        node = np.array([0, 0, 1], dtype=np.int64)
        attr = np.array([1, 1, 0], dtype=np.int64)
        w = np.array([1.0, 3.0, 2.0])
        n, d = 2, 2
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, 0.5, 6)
        fs, bs = papmi_from_states(spark, n, d, src, dst, node, attr, w, 0.5, 6, 2)
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9


def _degenerate_instance(n, d, attr_hi, seed):
    """A random multigraph with every degenerate node kind PAPMI must handle.

    Nodes ``0..n-4`` form a random graph with self-loops and duplicate
    edges (an explicit duplicated self-loop at node 0 guarantees both).
    Node ``n-3`` is source-only and attribute-less, ``n-2`` dangling
    (in-edges only), ``n-1`` isolated and attribute-less. Attribute ids
    are drawn from ``[0, attr_hi)``, so with ``attr_hi < d`` some
    attribute columns (and column blocks) hold no entry.
    """
    rng = np.random.default_rng(seed)
    core = n - 3
    m = 3 * n
    src = np.concatenate([rng.integers(0, core, m), [0, 0, n - 3, n - 3, 1]])
    dst = np.concatenate([rng.integers(0, core, m), [0, 0, 1, 2, n - 2]])
    n_assoc = 2 * n
    node = np.concatenate([rng.integers(0, core, n_assoc), [n - 2]])
    attr = rng.integers(0, attr_hi, n_assoc + 1)
    w = 1.0 + rng.random(n_assoc + 1)
    return src.astype(np.int64), dst.astype(np.int64), node.astype(np.int64), attr, w


class TestDegenerateInputs:
    """PAPMI ≡ APMI on the inputs the NumPy path accepts, with n rows out."""

    @pytest.mark.parametrize(
        "n,d,nb,attr_hi",
        [
            (12, 6, 3, 6),  # isolated, dangling, attribute-less, source-only
            (12, 5, 1, 5),  # one block
            (6, 3, 8, 3),  # nb > n and nb > d
            (10, 8, 4, 2),  # column blocks with no entry
            (9, 1, 3, 1),  # d = 1
        ],
    )
    # ``entry`` is the form R reaches PAPMI in: "dense" is one entry per
    # nonzero of the dense R; "attr_states" is the raw association list with
    # its duplicate pairs, as pane_spark passes it (it used to be densified
    # by a separate attr_states stage first).
    @pytest.mark.parametrize("entry", ["dense", "attr_states"])
    def test_papmi_equals_apmi(self, spark, n, d, nb, attr_hi, entry):
        src, dst, node, attr, w = _degenerate_instance(n, d, attr_hi, seed=n + d + nb)
        alpha, t = 0.5, 4
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, alpha, t)
        if entry == "dense":
            r = np.zeros((n, d))
            np.add.at(r, (node, attr), w)
            node, attr = np.nonzero(r)
            w = r[node, attr]
        fs, bs = papmi_from_states(spark, n, d, src, dst, node, attr, w, alpha, t, nb)
        for state in (fs, bs):
            ids = np.concatenate(state.select("node").toPandas()["node"].to_list())
            assert sorted(ids) == list(range(n))
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9


@st.composite
def _degenerate_graphs(draw):
    """A small weighted multigraph with every degenerate node kind, and an ``nb``.

    Node ``n-3`` is source-only and attribute-less, ``n-2`` dangling,
    ``n-1`` isolated and attribute-less; node 0 has a duplicated
    self-loop, and the first association is repeated.
    """
    n = draw(st.integers(5, 14))
    d = draw(st.integers(1, 9))
    core = st.integers(0, n - 4)
    edges = draw(st.lists(st.tuples(core, core), max_size=4 * n))
    edges += [(0, 0), (0, 0), (n - 3, 1), (1, n - 2)]
    assoc = draw(
        st.lists(
            st.tuples(core, st.integers(0, d - 1), st.floats(0.1, 10)),
            min_size=1,
            max_size=3 * n,
        )
    )
    assoc += [assoc[0], (n - 2, d - 1, 1.0)]
    src, dst = np.array(edges, dtype=np.int64).T
    node, attr = np.array([a[:2] for a in assoc], dtype=np.int64).T
    w = np.array([a[2] for a in assoc])
    return n, d, src, dst, node, attr, w, draw(st.integers(1, n + 2))


@given(_degenerate_graphs())
@settings(max_examples=10, derandomize=True, deadline=None)
def test_papmi_equals_apmi_on_any_graph(spark, case):
    """Every node in exactly one state row, and F', B' equal to APMI's."""
    n, d, src, dst, node, attr, w, nb = case
    f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, 0.5, 4)
    fs, bs = papmi_from_states(spark, n, d, src, dst, node, attr, w, 0.5, 4, nb)
    ids = np.concatenate(fs.select("node").toPandas()["node"].to_list())
    assert sorted(ids) == list(range(n))
    f, b = affinities_spark_to_numpy(fs, bs, n, d)
    _assert_papmi_equals_apmi(f, b, f_ref, b_ref, _bit_for_bit(d, nb))


class TestJobCount:
    def test_jobs_independent_of_iterations(self, spark):
        """PAPMI runs every iteration inside its tasks: no job per iteration."""
        sc = spark.sparkContext
        n, d = 24, 7
        src, dst, node, attr, w = _instance(n, d)
        jobs = {}
        for t in (2, 8):
            group = f"papmi-job-count-t{t}"
            sc.setJobGroup(group, group)
            try:
                papmi_from_states(spark, n, d, src, dst, node, attr, w, 0.5, t, 3)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            jobs[t] = len(sc.statusTracker().getJobIdsForGroup(group))
        assert jobs[2] == jobs[8] > 0
