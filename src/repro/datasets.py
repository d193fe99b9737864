"""Synthetic attributed-graph stand-ins for the paper's 8 datasets (Table 3).

The originals (Cora … MAG) are not redistributable/downloadable in this
offline container, so each is replaced by a deterministic generator
that matches the *shape* that matters to ANE methods:

* directed (or symmetrized) topology with Zipfian degree skew,
* ``|L|`` planted communities with tunable edge homophily,
* attributes drawn from community-specific Zipf distributions (so
  multi-hop node-attribute affinity — the signal PANE models — exists),
* labels = community ids (single-label, used for node classification).

Two profiles: ``test`` (hundreds of nodes; unit tests) and ``bench``
(10³–10⁴ nodes; the tables in ``benchmarks/results/``). The three massive datasets are
scaled down ~100–3000× (DESIGN.md "Dataset substitutions"); the paper's
original statistics are kept alongside for the Table 3 comparison.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AttributedGraph:
    """In-memory COO attributed graph — the native input format of PANE."""

    name: str
    n: int
    d: int
    src: np.ndarray
    dst: np.ndarray
    node: np.ndarray  # node side of ER associations
    attr: np.ndarray  # attribute side of ER associations
    weight: np.ndarray
    labels: np.ndarray  # one label (community) per node
    directed: bool = True
    paper_stats: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.src)

    @property
    def n_assoc(self) -> int:
        return len(self.node)

    @property
    def n_labels(self) -> int:
        return int(self.labels.max()) + 1


def _zipf_weights(k: int, a: float) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** a
    return w / w.sum()


def attributed_graph(
    name: str = "synthetic",
    n: int = 300,
    d: int = 40,
    m: int = 1200,
    n_labels: int = 4,
    avg_attrs: float = 5.0,
    homophily: float = 0.7,
    attr_affinity: float = 0.85,
    degree_skew: float = 0.6,
    asymmetry: float = 0.9,
    attr_zipf: float = 1.4,
    closure: float = 0.3,
    directed: bool = True,
    seed: int = 0,
    paper_stats: dict | None = None,
) -> AttributedGraph:
    """Generate a planted-community attributed graph.

    Links are **attribute-mediated** — the generative counterpart of
    PANE's extended-graph walk (Figure 1: node → attribute → node). A
    node first draws its attribute set from its community's Zipf block
    (``attr_affinity``/``attr_zipf`` control concentration, with
    1−attr_affinity uniform noise); an edge from ``u`` then picks a
    mediating attribute — ``u``'s own with probability ``homophily``,
    otherwise the *next* community's block with probability
    ``asymmetry`` (the planted analogue of directed transitivity:
    citations flow newer → older) — and lands on a popularity-weighted
    holder of that attribute. Node-attribute affinity is therefore the
    true edge-formation signal, per-node and directional, which is the
    structure ANE methods compete to recover. Every node gets ≥1
    out-edge and ≥1 attribute, so the random-walk model is well-posed
    everywhere (cf. DESIGN.md deviations #2-3, which tests exercise
    separately on purpose-built degenerate graphs).
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_labels, n)
    for c in range(n_labels):  # guarantee non-empty communities
        if not (labels == c).any():
            labels[rng.integers(0, n)] = c

    # --- Attributes first. Informative attributes are *rare*: each
    # community owns a contiguous block of ~d/L attrs drawn near-uniformly
    # (mild Zipf, exponent ``attr_zipf``·0.3), so any single block attr has
    # few holders — like topical vocabulary. The 1−attr_affinity noise
    # picks come from a head-heavy global Zipf — stopword-like common
    # attrs shared across all communities, carrying no signal. This is
    # the frequency structure SPMI/TF-IDF models exploit on real text.
    node_l, attr_l = [], []
    noise_w = _zipf_weights(d, max(1.0, attr_zipf))
    block = max(2, d // max(1, n_labels))
    comm_attr_ids = [
        (np.arange(block) + c * block) % d for c in range(n_labels)
    ]
    comm_attr_ps = [_zipf_weights(block, attr_zipf * 0.3)] * n_labels
    counts = np.maximum(1, rng.poisson(avg_attrs, n))
    attrs_of: list[np.ndarray] = []
    for v in range(n):
        c = labels[v]
        k_v = min(counts[v], d)
        from_comm = rng.random(k_v) < attr_affinity
        picks = np.where(
            from_comm,
            rng.choice(comm_attr_ids[c], size=k_v, p=comm_attr_ps[c]),
            rng.choice(d, size=k_v, p=noise_w),
        )
        picks = np.unique(picks)
        attrs_of.append(picks.astype(np.int64))
        node_l.append(np.full(len(picks), v, dtype=np.int64))
        attr_l.append(picks.astype(np.int64))
    node = np.concatenate(node_l)
    attr = np.concatenate(attr_l)
    weight = np.ones(len(node))

    # --- Popularity-weighted holder index per attribute (Zipfian degree skew).
    node_pop = _zipf_weights(n, degree_skew)[rng.permutation(n)]
    holders: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * d
    holder_ps: list[np.ndarray] = [np.empty(0)] * d
    order = np.argsort(attr, kind="stable")
    a_sorted, n_sorted = attr[order], node[order]
    bounds = np.searchsorted(a_sorted, np.arange(d + 1))
    for r in range(d):
        hs = n_sorted[bounds[r] : bounds[r + 1]]
        if len(hs):
            holders[r] = hs
            p = node_pop[hs]
            holder_ps[r] = p / p.sum()

    def pick_attr(u: int) -> int:
        """The mediating attribute of one edge out of u."""
        roll = rng.random()
        if roll < homophily:
            own = attrs_of[u]
            return int(own[rng.integers(len(own))])
        c = labels[u]
        if rng.random() < asymmetry:  # directed flow c → c+1
            c = (c + 1) % n_labels
        else:
            c = int(rng.integers(n_labels))
        return int(rng.choice(comm_attr_ids[c], p=comm_attr_ps[c]))

    def pick_dst(u: int) -> int:
        for _ in range(8):
            r = pick_attr(u)
            if len(holders[r]):
                v = int(rng.choice(holders[r], p=holder_ps[r]))
                if v != u:
                    return v
        return int(rng.integers(n))  # pathological fallback

    n_closure = int(max(0, m - n) * closure)
    src_l = list(range(n))  # backbone: ≥1 out-edge per node
    extra_src = rng.choice(
        n, size=max(0, m - n - n_closure), p=_zipf_weights(n, degree_skew * 0.5)
    )
    src_l.extend(extra_src.tolist())
    src = np.array(src_l, dtype=np.int64)
    dst = np.array([pick_dst(int(u)) for u in src], dtype=np.int64)

    # Triadic closure: u → v where v is a 2-hop out-neighbor (u→w→v).
    # Gives the graph the common-neighbor structure real networks have,
    # which topology-only methods (NRP/NetMF/TADW) rely on.
    adj: dict[int, list[int]] = {}
    for s_, t_ in zip(src.tolist(), dst.tolist()):
        adj.setdefault(s_, []).append(t_)
    clo_s, clo_t = [], []
    for _ in range(n_closure):
        u = int(rng.integers(n))
        outs = adj.get(u)
        if not outs:
            continue
        w_ = outs[rng.integers(len(outs))]
        outs2 = adj.get(w_)
        if not outs2:
            continue
        v = outs2[rng.integers(len(outs2))]
        if v != u:
            clo_s.append(u)
            clo_t.append(v)
    src = np.concatenate([src, np.array(clo_s, dtype=np.int64)])
    dst = np.concatenate([dst, np.array(clo_t, dtype=np.int64)])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    eid = src * n + dst  # dedup parallel edges
    _, uniq_ix = np.unique(eid, return_index=True)
    src, dst = src[uniq_ix], dst[uniq_ix]
    return AttributedGraph(
        name=name,
        n=n,
        d=d,
        src=src,
        dst=dst,
        node=node,
        attr=attr,
        weight=weight,
        labels=labels,
        directed=directed,
        paper_stats=paper_stats or {},
    )


# Paper Table 3 statistics (K=1e3, M=1e6) kept verbatim for the stats table.
_PAPER_STATS = {
    "cora": dict(V="2.7K", EV="5.4K", R="1.4K", ER="49.2K", L=7),
    "citeseer": dict(V="3.3K", EV="4.7K", R="3.7K", ER="105.2K", L=6),
    "facebook": dict(V="4K", EV="88.2K", R="1.3K", ER="33.3K", L=193),
    "pubmed": dict(V="19.7K", EV="44.3K", R="0.5K", ER="988K", L=3),
    "flickr": dict(V="7.6K", EV="479.5K", R="12.1K", ER="182.5K", L=9),
    "googleplus": dict(V="107.6K", EV="13.7M", R="15.9K", ER="300.6M", L=468),
    "tweibo": dict(V="2.3M", EV="50.7M", R="1.7K", ER="16.8M", L=8),
    "mag": dict(V="59.3M", EV="978.2M", R="2K", ER="434.4M", L=100),
}

# Generator parameters per dataset and profile. ``bench`` keeps the small
# datasets near original node counts and scales the massive three down to
# what one box sweeps in minutes; ``test`` shrinks everything.
_CONFIGS: dict[str, dict] = {
    "cora": dict(n=2708, d=200, m=5429, n_labels=7, avg_attrs=18, directed=True),
    "citeseer": dict(n=3312, d=260, m=4715, n_labels=6, avg_attrs=30, directed=True),
    "facebook": dict(n=4039, d=160, m=44000, n_labels=12, avg_attrs=8, directed=False),
    "pubmed": dict(n=9858, d=250, m=22169, n_labels=3, avg_attrs=32, directed=True),
    "flickr": dict(n=7575, d=240, m=120000, n_labels=9, avg_attrs=24, directed=False),
    "googleplus": dict(n=12000, d=256, m=240000, n_labels=16, avg_attrs=20, directed=True),
    "tweibo": dict(n=16000, d=200, m=300000, n_labels=8, avg_attrs=6, directed=True),
    "mag": dict(n=20000, d=256, m=350000, n_labels=16, avg_attrs=7, directed=True),
}

SMALL_DATASETS = ["cora", "citeseer", "facebook", "pubmed", "flickr"]
LARGE_DATASETS = ["googleplus", "tweibo", "mag"]
ALL_DATASETS = SMALL_DATASETS + LARGE_DATASETS


def load(name: str, profile: str = "bench", seed: int = 7) -> AttributedGraph:
    """Materialize a named stand-in dataset at the given profile."""
    if name not in _CONFIGS:
        raise KeyError(f"unknown dataset {name!r}; choose from {ALL_DATASETS}")
    cfg = dict(_CONFIGS[name])
    if profile == "test":
        shrink = 12 if name in LARGE_DATASETS else 8
        cfg["n"] = max(60, cfg["n"] // shrink)
        cfg["m"] = max(200, cfg["m"] // shrink)
        cfg["d"] = max(24, cfg["d"] // 6)
        cfg["avg_attrs"] = max(2, cfg["avg_attrs"] // 3)
        cfg["n_labels"] = min(cfg["n_labels"], 6)
    elif profile != "bench":
        raise ValueError(f"unknown profile {profile!r}")
    # zlib.crc32, not hash(): Python string hashing is salted per process,
    # which would make "the cora stand-in" a different graph every run.
    name_seed = zlib.crc32(name.encode()) % 1000
    return attributed_graph(
        name=name, seed=seed + name_seed, paper_stats=_PAPER_STATS[name], **cfg
    )


def figure1_example() -> AttributedGraph:
    """A 6-node / 3-attribute reconstruction of the paper's Figure 1.

    The paper's figure is not machine-readable; this instance satisfies
    every fact stated in the prose: v1 and v2 carry no attributes; v1
    reaches r1 through multiple intermediaries (v3, v4, v5); v5 owns r1
    but not r3; v6 is the r3-dominant node. Used by the Table 2 harness
    and the qualitative affinity tests.
    """
    edges = [
        (0, 2), (2, 0),  # v1 <-> v3
        (0, 3), (3, 0),  # v1 <-> v4
        (0, 4), (4, 0),  # v1 <-> v5
        (1, 2), (2, 1),  # v2 <-> v3
        (1, 3), (3, 1),  # v2 <-> v4
        (4, 5),          # v5 -> v6 (so v5's *forward* affinity sees r3 …)
        (5, 2),          # v6 -> v3 (… but r3's backward mass bypasses v5,
                         # matching Table 2's low Xb[v5]·Y[r3])
    ]
    # v3/v4 hold r1+r2, v5 holds r1+r2 (and crucially NOT r3), v6 holds
    # r3 alone; v1, v2 hold nothing — all as the prose states.
    assoc = [
        (2, 0, 1.0), (2, 1, 1.0),
        (3, 0, 1.0), (3, 1, 1.0),
        (4, 0, 1.0), (4, 1, 1.0),
        (5, 2, 1.0),
    ]
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    node = np.array([a[0] for a in assoc], dtype=np.int64)
    attr = np.array([a[1] for a in assoc], dtype=np.int64)
    weight = np.array([a[2] for a in assoc])
    return AttributedGraph(
        name="figure1",
        n=6,
        d=3,
        src=src,
        dst=dst,
        node=node,
        attr=attr,
        weight=weight,
        labels=np.zeros(6, dtype=np.int64),
        directed=True,
    )
