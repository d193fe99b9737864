"""The one method-name dispatch behind Tables 4, 5 and Figure 2.

The three tasks (Sections 5.2–5.4) train the same methods with the same
arguments. They differ only in the graph each method sees and in how its
output is scored, so each harness builds its training graph, calls
:func:`embed`, and scores the returned model itself.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines.bane import bane_lite
from repro.baselines.bla_lite import bla_lite
from repro.baselines.can_lite import can_lite
from repro.baselines.netmf import netmf_lite
from repro.baselines.nrp import nrp_lite
from repro.baselines.tadw import tadw_lite
from repro.core.pane import pane_numpy, pane_spark
from repro.datasets import AttributedGraph


def embed(
    g: AttributedGraph,
    method: str,
    spark: SparkSession | None = None,
    k: int = 64,
    alpha: float = 0.5,
    eps: float = 0.015,
    nb: int = 8,
    seed: int = 0,
):
    """Train ``method`` on ``g`` and return its model.

    ``alpha``/``eps`` reach PANE only and ``nb`` only PANE (parallel); the
    baselines keep their own defaults for everything but ``k`` and
    ``seed``. Raises :class:`~repro.baselines.common.MethodTooExpensive`
    above a method's scale cap, and ``ValueError`` on an unknown name or
    on PANE (parallel) without a session.
    """
    coo = (g.src, g.dst, g.node, g.attr, g.weight)
    if method == "PANE (single thread)":
        return pane_numpy(g.n, g.d, *coo, k=k, alpha=alpha, eps=eps, seed=seed)
    if method == "PANE (parallel)":
        if spark is None:
            raise ValueError("PANE (parallel) needs a SparkSession")
        return pane_spark(
            spark, g.n, g.d, *coo, k=k, alpha=alpha, eps=eps, nb=nb, seed=seed
        )
    if method == "NRP-lite":
        return nrp_lite(g.n, g.src, g.dst, k=k, seed=seed)
    if method == "NetMF-lite (stand-in)":
        return netmf_lite(g.n, g.src, g.dst, k=k, seed=seed)
    if method == "TADW":
        return tadw_lite(g.n, g.d, *coo, k=k, seed=seed)
    if method == "BANE-lite":
        return bane_lite(g.n, g.d, *coo, k=k, seed=seed)
    if method == "CAN-lite":
        return can_lite(g.n, g.d, *coo, k=k, seed=seed)
    if method == "BLA-lite":
        return bla_lite(g.n, g.d, *coo)
    raise ValueError(f"unknown method {method!r}")
