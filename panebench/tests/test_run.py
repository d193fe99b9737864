"""Tests of the benchmark's phase wrapping, without a SparkSession.

Run from the repository root::

    python3 -m pytest panebench/tests -q -p no:cacheprovider
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402


def test_patched_reports_absent_names_and_restores():
    mod = types.ModuleType("phases")
    mod.step = lambda x: x + 1
    wrappers = {"step": lambda fn: (lambda x: 10 * fn(x)), "renamed": lambda fn: fn}
    with run.patched(mod, wrappers) as absent:
        assert mod.step(1) == 20
        assert absent == ["renamed"]
    assert mod.step(1) == 2
    assert not hasattr(mod, "renamed")


def test_wrap_phases_times_numpy_phases_and_keeps_outputs():
    from repro.core import pane
    from repro.datasets import figure1_example

    g = figure1_example()
    inp = (g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight)
    walls, outputs = {}, {}
    with run.wrap_phases(run.NUMPY_PHASES + ("pane.no_such_phase",), walls, outputs) as absent:
        emb = pane.pane_numpy(*inp, k=2)
    assert absent == ["no_such_phase"]
    assert set(walls) == set(outputs) == set(run.NUMPY_PHASES)
    assert all(w > 0 for w in walls.values())
    xf, xb, y = outputs["ccd.svdccd_numpy"]
    np.testing.assert_array_equal(xf, emb.xf)
    assert pane.apmi_numpy.__module__ == "repro.core.affinity"  # restored


def test_time_kernels_reports_every_kernel():
    from repro.core.affinity import apmi_numpy
    from repro.core.greedy_init import greedy_init_numpy
    from repro.datasets import figure1_example

    g = figure1_example()
    f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, 6)
    walls, absent = run.time_kernels(f, b, greedy_init_numpy(f, b, 1, 6))
    assert absent == []
    assert set(walls) == set(run.KERNELS)
