"""The benchmark harness ``panebench/run.py`` still attaches to pane_spark.

The harness finds the phases of ``pane_spark`` by name in
``repro.core.pane``, tags their Spark jobs, and gates PAPMI's output
against APMI (Lemma 4.1). A refactor that renames a phase or changes
what PAPMI returns would detach a per-phase metric or the gate without
failing the benchmark run, so this checks both.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.affinity import affinities_spark_to_numpy, apmi_numpy, num_iterations
from repro.core.pane import pane_spark
from repro.datasets import load

RUN_PY = Path(__file__).resolve().parents[1] / "panebench" / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("panebench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write_bytecode = sys.dont_write_bytecode  # run.py sets it on import
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    return module


def test_phases_tagged_and_papmi_gate_holds(spark, run):
    g = load("cora", profile="test")
    inp = (g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight)
    sc = spark.sparkContext
    walls, outputs = {}, {}
    try:
        with run.wrap_phases(run.SPARK_PHASES, walls, outputs, sc) as absent:
            pane_spark(spark, *inp, k=8, nb=3, seed=0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert absent == ["attr_states"]
    for layer in run.SPARK_PHASES:
        if layer != "pane.attr_states":
            assert layer in walls and sc.statusTracker().getJobIdsForGroup(layer)
    assert not sc.statusTracker().getJobIdsForGroup(run.UNTAGGED)

    f, b = apmi_numpy(*inp, 0.5, num_iterations(0.015, 0.5))
    fs, bs = affinities_spark_to_numpy(*outputs["affinity.papmi_from_states"], g.n, g.d)
    assert np.abs(fs - f).max() <= 1e-9
    assert np.abs(bs - b).max() <= 1e-9
