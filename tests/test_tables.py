"""Tests for the table builders/formatters behind ``benchmarks/results/``,
which the ``jobs/run_*.py`` entry points print."""
import numpy as np
import pytest

from repro.datasets import ALL_DATASETS, load
from repro.eval.tables import (
    PAPER_TABLE4,
    PAPER_TABLE5,
    classification_rows,
    format_classification,
    format_greedyinit,
    format_metric_table,
    format_scalability,
    format_table3,
    greedyinit_rows,
    scalability_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)


class TestPaperData:
    def test_paper_table4_pane_rows_complete(self):
        # PANE has numbers for all 8 datasets (the only method that scales)
        for m in ("PANE (single thread)", "PANE (parallel)"):
            assert set(PAPER_TABLE4[m]) == set(ALL_DATASETS)

    def test_paper_table4_competitors_fail_on_large(self):
        for m in ("BLA-lite", "CAN-lite"):
            assert "mag" not in PAPER_TABLE4[m]
            assert "googleplus" not in PAPER_TABLE4[m]

    def test_paper_table5_nrp_complete(self):
        assert set(PAPER_TABLE5["NRP-lite"]) == set(ALL_DATASETS)

    def test_paper_values_in_unit_range(self):
        for table in (PAPER_TABLE4, PAPER_TABLE5):
            for per_ds in table.values():
                for auc, ap in per_ds.values():
                    assert 0 < auc <= 1 and 0 < ap <= 1

    def test_paper_table5_pane_wins_everywhere_except_googleplus_nrp(self):
        """The paper's own claim: PANE best except NRP on Google+."""
        pane = PAPER_TABLE5["PANE (single thread)"]
        for m, per_ds in PAPER_TABLE5.items():
            if m.startswith("PANE"):
                continue
            for ds, (auc, _) in per_ds.items():
                if m == "NRP-lite" and ds == "googleplus":
                    assert auc > pane[ds][0]
                else:
                    assert auc <= pane[ds][0]


class TestBuilders:
    def test_table3_rows(self):
        rows = table3_rows(profile="test")
        assert [r["dataset"] for r in rows] == ALL_DATASETS
        for r in rows:
            assert r["ours"]["V"] > 0 and r["paper"]["L"] > 0

    def test_table4_rows_structure(self, spark):
        rows = table4_rows(
            spark, profile="test", datasets=["cora"], k=32, nb=4
        )
        methods = {r["method"] for r in rows}
        assert "PANE (parallel)" in methods and "BLA-lite" in methods
        for r in rows:
            assert 0 <= r["auc"] <= 1 and r["seconds"] > 0

    def test_table4_rows_without_spark_skips_parallel(self):
        rows = table4_rows(None, profile="test", datasets=["cora"], k=32)
        assert all(r["method"] != "PANE (parallel)" for r in rows)

    def test_table5_rows_structure(self, spark):
        rows = table5_rows(
            spark, profile="test", datasets=["citeseer"], k=32, nb=4
        )
        assert {r["dataset"] for r in rows} == {"citeseer"}
        pane = [r for r in rows if r["method"] == "PANE (single thread)"][0]
        assert pane["auc"] > 0.5

    def test_classification_rows_structure(self, spark):
        rows = classification_rows(
            spark, profile="test", datasets=["cora"],
            fractions=(0.5,), k=32, nb=4, repeats=1,
        )
        pane = [r for r in rows if r["method"] == "PANE (single thread)"][0]
        assert 0 < pane["curve"][0.5] <= 1

    def test_scalability_rows(self, spark):
        rows = scalability_rows(
            spark, profile="test", datasets=("cora",), nbs=(1, 2), k=16
        )
        assert len(rows) == 2
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert all(r["seconds"] > 0 for r in rows)

    def test_scalability_warms_up_before_timing(self, monkeypatch):
        """One untimed run at nbs[0] precedes the timed sweep, on the first
        dataset only, so the nb=1 baseline does not pay the warm-up."""
        import repro.core.pane as pane_mod

        calls = []
        monkeypatch.setattr(
            pane_mod, "pane_spark",
            lambda spark, n, *args, nb, **kw: calls.append((n, nb)),
        )
        rows = scalability_rows(
            None, profile="test", datasets=("cora", "facebook"),
            nbs=(1, 2, 4), k=16,
        )
        cora, fb = (load(name, profile="test").n for name in ("cora", "facebook"))
        assert cora != fb and len(rows) == 6
        assert calls == [(cora, 1), (cora, 1), (cora, 2), (cora, 4),
                         (fb, 1), (fb, 2), (fb, 4)]

    def test_scalability_reports_single_thread_reference(self, monkeypatch):
        """Each dataset's rows carry one timed ``pane_numpy`` call on the same
        graph, k and seed, and the formatted table prints it, so the nb
        curve is not read as a speedup over single-thread PANE."""
        import repro.core.pane as pane_mod

        calls = []
        monkeypatch.setattr(pane_mod, "pane_spark", lambda spark, n, *args, nb, **kw: None)
        monkeypatch.setattr(
            pane_mod, "pane_numpy", lambda n, *args, k, seed: calls.append((n, k, seed))
        )
        rows = scalability_rows(
            None, profile="test", datasets=("cora", "facebook"), nbs=(1, 2), k=16, seed=4
        )
        cora, fb = (load(name, profile="test").n for name in ("cora", "facebook"))
        assert calls == [(cora, 16, 4), (fb, 16, 4)]
        for name in ("cora", "facebook"):
            single = {r["single_thread_seconds"] for r in rows if r["dataset"] == name}
            assert len(single) == 1 and single.pop() >= 0
        txt = format_scalability(rows)
        assert txt.count("PANE (single thread)") >= len(rows)

    def test_table4_warms_up_before_timing(self, monkeypatch):
        """One untimed PANE (parallel) run on the first dataset precedes the
        timed cells, so the first cell does not pay the warm-up."""
        import repro.core.pane as pane_mod
        import repro.eval.methods as methods_mod

        calls = []

        def record(spark, n, d, *args, k, nb, **kw):
            calls.append((n, nb))
            z = np.zeros((n, k // 2))
            return pane_mod.PaneEmbedding(z, z, np.zeros((d, k // 2)))

        for mod in (pane_mod, methods_mod):
            monkeypatch.setattr(mod, "pane_spark", record)
        rows = table4_rows(
            object(), profile="test", datasets=["cora", "facebook"], k=32, nb=2
        )
        cora, fb = (load(name, profile="test").n for name in ("cora", "facebook"))
        assert sum(r["method"] == "PANE (parallel)" for r in rows) == 2
        assert calls == [(cora, 2), (cora, 2), (fb, 2)]

    def test_greedyinit_rows(self):
        rows = greedyinit_rows(
            profile="test", datasets=("cora",), iters=(1, 5), k=16
        )
        assert {r["method"] for r in rows} == {"PANE", "PANE-R"}
        pane5 = [r for r in rows if r["method"] == "PANE" and r["ccd_iters"] == 5][0]
        rand5 = [r for r in rows if r["method"] == "PANE-R" and r["ccd_iters"] == 5][0]
        assert pane5["auc"] >= rand5["auc"] - 0.02  # §5.7 shape


class TestFormatters:
    def test_format_metric_table_renders_dash(self):
        rows = [
            {"dataset": "x", "method": "m", "auc": None, "ap": None,
             "seconds": None, "paper_auc": 0.9, "paper_ap": 0.8}
        ]
        txt = format_metric_table(rows, "T")
        assert "-" in txt and "0.900" in txt

    def test_format_table3_contains_all_datasets(self):
        txt = format_table3(table3_rows(profile="test"))
        for name in ALL_DATASETS:
            assert name in txt

    def test_format_classification_handles_none(self):
        rows = [
            {"dataset": "x", "method": "big", "curve": None, "seconds": None},
            {"dataset": "x", "method": "ok", "curve": {0.5: 0.7},
             "macro": {0.5: 0.6}, "seconds": 1.0},
        ]
        txt = format_classification(rows)
        assert "big" in txt and "0.700" in txt

    def test_format_scalability(self):
        txt = format_scalability(
            [{"dataset": "d", "nb": 4, "seconds": 2.0, "speedup": 3.0,
              "single_thread_seconds": 1.0}]
        )
        assert "nb= 4" in txt and "×3.00" in txt

    def test_format_greedyinit(self):
        txt = format_greedyinit(
            [{"dataset": "d", "method": "PANE", "ccd_iters": 2,
              "auc": 0.91, "seconds": 1.5}]
        )
        assert "PANE" in txt and "0.910" in txt
