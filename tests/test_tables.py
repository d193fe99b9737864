"""Tests for the table builders/formatters behind ``benchmarks/results/``."""
import numpy as np
import pytest

from repro.datasets import ALL_DATASETS
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
            [{"dataset": "d", "nb": 4, "seconds": 2.0, "speedup": 3.0}]
        )
        assert "nb= 4" in txt and "×3.00" in txt

    def test_format_greedyinit(self):
        txt = format_greedyinit(
            [{"dataset": "d", "method": "PANE", "ccd_iters": 2,
              "auc": 0.91, "seconds": 1.5}]
        )
        assert "PANE" in txt and "0.910" in txt
