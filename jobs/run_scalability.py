#!/usr/bin/env python
"""Figures 3/4a — running time and PANE (parallel) speedup vs nb partitions,
next to one PANE (single thread) run on the same graph.

Usage: spark-submit jobs/run_scalability.py [--profile bench]
       [--datasets googleplus tweibo] [--nbs 1 2 4 8 16]
"""
import argparse

from _session import build_session

from repro.eval.tables import format_scalability, scalability_rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", default="bench", choices=["bench", "test"])
    ap.add_argument("--k", type=int, default=128)
    ap.add_argument("--datasets", nargs="*", default=["googleplus", "tweibo"])
    ap.add_argument("--nbs", nargs="*", type=int, default=[1, 2, 4, 8, 16])
    args = ap.parse_args()
    spark = build_session("scalability")
    rows = scalability_rows(
        spark, profile=args.profile, datasets=args.datasets,
        nbs=tuple(args.nbs), k=args.k,
    )
    print(format_scalability(rows))
    spark.stop()


if __name__ == "__main__":
    main()
