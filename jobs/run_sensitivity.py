#!/usr/bin/env python
"""Figures 5-6 — parameter sensitivity of PANE (single thread).

Sweeps k, ϵ, and α one at a time (others at paper defaults k=128,
ϵ=0.015, α=0.5) and reports link-prediction and attribute-inference AUC
— the table form of the paper's sensitivity plots.

Usage: python jobs/run_sensitivity.py [--profile bench] [--datasets cora facebook]
"""
import argparse

from repro.datasets import load
from repro.eval.attr_inference import run_attr_inference
from repro.eval.link_prediction import run_link_prediction

PANE = "PANE (single thread)"


def _aucs(g, k=128, alpha=0.5, eps=0.015) -> str:
    """Link-prediction / attribute-inference AUC of PANE at one setting."""
    link = run_link_prediction(g, PANE, k=k, alpha=alpha, eps=eps).auc
    attr = run_attr_inference(g, PANE, k=k, alpha=alpha, eps=eps).auc
    return f"{link:.3f} / {attr:.3f}"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", default="bench", choices=["bench", "test"])
    ap.add_argument("--datasets", nargs="*", default=["cora", "facebook"])
    args = ap.parse_args()
    for name in args.datasets:
        g = load(name, profile=args.profile)
        print(f"\n[{name}]  (paper Figures 5-6 sweep; AUC link / attr)")
        for k in (16, 32, 64, 128, 256):
            print(f"  k={k:<4}          {_aucs(g, k=k)}")
        for eps in (0.001, 0.005, 0.015, 0.05, 0.25):
            print(f"  eps={eps:<7}     {_aucs(g, eps=eps)}")
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            print(f"  alpha={alpha:<5}     {_aucs(g, alpha=alpha)}")


if __name__ == "__main__":
    main()
