"""Node classification protocol (Section 5.4) and a NumPy linear classifier.

The paper trains a linear SVM on (normalized, concatenated) embeddings
with 10%–90% of nodes as training data and reports Micro/Macro-F1
averaged over 5 repetitions. sklearn/liblinear are not available in
this container, so we train multinomial logistic regression by
full-batch gradient descent with L2 regularization — also a linear
decision boundary, which is what the protocol actually measures
(embedding linear separability). DESIGN.md system #9.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.common import MethodTooExpensive
from repro.eval.methods import embed
from repro.eval.metrics import micro_macro_f1


def train_logreg(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    l2: float = 1e-3,
    lr: float = 0.5,
    iters: int = 300,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic regression; returns ``(W, b)``.

    Full-batch GD with a fixed schedule — deterministic given the seed,
    which the 5-repetition protocol requires for reproducibility.
    """
    rng = np.random.default_rng(seed)
    n, f = x.shape
    w = rng.standard_normal((f, n_classes)) * 0.01
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(iters):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        grad_w = x.T @ (p - onehot) / n + l2 * w
        grad_b = (p - onehot).mean(axis=0)
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


def classify(
    features: np.ndarray,
    labels: np.ndarray,
    train_frac: float,
    n_classes: int,
    seed: int = 0,
) -> tuple[float, float]:
    """One train/test split → (micro-F1, macro-F1)."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    perm = rng.permutation(n)
    n_train = max(n_classes, int(round(n * train_frac)))
    tr, te = perm[:n_train], perm[n_train:]
    w, b = train_logreg(features[tr], labels[tr], n_classes, seed=seed)
    pred = (features[te] @ w + b).argmax(axis=1)
    return micro_macro_f1(labels[te], pred, n_classes)


CLASSIFICATION_METHODS = (
    "NRP-lite",
    "NetMF-lite (stand-in)",
    "TADW",
    "BANE-lite",
    "CAN-lite",
    "PANE (single thread)",
    "PANE (parallel)",
)


def method_features(
    g,
    method: str,
    spark=None,
    k: int = 64,
    alpha: float = 0.5,
    eps: float = 0.015,
    nb: int = 8,
    seed: int = 0,
) -> np.ndarray | None:
    """Embed the full graph with ``method`` and return classifier features.

    Directed methods contribute normalized [Xf ‖ Xb] (Section 5.4);
    undirected ones their normalized single embedding. ``None`` marks a
    method that cannot run at this scale (the paper's "-" cells).
    """
    if method not in CLASSIFICATION_METHODS:
        raise ValueError(f"unknown classification method {method!r}")
    try:
        model = embed(g, method, spark, k, alpha, eps, nb, seed)
    except MethodTooExpensive:
        return None
    return model.node_features()


def classification_curve(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    fractions: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    repeats: int = 5,
    seed: int = 0,
) -> dict[float, tuple[float, float]]:
    """Figure 2's sweep: mean (micro, macro) F1 per training fraction."""
    out: dict[float, tuple[float, float]] = {}
    for frac in fractions:
        mics, macs = [], []
        for r in range(repeats):
            mi, ma = classify(features, labels, frac, n_classes, seed=seed + r)
            mics.append(mi)
            macs.append(ma)
        out[frac] = (float(np.mean(mics)), float(np.mean(macs)))
    return out
