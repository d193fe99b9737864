"""References the SVDCCD kernels are tested against: the literal Algorithm-4
loop nest, and the column-by-column form of each phase's sweep."""
import numpy as np

from repro.core.ccd import _TINY


def naive_svdccd_numpy(
    f: np.ndarray,
    b: np.ndarray,
    xf: np.ndarray,
    xb: np.ndarray,
    y: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Literal transcription of Algorithm 4 (Lines 2-14), scalar loops.

    The ground truth for ``svdccd_numpy``'s loop interchange — O(ndk·t)
    with Python-level loops, usable on toy sizes. It skips the same
    near-zero coordinates as ``repro.core.ccd`` (``_TINY``).
    """
    xf, xb, y = xf.copy(), xb.copy(), y.copy()
    n, d = f.shape
    k2 = y.shape[1]
    sf = xf @ y.T - f
    sb = xb @ y.T - b
    for _ in range(t):
        for vi in range(n):
            for l in range(k2):
                denom = y[:, l] @ y[:, l]
                if denom < _TINY:
                    continue
                muf = (sf[vi] @ y[:, l]) / denom  # Equation (16)
                mub = (sb[vi] @ y[:, l]) / denom
                xf[vi, l] -= muf  # Equation (13)
                xb[vi, l] -= mub  # Equation (14)
                sf[vi] -= muf * y[:, l]  # Equation (18)
                sb[vi] -= mub * y[:, l]  # Equation (19)
        for rj in range(d):
            for l in range(k2):
                denom = xf[:, l] @ xf[:, l] + xb[:, l] @ xb[:, l]
                if denom < _TINY:
                    continue
                muy = (xf[:, l] @ sf[:, rj] + xb[:, l] @ sb[:, rj]) / denom  # (17)
                y[rj, l] -= muy  # Equation (15)
                sf[:, rj] -= muy * xf[:, l]  # Equation (20)
                sb[:, rj] -= muy * xb[:, l]
    return xf, xb, y


def loop_x_phase(
    f: np.ndarray, b: np.ndarray, xf: np.ndarray, xb: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The X-phase one column at a time: column ``l`` of each side moves by
    ``(X·(YᵀY)[:,l] − (M·Y)[:,l]) / (YᵀY)[l,l]`` from the current ``X``."""
    gy = y.T @ y
    out = []
    for m, x in ((f, xf), (b, xb)):
        x = x.copy()
        my = m @ y
        for l in range(y.shape[1]):
            denom = gy[l, l]
            if denom < _TINY:
                continue
            x[:, l] -= (x @ gy[:, l] - my[:, l]) / denom
        out.append(x)
    return out[0], out[1]


def loop_y_phase_from_moments(
    y: np.ndarray, g: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """The Y-phase one column at a time, with Equation (20)'s maintenance
    as a running numerator ``n = G·Yᵀ − C``."""
    y = y.copy()
    n = g @ y.T - c
    for l in range(y.shape[1]):
        denom = g[l, l]
        if denom < _TINY:
            continue
        mu = n[l, :] / denom
        y[:, l] -= mu
        n -= np.outer(g[:, l], mu)
    return y
