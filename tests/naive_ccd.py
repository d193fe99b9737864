"""The literal Algorithm-4 loop nest, the reference the vectorized SVDCCD is tested against."""
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
