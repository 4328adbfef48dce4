"""Chain health summaries: effective sample size and split-Rhat."""

from __future__ import annotations

import numpy as np


def _ess_one_chain(x: np.ndarray) -> float:
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0 or n < 4:
        return float(n)
    # Autocorrelations via FFT, truncated by Geyer's initial positive sequence.
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    rho = acov / acov[0]
    tail = 0.0
    for m in range(1, n // 2):
        pair = rho[2 * m - 1] + rho[2 * m]  # 2m <= n - 2, as m < n // 2
        if pair < 0:
            break
        tail += pair
    return float(n / (1.0 + 2.0 * tail))


def effective_sample_size(chains: np.ndarray) -> float:
    """ESS for one scalar quantity; chains has shape (n_chains, n_kept)."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    return float(sum(_ess_one_chain(c) for c in chains))


def split_rhat(chains: np.ndarray) -> float:
    """Classic split-Rhat: each chain is halved before the between/within ratio."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    half = chains.shape[1] // 2
    if half < 2:
        return float("nan")
    segments = np.vstack([chains[:, :half], chains[:, half : 2 * half]])
    seg_means = segments.mean(axis=1)
    within = float(np.mean(segments.var(axis=1, ddof=1)))
    between = half * float(np.var(seg_means, ddof=1))
    if within == 0.0:  # constant segments: converged only if they all agree
        return float("inf") if between > 0.0 else 1.0
    var_plus = (half - 1) / half * within + between / half
    return float(np.sqrt(var_plus / within))
