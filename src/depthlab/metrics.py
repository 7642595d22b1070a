"""Text and vector metrics shared by every experiment: ROUGE-L, cosine
similarity, and mean/confidence-interval aggregation."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_Z_95 = 1.95996


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Length of the longest common subsequence of two token sequences."""
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        return 0
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        cur = [0] * (n + 1)
        ai = a[i - 1]
        for j in range(1, n + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[n]


def rouge_l(candidate: Sequence, reference: Sequence) -> float:
    """LCS-based ROUGE-L F over token sequences: the harmonic mean (F1) of
    P = LCS/|candidate| and R = LCS/|reference|. Empty candidate or
    reference yields 0.
    """
    if len(candidate) == 0 or len(reference) == 0:
        return 0.0
    lcs = lcs_length(candidate, reference)
    p = lcs / len(candidate)
    r = lcs / len(reference)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (r + p)


def tokenize_for_rouge(text: str) -> list[str]:
    """Lowercase, split on whitespace, and drop punctuation-only tokens."""
    tokens = []
    for tok in text.lower().split():
        if any(ch.isalnum() for ch in tok):
            tokens.append(tok)
    return tokens


def rouge_l_text(candidate: str, reference: str) -> float:
    """ROUGE-L F on raw strings using the shared whitespace tokenization."""
    return rouge_l(tokenize_for_rouge(candidate), tokenize_for_rouge(reference))


def cosine(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Cosine similarity over the last axis; 0 where either vector has norm
    < 1e-12. Two (..., d) arrays give a (...) array of row similarities, two
    1-D vectors a float."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine: dimension mismatch {u.shape} vs {v.shape}")
    nu = np.sqrt((u * u).sum(axis=-1))
    nv = np.sqrt((v * v).sum(axis=-1))
    ok = (nu >= 1e-12) & (nv >= 1e-12)
    sims = np.divide((u * v).sum(axis=-1), nu * nv, out=np.zeros(nu.shape), where=ok)
    return float(sims) if sims.ndim == 0 else sims


def mean_ci(samples: Sequence[float]) -> tuple[float, float]:
    """Mean and half-width of the 95% normal-approximation confidence
    interval.

    Uses z * s / sqrt(n) with z = 1.95996 and the n-1 sample standard
    deviation. Requires at least two samples.
    """
    n = len(samples)
    if n < 2:
        raise ValueError(f"mean_ci needs >= 2 samples, got {n}")
    arr = np.asarray(samples, dtype=np.float64)
    mean = float(arr.mean())
    s = float(arr.std(ddof=1))
    return mean, _Z_95 * s / math.sqrt(n)
