"""Learned-sharing diagnostics.

Every soft sharing structure carries a K x T task-mixing matrix whose
columns say how each task combines the K latent basis components: the
mixing factor itself for LAF, the transposed last-mode factor for Tucker,
and the tail matrix for TT.  The sharing strength of a layer is the mean
pairwise cosine similarity of those columns: 0 when every task uses its own
private component (one-hot columns), 1 when all tasks combine components
identically.

Learned matrices are real-valued, so before measuring they are normalised:
absolute values first (large coefficients matter regardless of sign), then
a softmax over each column so columns sum to one like the two reference
endpoints.  The endpoints themselves are measured as-is; normalising them
would destroy the exact 0 and 1 readings.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .network import MultiTaskNetwork

__all__ = ["extract_mixing", "normalize_mixing", "sharing_strength", "task_affinity"]


def extract_mixing(net: MultiTaskNetwork, layer_index: int) -> np.ndarray:
    """The K x T task-mixing matrix of a softly shared layer, as a copy."""
    layer = net.layer_state(layer_index)
    if not layer.mode.soft:
        raise ValueError(
            f"layer {layer_index} is {layer.mode.value}: no mixing matrix exists"
        )
    return np.array(layer.mode.scheme.mixing(layer.factors), dtype=np.float64)


def normalize_mixing(s: np.ndarray) -> np.ndarray:
    """Absolute values, then a softmax down each column."""
    a = np.abs(np.asarray(s, dtype=np.float64))
    a -= a.max(axis=0, keepdims=True)
    e = np.exp(a)
    return e / e.sum(axis=0, keepdims=True)


def _column_cosines(s: np.ndarray):
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] < 2:
        raise ValueError("need a K x T matrix with at least two columns")
    norms = np.linalg.norm(s, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("cosine undefined for an all-zero column")
    unit = s / norms
    return unit.T @ unit


def sharing_strength(s: np.ndarray) -> float:
    """Mean pairwise column cosine, on the matrix exactly as given."""
    cos = _column_cosines(s)
    t = cos.shape[0]
    pairs = [(i, j) for i, j in combinations(range(t), 2)]
    return float(sum(cos[i, j] for i, j in pairs) / len(pairs))


def task_affinity(s: np.ndarray):
    """All task pairs ranked by column cosine of the normalised matrix,
    most related first; exact ties fall back to (i, j) order."""
    cos = _column_cosines(normalize_mixing(s))
    t = cos.shape[0]
    pairs = [((i, j), float(cos[i, j])) for i, j in combinations(range(t), 2)]
    return sorted(pairs, key=lambda p: (-p[1], p[0]))
