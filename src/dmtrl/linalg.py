"""Dense tensor values, thin SVD and energy-based rank truncation.

A tensor is a plain C-contiguous float64 numpy array with at least one axis
and no zero extent; :func:`tensor` coerces any array-like to one and rejects
the rest.  One numerical kernel backs every factorisation in the package: a
thin singular value decomposition with a deterministic sign convention, plus
the rule that picks the smallest rank whose discarded tail keeps the
relative error of the truncated product under a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["tensor", "SvdResult", "thin_svd", "rank_for_error"]


def tensor(values) -> np.ndarray:
    """Coerce ``values`` to a valid dense tensor (float64, C order, N >= 1).

    Raises ValueError for scalars or arrays with a zero extent.
    """
    t = np.asarray(values, dtype=np.float64)
    if t.ndim < 1:
        raise ValueError("a tensor needs at least one axis; got a scalar")
    if any(d < 1 for d in t.shape):
        raise ValueError(f"every extent must be >= 1; got shape {t.shape}")
    return np.ascontiguousarray(t)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD m = u @ diag(s) @ v.T with r = min(rows, cols).

    u is rows x r and v is cols x r, both with orthonormal columns; s is
    non-negative and sorted non-increasing.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def truncated(self, k: int) -> "SvdResult":
        if not 1 <= k <= self.s.size:
            raise ValueError(f"rank {k} outside [1, {self.s.size}]")
        return SvdResult(self.u[:, :k].copy(), self.s[:k].copy(), self.v[:, :k].copy())


def thin_svd(m: np.ndarray) -> SvdResult:
    """Thin SVD of a matrix with finite entries.

    Columns of u are sign-normalised so their largest-magnitude entry is
    positive, making the factors deterministic across runs and platforms.
    ``np.linalg.LinAlgError`` propagates if the SVD does not converge.
    """
    m = tensor(m)
    if m.ndim != 2:
        raise ValueError(f"thin_svd expects a matrix, got a {m.ndim}-way tensor")
    if not np.all(np.isfinite(m)):
        raise ValueError("thin_svd requires finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    v = vh.T
    # sign convention: flip column pairs so max-|entry| of each u column is positive
    pivot = np.abs(u).argmax(axis=0)
    flip = u[pivot, np.arange(u.shape[1])] < 0.0
    u = np.where(flip, -u, u)
    v = np.where(flip, -v, v)
    return SvdResult(np.ascontiguousarray(u), s.copy(), np.ascontiguousarray(v))


def rank_for_error(s: np.ndarray, epsilon: float) -> int:
    """Smallest k with sqrt(sum_{i>k} s_i^2) / sqrt(sum_i s_i^2) <= epsilon.

    Always returns at least 1, including for an all-zero spectrum.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty singular value list")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1); got {epsilon}")
    total = float(np.dot(s, s))
    if total == 0.0:
        return 1
    # tail[k] = energy strictly after the first k values
    tail = total - np.cumsum(s * s)
    ok = np.flatnonzero(tail <= (epsilon * epsilon) * total)
    k = int(ok[0]) + 1 if ok.size else s.size
    return max(k, 1)
