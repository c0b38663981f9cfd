"""Factorised weight structures: last-axis flattening (LAF), Tucker, and
tensor-train (TT).

A layer's T task weights are the slices, along the last axis, of one stacked
tensor, which each structure builds from learnable factors.
``*_decompose`` recovers factors from a given stack (used for initialisation
only, with ranks selected by a relative-error budget).  Training touches one
task slice at a time, so the algebra comes as a per-task pair:
``compose_task(f, t)`` builds slice ``t`` alone, and
``compose_backward(f, g, task=t)`` maps the gradient ``g`` with respect to
that slice onto full-shaped factor gradients, which is all backpropagation
needs since the compositions are multilinear.  Neither ever builds the other
T - 1 slices.

Both fold the task into the factors first.  LAF's slice is the shared basis
contracted with column ``t`` of the mixing matrix.  Tucker contracts row
``t`` of the last factor into the core (the mode-N product) and TT contracts
column ``t`` of the tail into the last core; either way the folded record
composes to the slice (:func:`compose_tucker`, :func:`compose_tt`), and its
backward maps the slice gradient onto the folded factors.  With G that
gradient, Tucker's factor n gets unfold_n(G x_{i<n} U_i^T) @
unfold_n(core x_{i>n} U_i)^T, which is the mode-n unfolding of
G x_{i!=n} U_i^T times that of the core (Kolda & Bader 2009), and the core
gets G x_i U_i^T over every mode; each prefix and suffix product is built
once and shared by every mode.  Unfoldings are 0-based: ``_unfold(t, n)``
puts axis n first and flattens the others in order.

``SCHEMES`` is the one place that knows the three structures apart.  It maps
each tag (``laf``, ``tucker``, ``tt``) to a :class:`Scheme` record holding the
structure's factor record type, its decomposition, its per-task compose and
backward, its named-tensor layout (tensor names in storage order, with
packing and unpacking of a factor record), its ranks and its K x T
task-mixing matrix.  Every other module looks a structure up in the table
instead of branching on it, and reaches the algebra through the generic
public functions ``compose_task``, ``compose_backward`` and
``decompose(tag, w, epsilon)``, which dispatch through the table.

Rank-selection convention: ``epsilon`` bounds the relative Frobenius error
of the recomposed stack.  Tucker truncates each mode at ``epsilon`` (overall
bound sqrt(N) * epsilon); TT truncates each sweep step at
``epsilon / sqrt(N - 1)`` (overall bound epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import rank_for_error, tensor, thin_svd

__all__ = [
    "LAFFactors",
    "TuckerFactors",
    "TTFactors",
    "Scheme",
    "SCHEMES",
    "compose_tucker",
    "compose_tt",
    "compose_task",
    "decompose",
    "laf_decompose",
    "tucker_decompose",
    "tt_decompose",
    "compose_backward",
]


@dataclass
class LAFFactors:
    """Shared latent basis ``l`` (D1 x ... x D_{N-1} x K) and task mixing
    matrix ``s`` (K x T)."""

    l: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.l = tensor(self.l)
        self.s = tensor(self.s)
        if self.s.ndim != 2:
            raise ValueError("mixing factor must be a K x T matrix")
        if self.l.shape[-1] != self.s.shape[0]:
            raise ValueError(
                f"latent count mismatch: basis has K={self.l.shape[-1]}, "
                f"mixing matrix has K={self.s.shape[0]} rows"
            )

    @property
    def out_shape(self) -> tuple:
        return self.l.shape[:-1] + (self.s.shape[1],)


@dataclass
class TuckerFactors:
    """Core tensor (K1 x ... x KN) and one Dn x Kn factor matrix per mode."""

    core: np.ndarray
    u: list

    def __post_init__(self):
        self.core = tensor(self.core)
        self.u = [tensor(m) for m in self.u]
        if len(self.u) != self.core.ndim:
            raise ValueError(
                f"need one factor matrix per mode: core is {self.core.ndim}-way, "
                f"got {len(self.u)} matrices"
            )
        for n, m in enumerate(self.u):
            if m.ndim != 2 or m.shape[1] != self.core.shape[n]:
                raise ValueError(
                    f"factor {n + 1} must be D{n + 1} x {self.core.shape[n]}, got {m.shape}"
                )

    @property
    def out_shape(self) -> tuple:
        return tuple(m.shape[0] for m in self.u)


@dataclass
class TTFactors:
    """Boundary matrices plus a chain of 3-way cores.

    ``head`` is D1 x K1, ``cores[n]`` is K_n x D_{n+2} x K_{n+1}, and ``tail``
    is K_{N-1} x DN; adjacent bond extents must match along the chain.
    """

    head: np.ndarray
    cores: list
    tail: np.ndarray

    def __post_init__(self):
        self.head = tensor(self.head)
        self.cores = [tensor(c) for c in self.cores]
        self.tail = tensor(self.tail)
        if self.head.ndim != 2 or self.tail.ndim != 2:
            raise ValueError("head and tail must be matrices")
        bond = self.head.shape[1]
        for n, c in enumerate(self.cores):
            if c.ndim != 3 or c.shape[0] != bond:
                raise ValueError(
                    f"core {n + 1} must start with bond extent {bond}, got shape {c.shape}"
                )
            bond = c.shape[2]
        if self.tail.shape[0] != bond:
            raise ValueError(
                f"tail must start with bond extent {bond}, got shape {self.tail.shape}"
            )

    @property
    def out_shape(self) -> tuple:
        mids = tuple(c.shape[1] for c in self.cores)
        return (self.head.shape[0],) + mids + (self.tail.shape[1],)


def _record(cls, *values):
    """A ``cls`` factor record of valid float64 arrays, skipping
    ``__post_init__``'s coercion and checks (the per-step paths)."""
    f = object.__new__(cls)
    f.__dict__.update(zip(cls.__dataclass_fields__, values))
    return f


def _times_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a``'s last axis contracted with ``b``'s first (C-contiguous operands)."""
    return np.tensordot(a, b, (a.ndim - 1, 0))


def _outer(g: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``np.multiply.outer(g, row)`` filled one last-axis column at a time:
    the same bits without the outer ufunc's slow short-last-axis loop."""
    out = np.empty(g.shape + row.shape)
    for k in range(len(row)):
        np.multiply(g, row[k], out=out[..., k])
    return out


def _unfold(t: np.ndarray, n: int) -> np.ndarray:
    """Mode-n unfolding: axis n first, the other axes flattened in order."""
    s = t.shape
    return t.reshape(math.prod(s[:n]), s[n], -1).swapaxes(0, 1).reshape(s[n], -1)


def compose_tucker(f: TuckerFactors) -> np.ndarray:
    """Contract the core with every factor matrix along its mode.

    Each step contracts the current leading axis with the column axis of the
    next factor and appends the new Dn axis at the end, so after N steps the
    axes come back in order (D1, ..., DN).
    """
    w = f.core
    for m in f.u:
        w = np.tensordot(w, m, (0, 1))
    return w


def compose_tt(f: TTFactors) -> np.ndarray:
    """Collapse the bond axes of the chain head . cores . tail."""
    w = f.head
    for c in f.cores:
        w = _times_last(w, c)
    return _times_last(w, f.tail)


def laf_decompose(w: np.ndarray, epsilon: float) -> LAFFactors:
    """Factor the matrix whose columns are ``w``'s flattened task slices at
    relative error ``epsilon``.

    Singular values are absorbed into the shared basis, leaving the mixing
    matrix with orthonormal rows at initialisation.
    """
    w = tensor(w)
    if w.ndim < 2:
        raise ValueError("LAF needs a tensor with at least 2 axes")
    n_tasks = w.shape[-1]
    lead = w.shape[:-1]
    m = w.reshape(-1, n_tasks)  # prod(lead) x T
    res = thin_svd(m)
    k = rank_for_error(res.s, epsilon)
    cut = res.truncated(k)
    basis = (cut.u * cut.s).reshape(lead + (k,))
    return LAFFactors(basis, np.ascontiguousarray(cut.v.T))


def tucker_decompose(w: np.ndarray, epsilon: float) -> TuckerFactors:
    """Higher-order SVD with per-mode truncation at ``epsilon``.

    Factor n is the truncated left factor of the mode-n unfolding; the core
    is the tensor contracted with every factor along its mode.  Overall
    relative error is bounded by sqrt(N) * epsilon.
    """
    w = tensor(w)
    n_way = w.ndim
    us = []
    for n in range(n_way):
        res = thin_svd(_unfold(w, n))
        k = rank_for_error(res.s, epsilon)
        us.append(res.u[:, :k].copy())
    core = w
    for m in us:
        core = np.tensordot(core, m, (0, 0))
    return TuckerFactors(core, us)


def tt_decompose(w: np.ndarray, epsilon: float) -> TTFactors:
    """Left-to-right SVD sweep with per-step truncation at
    ``epsilon / sqrt(N - 1)``; overall relative error is bounded by
    ``epsilon``."""
    w = tensor(w)
    n_way = w.ndim
    if n_way < 2:
        raise ValueError("TT needs a tensor with at least 2 axes")
    shape = w.shape
    step_eps = epsilon / math.sqrt(n_way - 1)
    factors = []
    bond = 1
    rest = w.reshape(1, -1)
    for n in range(n_way - 1):
        m = rest.reshape(bond * shape[n], -1)
        res = thin_svd(m)
        k = rank_for_error(res.s, step_eps)
        cut = res.truncated(k)
        factors.append(cut.u.reshape(bond, shape[n], k))
        rest = (cut.s[:, None] * cut.v.T)
        bond = k
    head = factors[0].reshape(shape[0], -1)
    cores = factors[1:]
    tail = rest.reshape(bond, shape[-1])
    return TTFactors(head, cores, tail)


def _check_task(f, task: int) -> None:
    shape = f.out_shape
    if len(shape) < 3:
        raise ValueError(
            f"per-task composition needs a stack of at least 3 axes, got {shape}"
        )
    if not 0 <= task < shape[-1]:
        raise ValueError(f"task {task} out of range [0, {shape[-1]})")


def _laf_task_backward(f: LAFFactors, grad_w: np.ndarray, task: int) -> LAFFactors:
    lead = list(range(f.l.ndim - 1))
    grad_s = np.zeros_like(f.s)
    grad_s[:, task] = np.tensordot(f.l, grad_w, axes=(lead, lead))
    return _record(LAFFactors, _outer(grad_w, f.s[:, task]), grad_s)


def _project(t: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Mode-n product ``t x_n m^T``: axis n meets the rows of ``m``, in place."""
    s = t.shape
    if n == len(s) - 1:
        return t @ m
    out = m.T @ t.reshape(math.prod(s[:n]), s[n], -1)
    return out.reshape(s[:n] + (-1,) + s[n + 1 :])


def _tucker_backward(f: TuckerFactors, grad_w: np.ndarray) -> TuckerFactors:
    right = [f.core]  # right[n]: the core x_{i > n} U_i
    for n in range(len(f.u) - 1, 0, -1):
        right.insert(0, _project(right[0], f.u[n].T, n))
    grad_u = []
    left = grad_w  # grad_w x_{i < n} U_i^T
    for n, (m, r) in enumerate(zip(f.u, right)):
        grad_u.append(_unfold(left, n) @ _unfold(r, n).T)
        left = _project(left, m, n)
    return _record(TuckerFactors, left, grad_u)


def _tucker_fold(f: TuckerFactors, task: int) -> TuckerFactors:
    """The task's row of the last factor contracted into the core; the
    result composes to slice ``task`` alone."""
    return _record(TuckerFactors, f.core @ f.u[-1][task], f.u[:-1])


def _tucker_task_backward(f: TuckerFactors, grad_w: np.ndarray, task: int) -> TuckerFactors:
    g = _tucker_backward(_tucker_fold(f, task), grad_w)
    grad_last = np.zeros_like(f.u[-1])
    grad_last[task] = g.core.reshape(-1) @ f.core.reshape(-1, f.core.shape[-1])
    return _record(TuckerFactors, _outer(g.core, f.u[-1][task]), g.u + [grad_last])


def _tt_backward(f: TTFactors, grad_w: np.ndarray) -> TTFactors:
    n_way = grad_w.ndim
    # left[i]: chain up to and including piece i, shape (D1..D_{i+1}, K)
    left = [f.head]
    for c in f.cores:
        left.append(_times_last(left[-1], c))
    # right[i]: chain from piece i to the end, shape (K, D..DN)
    right = [f.tail]
    for c in reversed(f.cores):
        right.insert(0, _times_last(c, right[0]))
    grad_head = np.tensordot(grad_w, right[0],
                             axes=(list(range(1, n_way)), list(range(1, n_way))))
    grad_cores = []
    for i in range(len(f.cores)):
        lt = left[i]          # (D1..D_{i+1}, K_{i+1})
        rt = right[i + 1]     # (K_{i+2}, D_{i+3}..DN)
        n_left = lt.ndim - 1
        g = np.tensordot(lt, grad_w, axes=(list(range(n_left)), list(range(n_left))))
        # g axes: (K_{i+1}, D_{i+2}, .., DN)
        g = np.tensordot(g, rt, axes=(list(range(2, g.ndim)), list(range(1, rt.ndim))))
        grad_cores.append(np.ascontiguousarray(g))
    lt = left[-1]
    n_left = lt.ndim - 1
    grad_tail = np.tensordot(lt, grad_w,
                             axes=(list(range(n_left)), list(range(n_left))))
    return _record(TTFactors, grad_head, grad_cores, grad_tail)


def _tt_fold(f: TTFactors, task: int) -> TTFactors:
    """The task's column of the tail contracted into the last core; the
    result composes to slice ``task`` alone."""
    column = np.ascontiguousarray(f.tail[:, task])
    return _record(TTFactors, f.head, f.cores[:-1], _times_last(f.cores[-1], column))


def _tt_task_backward(f: TTFactors, grad_w: np.ndarray, task: int) -> TTFactors:
    g = _tt_backward(_tt_fold(f, task), grad_w)
    grad_tail = np.zeros_like(f.tail)
    grad_tail[:, task] = np.tensordot(g.tail, f.cores[-1], axes=([0, 1], [0, 1]))
    return _record(TTFactors, g.head, g.cores + [_outer(g.tail, f.tail[:, task])], grad_tail)


@dataclass(frozen=True)
class Scheme:
    """Everything the package needs to know about one factor structure.

    ``fields(n_way)`` names the tensors of an ``n_way``-axis stack in storage
    order, ``pack`` lists a record's tensors (or its gradient record's) in
    that order and ``unpack`` rebuilds the record from such a list."""

    tag: str
    record: type
    decompose: Callable
    compose_task: Callable
    task_backward: Callable
    fields: Callable
    pack: Callable
    unpack: Callable
    ranks: Callable
    mixing: Callable

    def names(self, n_way: int) -> list:
        """Tag-qualified stored tensor names of an ``n_way``-axis stack."""
        return [f"{self.tag}.{name}" for name in self.fields(n_way)]

    def items(self, f):
        """(name, tensor) pairs of a factor record or of its gradient record."""
        return zip(self.names(len(f.out_shape)), self.pack(f))


SCHEMES = {s.tag: s for s in (
    Scheme(
        "laf", LAFFactors, laf_decompose,
        compose_task=lambda f, t: _times_last(f.l, np.ascontiguousarray(f.s[:, t])),
        task_backward=_laf_task_backward,
        fields=lambda n_way: ("l", "s"),
        pack=lambda f: (f.l, f.s),
        unpack=lambda a: LAFFactors(*a),
        ranks=lambda f: [f.s.shape[0]],
        mixing=lambda f: f.s,
    ),
    Scheme(
        "tucker", TuckerFactors, tucker_decompose,
        compose_task=lambda f, t: compose_tucker(_tucker_fold(f, t)),
        task_backward=_tucker_task_backward,
        fields=lambda n_way: ("core", *(f"u{i}" for i in range(n_way))),
        pack=lambda f: (f.core, *f.u),
        unpack=lambda a: TuckerFactors(a[0], a[1:]),
        ranks=lambda f: list(f.core.shape),
        mixing=lambda f: f.u[-1].T,
    ),
    Scheme(
        "tt", TTFactors, tt_decompose,
        compose_task=lambda f, t: compose_tt(_tt_fold(f, t)),
        task_backward=_tt_task_backward,
        fields=lambda n_way: ("head", *(f"core{i}" for i in range(n_way - 2)), "tail"),
        pack=lambda f: (f.head, *f.cores, f.tail),
        unpack=lambda a: TTFactors(a[0], a[1:-1], a[-1]),
        ranks=lambda f: [f.head.shape[1]] + [c.shape[2] for c in f.cores],
        mixing=lambda f: f.tail,
    ),
)}


def _scheme_of(f) -> Scheme:
    """The table record of a factor record's structure."""
    for scheme in SCHEMES.values():
        if isinstance(f, scheme.record):
            return scheme
    raise TypeError(f"unknown factor record: {type(f).__name__}")


def decompose(tag: str, w: np.ndarray, epsilon: float):
    """Factor ``w`` at relative error ``epsilon`` with the scheme named ``tag``."""
    return SCHEMES[tag].decompose(w, epsilon)


def compose_task(f, task: int) -> np.ndarray:
    """Slice ``task`` of the composed tensor (its last axis removed), built
    without composing the other slices."""
    scheme = _scheme_of(f)
    _check_task(f, task)
    return scheme.compose_task(f, task)


def compose_backward(f, grad_w: np.ndarray, task: int):
    """Gradients of a scalar loss with respect to every factor, given the
    gradient ``grad_w`` with respect to :func:`compose_task`'s slice ``task``.

    Returns a factor record of the same type as ``f`` whose fields hold the
    gradients.  They equal the factor gradients of the whole stack with
    ``grad_w`` in slice ``task`` and zeros elsewhere: of the last factor
    (``s``, ``u[-1]`` or ``tail``) only the task's column or row is non-zero.
    """
    scheme = _scheme_of(f)
    _check_task(f, task)
    grad_w = tensor(grad_w)
    if grad_w.shape != f.out_shape[:-1]:
        raise ValueError(f"gradient shape {grad_w.shape} != slice {f.out_shape[:-1]}")
    return scheme.task_backward(f, grad_w, task)
