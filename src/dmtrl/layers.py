"""Differentiable neural primitives with explicit forward and backward passes.

Every ``*_forward`` returns ``(output, cache)`` and the matching
``*_backward`` consumes the upstream gradient plus that cache.  A cache
holds the layer's input (or, for relu and tanh, its output), never an array
derived from it, so a cache restricted to some samples is the cache of a
forward pass on those samples, and the arrays a training tape keeps alive
are the activations themselves:

* fc: ``(x, w)``.
* conv: ``(x, k)``.  Forward and the kernel gradient each build the patch
  matrix (im2col) of the input they are handed, so a backward pass over a
  few samples builds only their patch rows.  The one exception: a forward
  pass handed a patch matrix its caller keeps alive anyway (one batch's,
  shared by several kernels) caches ``(x, k, p)``, and the kernel gradient
  reads that ``p`` instead of building it again.
* 2x2 max pool: ``(x,)``.  Forward takes only the maxima; backward finds
  the winners again in the rows it is given.
* relu: ``(y,)``, the output, which is > 0 exactly where the input is.
  Whatever runs next (in a network, a conv or fc; see
  :mod:`dmtrl.network` for why the pool runs first) caches that same array
  as its input.
* tanh: ``(y,)``.

Convolution uses valid padding and stride 1.  The forward pass and the kernel
gradient go through the patch matrix, the matrix-multiply path of the fully
connected layer; the input gradient is summed per kernel tap instead: tap
(dy, dx) adds ``grad_out @ k[dy, dx].T`` into the input window it read.

The patch matrix is (B·Ho·Wo, taps), one row per output pixel and one column
per kernel tap (dy, dx, channel).  Its memory layout follows the channel
count.  A 1-channel input's matrix is stored kernel-major: each tap is one
contiguous run over B·Ho·Wo, copied in long strides instead of B·Ho·Wo rows
of hk·wk.  Wider inputs stay row-major.  Both layouts go through the same
products, ``p @ k`` once per sample and ``(grad_out.T @ p).T`` once over
the batch for the kernel gradient, and give the bits the row-major layout
gave (``p.T @ grad_out`` did not on a kernel-major 3x3x1x4 conv, where BLAS
takes a small-matrix path).  At batch 64 on one BLAS thread, the first
demo-04 conv (5x5x1x8 on 28x28) built its patches in 0.77 ms against 1.79
row-major and ran forward in 1.77 ms against 2.70; its kernel gradient
stayed at 1.6 ms.  For the 8-channel second conv, a kernel-major product
took 1.31 ms against 0.76.

The forward product may regroup its rows: each output element is one
hk·wk·C-long dot product whichever rows share a product, and one product per
sample gives the bits one product per output row gave (the tests check this
bit for bit on every conv shape the repo runs).  The block shape decides the
speed (Goto & van de Geijn 2008).  At batch 64 on one BLAS thread (medians
of 30 interleaved repeats), the first demo-04 conv's product took 0.74 ms
per output row, 0.60 per sample and 1.21 as one product over all rows; the
second conv's took 0.69 per row and 0.56 per sample.  The bias is then
added as one (Ho·Wo, M) tile over each sample's contiguous Ho·Wo·M outputs:
0.15 ms for the first conv against 0.38 through a broadcast whose inner
loop is M = 8 long.  The kernel gradient sums over the rows, so their
grouping decides its bits, and it stays one product.

Caching inputs keeps a batch-64 demo-04 training tape at 4.13 MiB; its
patch matrices and pool winner codes would hold 15.39 MiB, 7.03 MiB of that
the first conv's.  A tape whose first conv ran on a shared patch matrix
holds that matrix too (11.16 MiB), one per training cycle rather than per
step.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "fc_forward", "fc_backward",
    "conv2d_patches", "conv2d_forward", "conv2d_backward",
    "maxpool2_forward", "maxpool2_backward",
    "relu_forward", "relu_backward",
    "tanh_forward", "tanh_backward",
    "hinge_loss", "softmax_ce_loss",
]


def fc_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x @ w + b for a batch of row vectors."""
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"input width {x.shape[1]} != weight rows {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"bias shape {b.shape} != ({w.shape[1]},)")
    out = x @ w
    out += b
    return out, (x, w)


def fc_backward(grad_out: np.ndarray, cache, need_grad_x: bool = True):
    x, w = cache
    grad_x = grad_out @ w.T if need_grad_x else None
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def conv2d_patches(x: np.ndarray, hk: int, wk: int) -> np.ndarray:
    """The (B·Ho·Wo, hk·wk·C) patch matrix of every valid hk x wk window of
    ``x``, columns in (dy, dx, channel) order to match a kernel's rows;
    kernel-major for one channel, else row-major (see the module docstring)."""
    win = sliding_window_view(x, (hk, wk), axis=(1, 2))  # B, Ho, Wo, C, hk, wk
    taps = hk * wk * x.shape[3]
    if x.shape[3] == 1:
        return np.ascontiguousarray(win.transpose(4, 5, 3, 0, 1, 2)).reshape(taps, -1).T
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, taps)


def conv2d_forward(x: np.ndarray, k: np.ndarray, b: np.ndarray, patches=None):
    """Valid cross-correlation of a B x Hi x Wi x C batch with an
    H x W x C x M kernel stack, stride 1.  ``patches``, when given, is
    :func:`conv2d_patches` of ``x``, built once for several kernels; the
    cache is then ``(x, k, patches)``, else ``(x, k)``, and the backward
    pass builds its own patch rows."""
    if x.ndim != 4 or k.ndim != 4:
        raise ValueError("conv2d expects 4-way input and kernel")
    hk, wk, cin, m = k.shape
    if x.shape[3] != cin:
        raise ValueError(f"channel mismatch: input {x.shape[3]}, kernel {cin}")
    if x.shape[1] < hk or x.shape[2] < wk:
        raise ValueError(f"kernel {hk}x{wk} larger than input {x.shape[1]}x{x.shape[2]}")
    if b.shape != (m,):
        raise ValueError(f"bias shape {b.shape} != ({m},)")
    p = conv2d_patches(x, hk, wk) if patches is None else patches
    ho, wo = x.shape[1] - hk + 1, x.shape[2] - wk + 1
    # one product per sample (see the module docstring), then the bias as
    # one tile over each sample's contiguous Ho·Wo·M outputs
    out = p.reshape(len(x), ho * wo, -1) @ k.reshape(-1, m)
    out += np.tile(b, (ho * wo, 1))
    return out.reshape(len(x), ho, wo, m), (x, k) if patches is None else (x, k, patches)


def conv2d_backward(grad_out: np.ndarray, cache, need_grad_x: bool = True):
    x, k, *p = cache
    hk, wk, cin, m = k.shape
    b_, ho, wo, _ = grad_out.shape
    gf = grad_out.reshape(-1, m)
    grad_b = np.ones(gf.shape[0]) @ gf  # a BLAS product beats a column sum here
    p = p[0] if p else conv2d_patches(x, hk, wk)
    grad_k = (gf.T @ p).T.reshape(k.shape)
    if not need_grad_x:
        return None, grad_k, grad_b
    grad_x = np.zeros(x.shape)
    for dy in range(hk):
        for dx in range(wk):
            grad_x[:, dy : dy + ho, dx : dx + wo, :] += (gf @ k[dy, dx].T).reshape(b_, ho, wo, cin)
    return grad_x, grad_k, grad_b


def maxpool2_forward(x: np.ndarray):
    """2x2 max pooling, stride 2; odd trailing rows/columns are dropped.

    The cache is the input itself: the winners are found in backward."""
    ho, wo = x.shape[1] // 2, x.shape[2] // 2
    # a maximum is exact and, but for the sign of a zero, the same in any
    # order: rows first, then columns, takes two passes instead of three
    rows = np.maximum(x[:, 0 : 2 * ho : 2, : 2 * wo], x[:, 1 : 2 * ho : 2, : 2 * wo])
    return np.maximum(rows[:, :, 0::2], rows[:, :, 1::2]), (x,)


def maxpool2_backward(grad_out: np.ndarray, cache):
    """Each window slot s is one strided write of ``grad_out`` where slot s
    won; an odd trailing row or column the forward pass dropped stays 0.

    Slots 0..3 are r0c0, r0c1, r1c0, r1c1, and the first maximum in that
    order wins a tie."""
    (x,) = cache
    _, ho, wo, _ = grad_out.shape
    r0c0, r0c1 = x[:, 0 : 2 * ho : 2, 0 : 2 * wo : 2], x[:, 0 : 2 * ho : 2, 1 : 2 * wo : 2]
    r1c0, r1c1 = x[:, 1 : 2 * ho : 2, 0 : 2 * wo : 2], x[:, 1 : 2 * ho : 2, 1 : 2 * wo : 2]
    top, bottom = np.maximum(r0c0, r0c1), np.maximum(r1c0, r1c1)
    top_code = (r0c0 != top).view(np.uint8)
    bottom_code = (r1c0 != bottom).view(np.uint8) + 2
    # top_code where the top row holds the maximum, else bottom_code
    code = top_code + (bottom_code - top_code) * (top != np.maximum(top, bottom)).view(np.uint8)
    even = x.shape[1:3] == (2 * ho, 2 * wo)
    grad_x = np.empty(x.shape) if even else np.zeros(x.shape)
    for s in range(4):
        r, q = divmod(s, 2)
        np.multiply(grad_out, code == s, out=grad_x[:, r : 2 * ho : 2, q : 2 * wo : 2])
    return grad_x


def relu_forward(x: np.ndarray):
    """max(x, 0); the cache is the output, which is > 0 exactly where x is."""
    y = np.maximum(x, 0.0)
    return y, (y,)


def relu_backward(grad_out: np.ndarray, cache):
    (y,) = cache
    return grad_out * (y > 0.0)


def tanh_forward(x: np.ndarray):
    y = np.tanh(x)
    return y, (y,)


def tanh_backward(grad_out: np.ndarray, cache):
    (y,) = cache
    return grad_out * (1.0 - y * y)


def hinge_loss(y_hat, y):
    """max(0, 1 - y_hat * y) per element for labels y in {-1, +1}.

    Returns (loss, d loss / d y_hat); the subgradient at the kink is 0.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("hinge labels must be -1 or +1")
    margin = y_hat * y
    loss = np.maximum(0.0, 1.0 - margin)
    grad = np.where(margin < 1.0, -y, 0.0)
    return loss, grad


def softmax_ce_loss(logits: np.ndarray, labels):
    """Cross entropy of softmax(logits) against integer class labels.

    Accepts a single logit vector with a scalar label or a batch (B x C with
    B labels).  Stabilised by max subtraction.  Returns per-sample losses and
    the gradient with respect to the logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    z = logits[None, :] if single else logits
    lab = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    c = z.shape[1]
    if np.any(lab < 0) or np.any(lab >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_norm
    rows = np.arange(z.shape[0])
    loss = -log_p[rows, lab]
    grad = np.exp(log_p)
    grad[rows, lab] -= 1.0
    if single:
        return float(loss[0]), grad[0]
    return loss, grad
