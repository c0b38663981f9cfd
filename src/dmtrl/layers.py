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
  few samples builds only their patch rows.  A forward pass may be handed
  a patch matrix built once for several kernels; it does not cache it.
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

A conv whose output goes straight into a 2x2 max pool (a network fuses such
pairs into one step, see :mod:`dmtrl.network`) computes only the outputs the
pool reads, in the order it reads them.  With ``slots``,
:func:`conv2d_patches` crops the output grid to its even 2·ho x 2·wo part
and orders each sample's rows slot-major, (r, q, i, j) for the output pixel
(2i + r, 2j + q), in the layout the channel count picks, and
:func:`conv2d_forward` returns the (B, 2, 2, ho, wo, M) output.  Each output
is still one dot product, so it has the bits of the spec-order output,
cropped and regrouped.  The bias can then wait until after the pool:
rounding is monotone, so a window's largest z + b is its largest z plus b,
to the bit (zeros of both signs and sums that round to a tie included),
and a quarter of the outputs take the add.  The pool primitives take either
layout through one view of the windows: a slot-major input's four slots
are contiguous blocks, a (B, H, W, C) input's are strided views.  ``maxpool2_backward`` always
returns its gradient in the (B, H, W, C) layout, of the full conv-output
shape when given one, zero in a dropped row or column.  The conv backward
then builds spec-order patch rows, so the kernel gradient keeps its row
order and bits.  At batch 64 on one BLAS thread (one probe, minima of 200
calls), the first demo-04 conv built its slot-major patches in 0.72 ms
against 0.58 for all 24x24 outputs, and its pool took 0.22 ms against 0.32,
whose second maximum read runs of only C = 8 doubles; the second conv (9x9
outputs, of which the pool reads 8x8) built its patches in 0.28 ms against
0.35 and ran its product in 0.31 against 0.38.

Caching inputs keeps a batch-64 demo-04 training tape at 3.99 MiB, whether
or not its first conv ran on a patch matrix shared by several tasks; its
patch matrices and pool winner codes would hold 15.39 MiB, 7.03 MiB of that
the first conv's.  No tape keeps a shared first-conv patch matrix for the
kernel gradient either: a slot-major matrix would sum that gradient's rows
in another order.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "fc_forward", "fc_backward",
    "conv2d_patches", "conv2d_forward", "conv2d_backward", "bias_tile",
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


def conv2d_patches(x: np.ndarray, hk: int, wk: int, slots: bool = False) -> np.ndarray:
    """The (B·Ho·Wo, hk·wk·C) patch matrix of every valid hk x wk window of
    ``x``, columns in (dy, dx, channel) order to match a kernel's rows;
    kernel-major for one channel, else row-major (see the module docstring).

    With ``slots``, only the rows of the 2·ho x 2·wo outputs a 2x2 max pool
    reads (ho, wo = Ho // 2, Wo // 2), slot-major: each sample's rows run
    over (r, q, i, j), the output pixel (2i + r, 2j + q)."""
    win = sliding_window_view(x, (hk, wk), axis=(1, 2))  # B, Ho, Wo, C, hk, wk
    if slots:
        b_, ho, wo = win.shape[0], win.shape[1] // 2, win.shape[2] // 2
        win = win[:, : 2 * ho, : 2 * wo].reshape(b_, ho, 2, wo, 2, *win.shape[3:])
        win = win.transpose(0, 2, 4, 1, 3, 5, 6, 7)  # B, r, q, i, j, C, hk, wk
    grid, (c, dy, dx) = range(win.ndim - 3), range(win.ndim - 3, win.ndim)
    taps = hk * wk * x.shape[3]
    if x.shape[3] == 1:
        return np.ascontiguousarray(win.transpose(dy, dx, c, *grid)).reshape(taps, -1).T
    return np.ascontiguousarray(win.transpose(*grid, dy, dx, c)).reshape(-1, taps)


def conv2d_forward(x: np.ndarray, k: np.ndarray, b: np.ndarray, patches=None,
                   slots: bool = False):
    """Valid cross-correlation of a B x Hi x Wi x C batch with an
    H x W x C x M kernel stack, stride 1, plus the bias ``b`` (None for the
    product alone).  With ``slots``, only the outputs a 2x2 max pool reads,
    slot-major as (B, 2, 2, ho, wo, M) (see :func:`conv2d_patches`).
    ``patches``, when given, is :func:`conv2d_patches` of ``x`` in that
    same order, built once for several kernels.  The cache is ``(x, k)``:
    the backward pass builds its own patch rows."""
    if x.ndim != 4 or k.ndim != 4:
        raise ValueError("conv2d expects 4-way input and kernel")
    hk, wk, cin, m = k.shape
    if x.shape[3] != cin:
        raise ValueError(f"channel mismatch: input {x.shape[3]}, kernel {cin}")
    if x.shape[1] < hk or x.shape[2] < wk:
        raise ValueError(f"kernel {hk}x{wk} larger than input {x.shape[1]}x{x.shape[2]}")
    if b is not None and b.shape != (m,):
        raise ValueError(f"bias shape {b.shape} != ({m},)")
    p = conv2d_patches(x, hk, wk, slots) if patches is None else patches
    ho, wo = x.shape[1] - hk + 1, x.shape[2] - wk + 1
    grid = (2, 2, ho // 2, wo // 2) if slots else (ho, wo)
    rows = math.prod(grid)
    # one product per sample (see the module docstring), then the bias as
    # one tile over each sample's contiguous outputs
    out = (p.reshape(len(x), rows, -1) @ k.reshape(-1, m)).reshape(len(x), *grid, m)
    if b is not None:
        out += bias_tile(b, out.shape[1:])
    return out, (x, k)


def bias_tile(b: np.ndarray, shape) -> np.ndarray:
    """``b`` repeated over one sample's outputs of ``shape`` (channels
    last), so a bias is added as one contiguous tile per sample rather than
    through a broadcast whose inner loop is one channel row long."""
    return np.tile(b, (math.prod(shape[:-1]), 1)).reshape(shape)


def conv2d_backward(grad_out: np.ndarray, cache, need_grad_x: bool = True):
    x, k = cache
    hk, wk, cin, m = k.shape
    b_, ho, wo, _ = grad_out.shape
    gf = grad_out.reshape(-1, m)
    grad_b = np.ones(gf.shape[0]) @ gf  # a BLAS product beats a column sum here
    grad_k = (gf.T @ conv2d_patches(x, hk, wk)).T.reshape(k.shape)
    if not need_grad_x:
        return None, grad_k, grad_b
    grad_x = np.zeros(x.shape)
    for dy in range(hk):
        for dx in range(wk):
            grad_x[:, dy : dy + ho, dx : dx + wo, :] += (gf @ k[dy, dx].T).reshape(b_, ho, wo, cin)
    return grad_x, grad_k, grad_b


def _windows(x: np.ndarray) -> np.ndarray:
    """The 2x2 pool windows of ``x`` as a (B, 2, 2, ho, wo, C) array whose
    ``[:, r, q, i, j]`` is the pixel (2i + r, 2j + q): a slot-major ``x``
    itself, whose four slots are contiguous blocks, else a strided view of
    the (B, H, W, C) ``x``, whose odd trailing row or column no window
    reads."""
    if x.ndim == 6:
        return x
    b_, ho, wo, c = x.shape[0], x.shape[1] // 2, x.shape[2] // 2, x.shape[3]
    return x[:, : 2 * ho, : 2 * wo].reshape(b_, ho, 2, wo, 2, c).transpose(0, 2, 4, 1, 3, 5)


def _winner_code(win: np.ndarray) -> np.ndarray:
    """Per window of :func:`_windows`, the slot 0..3 (r0c0, r0c1, r1c0,
    r1c1) of its maximum; the first maximum in that order wins a tie."""
    r0c0, r0c1, r1c0, r1c1 = (win[:, r, q] for r in (0, 1) for q in (0, 1))
    top, bottom = np.maximum(r0c0, r0c1), np.maximum(r1c0, r1c1)
    top_code = (r0c0 != top).view(np.uint8)
    bottom_code = (r1c0 != bottom).view(np.uint8) + 2
    # top_code where the top row holds the maximum, else bottom_code
    return top_code + (bottom_code - top_code) * (top != np.maximum(top, bottom)).view(np.uint8)


def maxpool2_forward(x: np.ndarray):
    """2x2 max pooling, stride 2, of a (B, H, W, C) batch, odd trailing
    rows/columns dropped, or of a slot-major (B, 2, 2, ho, wo, C) one.

    The cache is the input itself: the winners are found in backward."""
    win = _windows(x)
    # a maximum is exact, and np.maximum gives its second operand when zeros
    # of both signs tie: this order, rows first and then columns, sets the
    # bits; it takes two passes instead of three
    rows = np.maximum(win[:, 0], win[:, 1])
    return np.maximum(rows[:, 0], rows[:, 1]), (x,)


def maxpool2_backward(grad_out: np.ndarray, cache, shape=None):
    """The (B, H, W, C) gradient of the pool input: each window slot is one
    strided write of ``grad_out`` where that slot won (see
    :func:`_winner_code`), and an odd trailing row or column the forward
    pass dropped stays 0.  ``shape`` is (B, H, W, C); by default the cached
    input's, or for a slot-major cache the 2·ho x 2·wo it holds."""
    (x,) = cache
    code = _winner_code(_windows(x))
    _, ho, wo, c = grad_out.shape
    if shape is None:
        shape = x.shape if x.ndim == 4 else (len(x), 2 * ho, 2 * wo, c)
    even = tuple(shape[1:3]) == (2 * ho, 2 * wo)
    grad_x = np.empty(shape) if even else np.zeros(shape)
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
