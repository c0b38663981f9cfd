"""Shared oracles and helpers.

The oracles here are deliberately slow and dumb: nested index loops and
central finite differences that never touch the vectorised code paths they
are used to check.  There are four exceptions.  ``full_compose`` builds
the whole stacked tensor that per-task slices are compared with.
``conv2d_per_row`` is the conv forward's earlier grouping of its products,
whose bits the current grouping must keep.  The spec-order pair
``spec_order_forward`` / ``spec_order_backward`` runs a network's layers in
the order its spec writes them, each kind called directly, with no
execution plan and no shared binding.  ``named_gradients`` names such a
pass's gradients through the layers' own ``grad_items``, so a bit check
against it compares the passes, and the finite-difference checks cover the
naming.  ``write_idx`` writes the IDX fixtures that ``load_idx`` reads.
"""

import itertools
import struct

import numpy as np
import pytest

from dmtrl.data import IMAGE_MAGIC, LABEL_MAGIC, LabeledImages
from dmtrl.factorization import LAFFactors, TuckerFactors, compose_tt, compose_tucker
from dmtrl.layers import conv2d_patches
from dmtrl.network import FC, Activation, LayerSpec, NetworkSpec, SharingMode


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def write_idx(images_path, labels_path, ds: LabeledImages):
    """Write a corpus as the big-endian IDX image/label container pair."""
    n, rows, cols = ds.images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(ds.images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


def fibre_oracle(t: np.ndarray, n: int) -> np.ndarray:
    """Mode-n flattening by explicit fibre extraction, one column at a time."""
    axis = n - 1 if n > 0 else t.ndim + n
    rest = [d for i, d in enumerate(t.shape) if i != axis]
    out = np.empty((t.shape[axis], int(np.prod(rest))), dtype=np.float64)
    for col, fixed in enumerate(itertools.product(*[range(d) for d in rest])):
        idx = list(fixed)
        for k in range(t.shape[axis]):
            out[k, col] = t[tuple(idx[:axis]) + (k,) + tuple(idx[axis:])]
    return out


def full_compose(f) -> np.ndarray:
    """The whole stacked tensor of a factor record, composed in one piece:
    the full-stack form ``compose_task``'s slices are checked against."""
    if isinstance(f, LAFFactors):
        return np.tensordot(f.l, f.s, (f.l.ndim - 1, 0))
    if isinstance(f, TuckerFactors):
        return compose_tucker(f)
    return compose_tt(f)


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Elementwise central finite-difference gradient of scalar f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return g


def assert_grads_close(analytic, numeric, rtol=1e-6, atol=1e-8):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    err = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    worst = (err - bound).max()
    assert np.all(err <= bound), f"gradient mismatch, worst excess {worst:.3e}"


def random_shape(rng, max_way=5, max_extent=4, min_way=1):
    n = int(rng.integers(min_way, max_way + 1))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(n))


def five_mode_spec(head_dims=None, tasks=3):
    """An fc network with one layer per sharing mode; the independent one
    is the head, 2 wide or as wide as the widest of ``head_dims``, which may
    give the tasks different widths."""
    layers = []
    head = 2 if head_dims is None else max(head_dims)
    for d_in, d_out, mode in [(6, 5, "tied"), (5, 4, "soft_laf"), (4, 4, "soft_tucker"),
                              (4, 3, "soft_tt"), (3, head, "independent")]:
        layers += [LayerSpec(FC(d_in, d_out), SharingMode(mode)), LayerSpec(Activation("tanh"))]
    return NetworkSpec((6,), layers[:-1], tasks, head_dims)


def conv2d_per_row(x: np.ndarray, k: np.ndarray, b: np.ndarray, patches=None) -> np.ndarray:
    """The conv forward as one product per output row plus the bias over a
    trailing axis of length M: the earlier form of ``conv2d_forward``, whose
    bits the one-product-per-sample form must keep."""
    hk, wk, _, m = k.shape
    p = conv2d_patches(x, hk, wk) if patches is None else patches
    out = p.reshape(len(x), x.shape[1] - hk + 1, x.shape[2] - wk + 1, -1) @ k.reshape(-1, m)
    out += b
    return out


def spec_order_forward(net, task: int, x: np.ndarray):
    """``(output, tape)`` of the spec's layers run in written order."""
    h, tape = np.asarray(x, dtype=np.float64), []
    for i, ls in enumerate(net.spec.layers):
        layer = net.param_layers.get(i)
        params = () if layer is None else (layer.weight_for(task), layer.bias_for(task))
        h, cache = ls.kind.forward(h, *params)
        tape.append((ls.kind, layer, cache))
    return h, tape


def spec_order_backward(tape, grad_out: np.ndarray) -> dict:
    """``{layer index: (grad_w, grad_b)}`` of a :func:`spec_order_forward`
    tape, run only through the samples whose row of ``grad_out`` is not all
    zero, each cache restricted by ``take``."""
    g = np.asarray(grad_out, dtype=np.float64)
    rows = np.flatnonzero(g.reshape(len(g), -1).any(axis=1))
    restrict = len(rows) < len(g)
    if restrict:
        g = g[rows]
    grads = {}
    for pos in reversed(range(len(tape))):
        kind, layer, cache = tape[pos]
        if restrict:
            cache = kind.take(cache, rows, {})  # every cache's rows taken anew
        g, *param_grads = kind.backward(g, cache, need_grad_x=pos > 0)
        if layer is not None and len(rows):
            grads[layer.index] = param_grads
    return grads


def named_gradients(net, task: int, layer_grads: dict) -> dict:
    """``net.gradients(task)`` of a pass that gave each layer index of
    ``layer_grads`` its ``(grad_w, grad_b)`` (as :func:`spec_order_backward`
    returns them): each layer names its own, the others read zero."""
    named = {}
    for i, (grad_w, grad_b) in layer_grads.items():
        named.update(net.param_layers[i].grad_items(task, grad_w, grad_b))
    return {name: named[name] if name in named else np.zeros(p.shape)
            for name, p in net.parameters(task).items()}


def assert_gradients_bits_equal(net, task: int, layer_grads: dict):
    """``net.gradients(task)`` equals :func:`named_gradients` to the bit."""
    got, want = net.gradients(task), named_gradients(net, task, layer_grads)
    assert list(got) == list(want)
    for name in want:
        assert_bits_equal(got[name], want[name], name)


def assert_bits_equal(got, want, err_msg=""):
    """Equal arrays down to every bit, signs of zero included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape, err_msg
    assert got.dtype == want.dtype == np.float64, err_msg
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), err_msg


def set_factors(net, index: int, factors, biases):
    """Install soft-sharing ``factors`` and per-task ``biases`` on layer
    ``index`` of ``net``."""
    layer = net.layer_state(index)
    assert tuple(factors.out_shape) == layer.stacked_shape
    layer.factors = factors
    layer.biases = [np.array(b, dtype=np.float64) for b in biases]
