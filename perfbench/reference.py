"""Independent reference forward pass, used to check dmtrl's evaluation.

Each task's weights are rebuilt from the stored parameters with
``np.einsum`` (no dmtrl composition code), and the network runs with a
direct convolution that accumulates one shifted window per kernel offset
(no patch matrix).  Parameters are read by their checkpoint names:
``layer<i>.<conv|fc>.w<t>`` for independent layers, ``.tucker.core`` and
``.tucker.u<n>`` for Tucker, ``.tt.head`` / ``.tt.core<n>`` / ``.tt.tail``
for tensor-train, and ``.b<t>`` for per-task biases.
"""

from __future__ import annotations

import string

import numpy as np

LETTERS = string.ascii_letters


def tucker_full(core, us):
    """core x_1 us[0] x_2 ... x_N us[N-1], as one einsum."""
    n = core.ndim
    src, dst = LETTERS[:n], LETTERS[n:2 * n]
    expr = src + "," + ",".join(dst[i] + src[i] for i in range(n)) + "->" + dst
    return np.einsum(expr, core, *us, optimize=True)


def _tucker_task(core, us, task):
    n = core.ndim
    src, dst = LETTERS[:n], LETTERS[n:2 * n - 1]
    ops = ",".join(dst[i] + src[i] for i in range(n - 1))
    expr = f"{src},{ops},{src[-1]}->{dst}"
    return np.einsum(expr, core, *us[:-1], us[-1][task], optimize=True)


def _tt_task(head, cores, tail, task):
    n = len(cores) + 2
    bonds, dims = LETTERS[:n - 1], LETTERS[n - 1:2 * n - 2]
    ops = [dims[0] + bonds[0]]
    ops += [bonds[i] + dims[i + 1] + bonds[i + 1] for i in range(len(cores))]
    ops.append(bonds[n - 2])
    expr = ",".join(ops) + "->" + dims
    return np.einsum(expr, head, *cores, tail[:, task], optimize=True)


def task_weight(params: dict, layer: str, task: int) -> np.ndarray:
    """The weight tensor one task uses in the named layer."""
    if f"{layer}.w{task}" in params:
        return params[f"{layer}.w{task}"]
    if f"{layer}.tucker.core" in params:
        core = params[f"{layer}.tucker.core"]
        us = [params[f"{layer}.tucker.u{i}"] for i in range(core.ndim)]
        return _tucker_task(core, us, task)
    if f"{layer}.tt.head" in params:
        cores, i = [], 0
        while f"{layer}.tt.core{i}" in params:
            cores.append(params[f"{layer}.tt.core{i}"])
            i += 1
        return _tt_task(params[f"{layer}.tt.head"], cores, params[f"{layer}.tt.tail"], task)
    raise KeyError(f"no reference composition for the parameters of {layer}")


def conv_direct(x, k, b):
    hk, wk, _, m = k.shape
    ho, wo = x.shape[1] - hk + 1, x.shape[2] - wk + 1
    out = np.zeros((x.shape[0], ho, wo, m))
    for dy in range(hk):
        for dx in range(wk):
            out += x[:, dy:dy + ho, dx:dx + wo, :] @ k[dy, dx]
    return out + b


def maxpool_direct(x):
    n, h, w, c = x.shape
    ho, wo = h // 2, w // 2
    return x[:, :2 * ho, :2 * wo, :].reshape(n, ho, 2, wo, 2, c).max(axis=(2, 4))


def forward(layers, params: dict, task: int, x: np.ndarray) -> np.ndarray:
    """Network outputs for one task; ``layers`` lists "conv", "fc",
    "maxpool" or "relu" per layer, in order."""
    h = x
    for i, kind in enumerate(layers):
        if kind in ("conv", "fc"):
            name = f"layer{i}.{kind}"
            w, b = task_weight(params, name, task), params[f"{name}.b{task}"]
            if kind == "conv":
                h = conv_direct(h, w, b)
            else:
                h = h.reshape(len(h), -1) @ w + b
        elif kind == "maxpool":
            h = maxpool_direct(h)
        elif kind == "relu":
            h = np.maximum(h, 0.0)
        else:
            raise ValueError(f"no reference for layer kind {kind!r}")
    return h


def check_suite_scores(layers, params, tasks, inputs, labels, result) -> list:
    """Compare an ``evaluate_suite`` result on a one-vs-all suite with the
    reference; each error count may differ by one image (floating-point
    ties).  Returns a list of failure messages."""
    n = len(labels)
    scores = np.column_stack(
        [forward(layers, params, t, inputs)[:, 0] for t in range(tasks)])
    failures = []
    for t in range(tasks):
        target = np.where(labels == t, 1, -1)
        ref_wrong = int(np.sum(np.where(scores[:, t] > 0, 1, -1) != target))
        got_wrong = round(result["per_task"][t] * n)
        if abs(ref_wrong - got_wrong) > 1:
            failures.append(f"task {t}: {got_wrong} binary errors, reference {ref_wrong}")
    ref_multi = int(np.sum(scores.argmax(1) != labels))
    got_multi = round(result["multiclass"] * n)
    if abs(ref_multi - got_multi) > 1:
        failures.append(f"multiclass: {got_multi} errors, reference {ref_multi}")
    return failures
