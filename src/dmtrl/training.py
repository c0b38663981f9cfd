"""Optimisers, initialisation pipelines and the multi-task training loop.

Two ways to initialise a softly shared network:

* ``pretrain_stl`` + ``init_from_stl``: train one independent network per
  task, stack each layer's weights with the task index as the last axis,
  and factorise the stack at a relative-error budget ``epsilon``.  The
  truncation picks every layer's ranks, so ``epsilon`` is the only
  structural hyperparameter.
* ``build_network(spec, RandomDecompose(epsilon), seed)``: skip
  pretraining; sample the stacked weight tensors from a fan-scaled uniform
  distribution, factorise at ``epsilon`` and keep the factors, so the
  recomposed tensors approximate the intended distribution.

Training interleaves tasks round-robin, one minibatch per task per cycle.  A
step is ``forward``, ``task_loss``, ``backward`` and an optimiser step on
the task's parameters with the gradients of that one pass, which
``backward`` records and the next ``forward`` drops.  All randomness flows from
the config seed; each task draws from its own identically seeded stream, so
tasks with identical data see identical batch orders.  Tasks that read one
input array (every task of a one-vs-all suite, both heterogeneous tasks)
therefore draw equal indices in every cycle.  Consecutive tasks that read the
same array at equal indices share one gathered batch and one binding of the
network's first layer (:meth:`~dmtrl.network.MultiTaskNetwork.bind`): a
first conv builds its patch matrix (about 7 MiB for a 64-image demo-04
batch) once per cycle instead of once per task, and the binding is dropped
when the cycle ends.  Tasks whose arrays are separate, even if equal in
value, each gather and bind their own batch.

A binary task's hinge loss max(0, 1 - y f(x)) has a zero gradient for every
sample with margin y f(x) >= 1: only the samples inside the margin or
misclassified (the support vectors of Cortes & Vapnik 1995) carry gradient.
In the benchmark's one-vs-all set-up that was 16-28% of a 64-row batch per
epoch, and the network's backward pass runs only through those rows.  A
multi-class task's softmax cross-entropy gives every row a gradient, so its
backward pass runs on the whole batch.  The tape keeps each conv's input
rather than its patch matrix, so a conv builds its patches again for the
kernel gradient (0.37-0.47 ms at batch 64 on one BLAS thread for the second
demo-04 conv), the first conv too: the cycle's bound matrix holds only the
rows a pool reads, slot-major (see :mod:`dmtrl.network`), and the kernel
gradient sums the spec-order rows.

Scoring has one prediction rule and one pass.  A binary task predicts the
sign of its output 0, a multi-class task the argmax of its outputs.
``task_loss`` (for the batch error it logs), ``evaluate_tasks`` and
``evaluate_suite`` all count mismatches under that rule.  Both evaluators
score each task's own inputs through one grouped pass; a one-vs-all suite is
scored from its tasks' shared inputs, the one read-only array ``make_suite``
converted, and its multi-class ranking error is the argmax rule applied to
the same outputs, one column of binary scores per task.

Tasks that read the same input array (every task of a one-vs-all suite,
both heterogeneous tasks) are scored together, in one ``predict_tasks``
call: it composes each soft slice once and walks ``EVAL_BLOCK``-row blocks
(see :mod:`dmtrl.network`) depth-first, runs a tied trunk once per block,
builds a conv's patch matrix once for all tasks that share its input, and
finishes one task's path before it starts the next.  Peak memory is one
task path plus one patch matrix per layer where the tasks part, not T
stacked first-conv outputs (36,864 x 80 doubles, 22.5 MiB per block at
T = 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TaskDataset, OneVsAllSuite
from .layers import hinge_loss, softmax_ce_loss
from .network import (
    LayerSpec,
    MultiTaskNetwork,
    NetworkSpec,
    SharingMode,
    build_network,
)

__all__ = [
    "StlInit", "RandomDecompose", "PlainRandom", "TrainConfig", "TrainRecord",
    "pretrain_stl", "init_from_stl",
    "train", "evaluate_tasks", "evaluate_suite",
]

@dataclass(frozen=True)
class StlInit:
    pretrain_epochs: int = 10
    epsilon: float = 0.10

    def __post_init__(self):
        _check_epsilon(self.epsilon)


@dataclass(frozen=True)
class RandomDecompose:
    epsilon: float = 0.10

    def __post_init__(self):
        _check_epsilon(self.epsilon)


@dataclass(frozen=True)
class PlainRandom:
    pass


def _check_epsilon(epsilon):
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"      # the one accepted value: Adam is the only optimiser
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.optimizer != "adam":
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        if self.lr < 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("learning rate, batch size and epochs must be non-negative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0 and self.adam_eps > 0.0):
            raise ValueError("Adam needs 0 <= beta1, beta2 < 1 and adam_eps > 0, got "
                             f"{self.beta1}, {self.beta2} and {self.adam_eps}")


@dataclass(frozen=True)
class TrainRecord:
    epoch: int
    task: int
    loss: float
    error: float


class _Adam:
    """Adam with a per-parameter step count: a parameter's moment estimates
    and bias corrections advance only when that parameter is stepped, so a
    task's private weights follow the same schedule however tasks are
    interleaved.

    A step allocates nothing once every parameter has been stepped: it runs
    the textbook update's operations in their order, each written into the
    moments or into two scratch buffers sized for the largest parameter, so
    the results are bit for bit those of the allocating expressions."""

    def __init__(self, cfg):
        self.lr, self.b1, self.b2, self.eps = cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps
        self.m, self.v, self.t = {}, {}, {}
        self._scratch = np.empty((2, 0))

    def step(self, params, grads):
        for name, p in params.items():
            g = grads[name]
            t = self.t[name] = self.t.get(name, 0) + 1
            if t == 1:
                self.m[name], self.v[name] = np.zeros_like(p), np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            if self._scratch.shape[1] < p.size:
                self._scratch = np.empty((2, p.size))
            a, b = (s[: p.size].reshape(p.shape) for s in self._scratch)
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            m *= self.b1
            m += np.multiply(1.0 - self.b1, g, out=a)
            v *= self.b2
            np.multiply(g, g, out=a)
            v += np.multiply(1.0 - self.b2, a, out=a)
            # p -= lr (m / c1) / (sqrt(v / c2) + eps)
            c1 = 1.0 - self.b1 ** t
            c2 = 1.0 - self.b2 ** t
            np.divide(m, c1, out=a)
            np.multiply(self.lr, a, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            p -= np.divide(a, b, out=a)


def make_optimizer(cfg: TrainConfig):
    return _Adam(cfg)


def _error(out: np.ndarray, labels: np.ndarray, binary: bool) -> float:
    """Share of rows whose prediction differs from ``labels``: a binary task
    predicts the sign of output 0 (+1 for a positive score, else -1), a
    multi-class task the argmax, ties going to the lowest class."""
    pred = np.where(out[:, 0] > 0, 1, -1) if binary else out.argmax(1)
    return np.count_nonzero(pred != labels) / len(labels)


def task_loss(out: np.ndarray, ds: TaskDataset, idx: np.ndarray):
    """Mean loss, gradient w.r.t. the network output, and batch error rate."""
    y = ds.labels[idx]
    if ds.binary:
        losses, g = hinge_loss(out[:, 0], y)
        grad = np.zeros_like(out)
        grad[:, 0] = g / len(idx)
    else:
        losses, grad = softmax_ce_loss(out, y)
        grad = grad / len(idx)
    return float(losses.mean()), grad, _error(out, y, ds.binary)


class _BatchStream:
    """Shuffled index batches, reshuffling whenever the pass completes."""

    def __init__(self, n, batch, rng):
        self.n, self.batch, self.rng = n, batch, rng
        self.order = rng.permutation(n)
        self.pos = 0

    def next(self):
        if self.pos >= self.n:
            self.order = self.rng.permutation(self.n)
            self.pos = 0
        idx = self.order[self.pos : self.pos + self.batch]
        self.pos += len(idx)
        return idx


def train(net: MultiTaskNetwork, datasets, config: TrainConfig):
    """Round-robin multi-task training; returns per-epoch, per-task records."""
    if len(datasets) != net.tasks:
        raise ValueError(f"{net.tasks} tasks but {len(datasets)} datasets")
    for ds in datasets:
        if len(ds) == 0:
            raise ValueError(f"task {ds.task_id} has no training data")
    opt = make_optimizer(config)
    streams = [
        _BatchStream(len(ds), config.batch_size, np.random.default_rng(config.seed))
        for ds in datasets
    ]
    cycles = max(1, math.ceil(max(len(ds) for ds in datasets) / config.batch_size))
    log = []
    step = 0
    for epoch in range(config.epochs):
        loss_sum = np.zeros(net.tasks)
        err_sum = np.zeros(net.tasks)
        for _ in range(cycles):
            # the array and indices the batch x and its binding were taken from
            source = source_idx = x = first = None
            for t in range(net.tasks):
                idx = streams[t].next()
                if datasets[t].inputs is not source or not np.array_equal(idx, source_idx):
                    source, source_idx = datasets[t].inputs, idx
                    x = source[idx]
                    first = net.bind(x)
                out = net.forward(t, x, first)
                loss, grad, err = task_loss(out, datasets[t], idx)
                if not np.isfinite(loss):
                    raise RuntimeError(f"non-finite loss at step {step} (task {t})")
                net.backward(t, grad)
                # update only the parameters on this task's forward path:
                # other tasks' private weights must not see optimiser steps
                opt.step(net.parameters(t), net.gradients(t))
                loss_sum[t] += loss
                err_sum[t] += err
                step += 1
        for t in range(net.tasks):
            log.append(TrainRecord(epoch, t, loss_sum[t] / cycles, err_sum[t] / cycles))
    return log


def _all_independent(spec: NetworkSpec) -> NetworkSpec:
    layers = [
        LayerSpec(ls.kind, SharingMode.INDEPENDENT if ls.mode is not None else None)
        for ls in spec.layers
    ]
    return NetworkSpec(spec.input_shape, layers, spec.tasks, spec.head_dims)


def pretrain_stl(spec: NetworkSpec, datasets, config: TrainConfig) -> MultiTaskNetwork:
    """Train one independent network per task (same architecture, shared
    random starting point); the result feeds :func:`init_from_stl`."""
    net = build_network(_all_independent(spec), PlainRandom(), config.seed)
    train(net, datasets, config)
    return net


def init_from_stl(stl_net: MultiTaskNetwork, target_spec: NetworkSpec,
                  epsilon: float) -> MultiTaskNetwork:
    """Build a sharing network from per-task pretrained weights.

    Every softly shared layer stacks the task weights with the task index as
    the last axis and factorises the stack at ``epsilon``; the truncation
    rule picks the ranks.  Biases are copied per task (averaged for tied
    layers, which share everything).
    """
    _check_epsilon(epsilon)
    if [type(ls.kind) for ls in target_spec.layers] != [
        type(ls.kind) for ls in stl_net.spec.layers
    ]:
        raise ValueError("target architecture differs from the pretrained one")
    net = MultiTaskNetwork(target_spec)
    for i in net.param_layers:
        src = stl_net.layer_state(i)
        net.set_layer_weights(i, [src.weight_for(t) for t in range(net.tasks)],
                              [src.bias_for(t) for t in range(net.tasks)], epsilon)
    return net


def _score(net: MultiTaskNetwork, datasets) -> tuple:
    """Each task's outputs on its own inputs, and its error rate under
    :func:`_error`.  Tasks reading the same array are scored together, in
    one :meth:`~dmtrl.network.MultiTaskNetwork.predict_tasks` call."""
    if len(datasets) != net.tasks:
        raise ValueError(f"{net.tasks} tasks but {len(datasets)} datasets")
    groups = {}
    for t, ds in enumerate(datasets):
        if len(ds) == 0:
            raise ValueError(f"task {ds.task_id} has an empty evaluation set")
        groups.setdefault(id(ds.inputs), (ds.inputs, []))[1].append(t)
    outs = [None] * len(datasets)
    for x, tasks in groups.values():
        for t, out in zip(tasks, net.predict_tasks(x, tasks)):
            outs[t] = out
    return outs, [_error(out, ds.labels, ds.binary) for ds, out in zip(datasets, outs)]


def evaluate_tasks(net: MultiTaskNetwork, datasets):
    """Per-task error rates (sign mismatches for binary tasks, argmax
    mismatches for multi-class ones)."""
    return _score(net, datasets)[1]


def evaluate_suite(net: MultiTaskNetwork, suite: OneVsAllSuite) -> dict:
    """Binary error per task, their mean, and the ranking multi-class error:
    each source image goes to the task with the highest score."""
    outs, per_task = _score(net, suite.tasks)
    scores = np.column_stack([out[:, 0] for out in outs])
    return {
        "per_task": per_task,
        "mean_binary": float(np.mean(per_task)),
        "multiclass": _error(scores, suite.source.labels, binary=False),
    }
