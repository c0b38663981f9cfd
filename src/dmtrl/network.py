"""Multi-task networks whose parametrised layers keep their weights in one
of five sharing modes.

Each layer kind (:class:`FC`, which flattens its input, :class:`Conv`,
:class:`MaxPool`, :class:`Activation`) has ``out_shape(shape)``, raising
``ValueError`` on an input it cannot take, ``forward(x, *params) -> (out,
cache)`` and ``backward(g, cache, need_grad_x) -> (grad_x, *param_grads)``;
fc and conv take a task's weight and bias, may skip ``grad_x`` and give
their ``weight_shape()``, whose fans give the Glorot bound.  ``bind(x)``
gives ``forward`` on ``x`` as a function of the parameters alone, for tasks
that share ``x`` but not the parameters; a conv's binding builds the patch
matrix on its first call and reuses it on the others, and no cache holds it.
``take(cache, rows, memo)`` gives the cache that ``forward`` on just the
samples ``rows`` would have recorded.  Every cache holds the layer's input
or an activation's output (see :mod:`dmtrl.layers`; fc caches its input
before flattening it, and a fused conv and pool its conv output too), so
``take`` is the first cache entry's rows ``x[rows]``, with the other entries
(fc's and conv's weight) passed through; whatever backward derives from them
(patch rows, pool winners) it builds for those rows alone.  A relu's or
tanh's output is the next layer's input, one array in two caches; a backward
pass hands every ``take`` one dict ``memo``, so its rows are copied once.
Kinds look the :mod:`dmtrl.layers` primitives up on that module at call
time, so a tracer that swaps them there sees every call.  ``KINDS`` maps
JSON tags to kinds.

A network holds T task heads over common parameters.  Each fully connected
or convolutional layer keeps its own in one of two parameter-layer classes,
picked by whether its :class:`SharingMode` is soft, and no other code tells
the modes apart.  A :class:`_Dense` layer keeps its weights as they are: a
``shared`` (tied) one a weight ``w`` and bias ``b`` for every task, an
independent one a weight ``w{t}`` and bias ``b{t}`` per task t, so one slot
or T.  A :class:`_Soft` layer (LAF, Tucker or TT) keeps the T task weights
as the slices of one stacked tensor, stored as factors of its ``scheme``
(a ``factorization.SCHEMES`` entry), and a bias ``b{t}`` per task.  Either
class builds the layer from random draws, from T task weights and biases
(their mean when tied, copies when independent, the factors of their stack
when soft) or from named arrays, gives a task's weight, lists the named
parameters, and names the gradients of a task's weight (a soft layer's
slice) and bias.  A weight's shape is
its kind's, except that the head, the last parametrised layer, is
``NetworkSpec.head_width(t)`` wide for task t.

The network runs an execution plan, built once from the spec: a list of
``(kind, param layer or None)`` steps, the spec's layers in order except
that every relu followed by a 2x2 max pool runs as the pool followed by the
relu.  The relu then touches a quarter of the elements, forward and
backward.  The swap keeps every bit.  Relu is monotone, so relu(max) is the
max of the relus, and relu never gives -0 (``maximum(-0., 0.)`` is +0), so
both orders give the same values.  A window whose maximum is positive has
the same first maximum either way, so the pool routes the gradient to the
same input; any other window's pooled value is 0, and the relu's zero mask
gives every one of its inputs ``g * 0`` in both orders, the sign of zero
included.  A tanh is not moved: it saturates, mapping distinct inputs to
equal outputs, which could move a pool winner.

Every conv the plan then finds directly followed by a 2x2 pool runs with it
as one plan-only step, :class:`_ConvPool`: the conv computes only the
2·ho x 2·wo outputs the pool reads, slot-major, and the pool reads its
four window slots as contiguous blocks (see :mod:`dmtrl.layers`).  A conv
followed by a tanh and a pool keeps the standalone pool.  Every output is
still one dot product, and the bias, added after the pool, gives each
window the spec's maximum to the bit (rounding is monotone), so the step
keeps the spec order's bits.  Its cache is the conv input, the kernel, the
bias and the slot-major product; backward finds the winners in the conv
output, product plus bias, scatters the pool gradient into that output's
spec layout, zero in a row or column the pool drops, and runs the spec's
conv backward on it.  Specs, config JSON, manifests, parameter
names (``layer{i}.<kind>``) and the kinds ``Conv`` and ``MaxPool`` stay as
written, and code that runs the spec's kinds one by one sees no change.
The relu caches the pooled output, which is also the next layer's input.

A softly shared layer never builds its stacked tensor: each ``forward`` or
``predict_tasks`` call composes once the slices its tasks read, so it sees
every write to the factors.  Between calls a network holds its parameters
and one pass: a ``forward``'s tape, then the named gradients its
``backward`` gives, which ``gradients`` reads.

``predict_tasks(x, tasks)`` scores several tasks on any number of rows,
``EVAL_BLOCK`` at a time, each block in one depth-first walk over the plan.
It carries a group of tasks that share an activation.  At each layer it
splits the group by the parameter slot each task reads: a tied layer keeps
the group whole, any other parametrised layer gives each task its own path,
and where the group parts the kind is bound to the shared activation once
for all paths.  Each path runs to the output before the next one starts, so
a tied trunk runs once per block, a conv's patch matrix is built once per
group, and at most one task path's activations are alive at a time.  It is
the only scoring entry point: one task is scored as
``predict_tasks(x, [t])[0]``.  A block's outputs are the bits of ``forward``
on that block.  ``EVAL_BLOCK`` = 64: the first demo-04 conv's patch matrix
is then about 7 MiB (56 MiB at 512 rows), so scoring is not bound by memory
traffic.  Timing ``evaluate_suite`` on that network (10 independent or
Tucker tasks, 512 images, numpy 2.4, one BLAS thread, 2 shared vCPUs) gave
2,956-3,357 (independent) and 3,135-3,622 (Tucker) images/s at 64-row
blocks, within the spread of 128 rows and ahead of 16, 32, 256 and 512 rows
(1,520-1,928 at 512), with equal results at every size.

``forward`` is the one-task walk that records a tape of ``(kind, param
layer or None, cache)`` per step, which ``backward`` consumes in reverse,
releasing each entry as it goes.  The tape keeps the activations and
nothing derived from them (see :mod:`dmtrl.layers`), even when ``forward``
ran its first step through ``bind(x)``, which the tasks that train on one
batch share (see :func:`dmtrl.training.train`): a fused first conv's bound
matrix is slot-major, and the kernel gradient builds the spec-order rows it
sums.

Samples are independent rows of every layer, so a sample whose row of the
output gradient is all zero adds nothing to any gradient.  Under the hinge
loss that is every sample already classified with margin >= 1, most of a
batch once training gets going (16-28% of rows carried gradient per epoch
in the benchmark's one-vs-all set-up).  ``backward`` therefore runs every
layer's backward on the other rows only, through the kinds' ``take``; when
every row carries gradient, as under softmax cross-entropy, it runs on the
whole batch as recorded.  Summing over fewer rows regroups the sums, so
gradients can differ from the whole-batch ones in the last bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import layers as nn
from .factorization import SCHEMES, compose_backward, compose_task, decompose

__all__ = [
    "FC", "Conv", "MaxPool", "Activation",
    "SharingMode", "LayerSpec", "NetworkSpec",
    "MultiTaskNetwork", "build_network", "count_parameters",
]


EVAL_BLOCK = 64  # rows per scoring walk; see the module docstring


def _rows(a, rows, memo):
    """``a[rows]``, copied once per backward pass for an array two adjacent
    tape entries cache: ``memo`` keeps the last array taken and its rows."""
    if memo.get("of") is not a:
        memo.update(of=a, rows=a[rows])
    return memo["rows"]


class _Kind:
    """What the layer kinds share; the module docstring gives the contract."""

    tags = ()
    parametrised = False

    @property
    def tag(self) -> str:
        return self.tags[0]

    def bind(self, x):
        return partial(self.forward, x)

    def take(self, cache, rows, memo):
        return (_rows(cache[0], rows, memo), *cache[1:])

    def glorot_bound(self) -> float:
        """sqrt(6 / (fan_in + fan_out)), each fan a channel count times the
        receptive field, summed as integers."""
        *field, fan_in, fan_out = self.weight_shape()
        r = math.prod(field)
        return math.sqrt(6.0 / (r * fan_in + r * fan_out))


@dataclass(frozen=True)
class FC(_Kind):
    d_in: int
    d_out: int
    tags = ("fc",)
    parametrised = True

    def out_shape(self, shape):
        d = int(np.prod(shape))
        if d != self.d_in:
            raise ValueError(f"fc expects {self.d_in} inputs, receives {d}")
        return (self.d_out,)

    def weight_shape(self):
        return (self.d_in, self.d_out)

    def forward(self, x, w, b):
        out, _ = nn.fc_forward(x.reshape(len(x), self.d_in), w, b)
        return out, (x, w)  # the unflattened input, the array a relu before it caches

    def backward(self, g, cache, need_grad_x):
        x, w = cache
        g, gw, gb = nn.fc_backward(g, (x.reshape(len(x), self.d_in), w), need_grad_x=need_grad_x)
        return (None if g is None else g.reshape(x.shape)), gw, gb


@dataclass(frozen=True)
class Conv(_Kind):
    h: int
    w: int
    in_ch: int
    out_ch: int
    tags = ("conv",)
    parametrised = True

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ValueError(f"conv needs (H, W, C) input, got {shape}")
        h, w, c = shape
        if c != self.in_ch:
            raise ValueError(f"{c} channels flowing into conv expecting {self.in_ch}")
        if h < self.h or w < self.w:
            raise ValueError(f"kernel {self.h}x{self.w} larger than input {h}x{w}")
        return (h - self.h + 1, w - self.w + 1, self.out_ch)

    def weight_shape(self):
        return (self.h, self.w, self.in_ch, self.out_ch)

    slots = False  # the patch row order, which the plan-only _ConvPool sets

    def forward(self, x, w, b, patches=None):
        return nn.conv2d_forward(x, w, b, patches)

    def bind(self, x):
        patches = None

        def forward(w, b):
            nonlocal patches
            if patches is None:
                patches = nn.conv2d_patches(x, self.h, self.w, self.slots)
            return self.forward(x, w, b, patches)

        return forward

    def backward(self, g, cache, need_grad_x):
        return nn.conv2d_backward(g, cache, need_grad_x=need_grad_x)


@dataclass(frozen=True)
class MaxPool(_Kind):
    tags = ("maxpool",)

    def out_shape(self, shape):
        if len(shape) != 3 or shape[0] < 2 or shape[1] < 2:
            raise ValueError(f"cannot 2x2-pool input of shape {shape}")
        return (shape[0] // 2, shape[1] // 2, shape[2])

    def forward(self, x):
        return nn.maxpool2_forward(x)

    def backward(self, g, cache, need_grad_x):
        return (nn.maxpool2_backward(g, cache),)


@dataclass(frozen=True)
class Activation(_Kind):
    """An elementwise nonlinearity, named by its tag ``fn``."""

    fn: str
    tags = ("relu", "tanh")

    def __post_init__(self):
        if self.fn not in self.tags:
            raise ValueError(f"unknown activation '{self.fn}'")

    @property
    def tag(self) -> str:
        return self.fn

    def out_shape(self, shape):
        return shape

    def forward(self, x):
        return getattr(nn, f"{self.fn}_forward")(x)

    def backward(self, g, cache, need_grad_x):
        return (getattr(nn, f"{self.fn}_backward")(g, cache),)


KINDS = {tag: kind for kind in (FC, Conv, MaxPool, Activation) for tag in kind.tags}


@dataclass(frozen=True)
class _ConvPool(Conv):
    """A conv and the 2x2 max pool right after it, as one plan step (see the
    module docstring): the conv computes only the products the pool reads,
    slot-major (:func:`dmtrl.layers.conv2d_patches`), the pool takes the
    maxima of four contiguous blocks, and the bias is added to the pooled
    output.  The cache is ``(x, k, b, z)``, z the slot-major product;
    backward finds the winners in z + b, the spec's conv output, and
    scatters the pool's gradient into that output's own layout, so the conv
    backward is the spec's."""

    slots = True

    def out_shape(self, shape):
        return MaxPool().out_shape(super().out_shape(shape))

    def forward(self, x, w, b, patches=None):
        z, _ = nn.conv2d_forward(x, w, None, patches, slots=True)
        out, _ = nn.maxpool2_forward(z)
        out += nn.bias_tile(b, out.shape[1:])
        return out, (x, w, b, z)

    def backward(self, g, cache, need_grad_x):
        x, k, b, z = cache
        y = z + nn.bias_tile(b, z.shape[1:])  # the conv output the spec's pool reads
        g = nn.maxpool2_backward(g, (y,), (len(x), *super().out_shape(x.shape[1:])))
        return nn.conv2d_backward(g, (x, k), need_grad_x=need_grad_x)

    def take(self, cache, rows, memo):
        x, k, b, z = cache
        return _rows(x, rows, memo), k, b, z[rows]


class SharingMode(Enum):
    INDEPENDENT = "independent"
    TIED = "tied"
    SOFT_LAF = "soft_laf"
    SOFT_TUCKER = "soft_tucker"
    SOFT_TT = "soft_tt"

    @property
    def scheme(self):
        """The factor scheme of a softly shared mode (``soft_<tag>``), else None."""
        tag = self.value.removeprefix("soft_")
        return SCHEMES[tag] if tag != self.value else None

    @property
    def soft(self) -> bool:
        return self.scheme is not None


@dataclass(frozen=True)
class LayerSpec:
    kind: object
    mode: SharingMode | None = None  # None only for parameterless layers


@dataclass
class NetworkSpec:
    """Architecture shared by all T task networks, and the one owner of
    their head widths (:meth:`head_width`).

    ``input_shape`` is (H, W, C) for image input or (D,) for vectors.  The
    head is the last parametrised layer.  ``head_dims``, when given, lists
    one width per task, and the head must be an fc whose ``d_out`` (and so
    its Glorot bound) is the widest of them; unequal widths need an
    Independent head.  A spec that breaks a rule raises ``ValueError``, so
    a config, a manifest and :func:`build_network` all refuse it.
    """

    input_shape: tuple
    layers: list
    tasks: int
    head_dims: list | None = None

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if self.tasks < 1:
            raise ValueError("need at least one task")
        if self.head_dims is not None:
            if len(self.head_dims) != self.tasks:
                raise ValueError("head_dims must list one output width per task")
            for d in self.head_dims:
                if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
                    raise ValueError(f"head_dims must be integers >= 1, got {d!r}")
            self.head_dims = [int(d) for d in self.head_dims]
        self._validate_chain()

    def head_width(self, task: int) -> int:
        """Task ``task``'s output width: its ``head_dims`` entry, else the
        head's ``d_out``."""
        if self.head_dims is not None:
            return self.head_dims[task]
        return self.layers[self.parametrised_indices()[-1]].kind.weight_shape()[-1]

    def parametrised_indices(self) -> list:
        return [i for i, ls in enumerate(self.layers) if ls.kind.parametrised]

    def has_soft(self) -> bool:
        """Whether a layer is softly shared, so needs factors to start from."""
        return any(ls.mode is not None and ls.mode.soft for ls in self.layers)

    def _validate_chain(self):
        shape = self.input_shape
        for i, ls in enumerate(self.layers):
            if not isinstance(ls.kind, _Kind):
                raise ValueError(f"layer {i}: {ls.kind!r} is not a layer kind")
            if ls.kind.parametrised and ls.mode is None:
                raise ValueError(f"layer {i} needs a sharing mode")
            try:
                shape = ls.kind.out_shape(shape)
            except ValueError as e:
                raise ValueError(f"layer {i}: {e}") from None
        param_idx = self.parametrised_indices()
        if not param_idx:
            raise ValueError("network needs at least one parametrised layer")
        if self.head_dims is None:
            return
        i, head = param_idx[-1], self.layers[param_idx[-1]]
        if not isinstance(head.kind, FC):
            raise ValueError(f"layer {i}: head_dims sets a head's width, which only an fc head has")
        if head.kind.d_out != max(self.head_dims):
            raise ValueError(f"layer {i}: the head has d_out {head.kind.d_out}, "
                             f"head_dims needs the widest head's {max(self.head_dims)}")
        if len(set(self.head_dims)) > 1 and head.mode is not SharingMode.INDEPENDENT:
            raise ValueError("tasks with different head widths need an Independent head layer")


class CheckpointError(ValueError):
    """A checkpoint or manifest that is malformed or disagrees with its spec."""


def _stored(arrays: dict, name: str, shape=None) -> np.ndarray:
    if name not in arrays:
        raise CheckpointError(f"checkpoint lacks tensor '{name}' that the manifest's spec needs")
    a = arrays[name]
    if shape is not None and a.shape != tuple(shape):
        raise CheckpointError(f"tensor '{name}' has shape {a.shape}, the spec needs {tuple(shape)}")
    return a


class _Dense:
    """A dense parameter layer: weights kept as they are, one per slot.  A
    ``shared`` (tied) layer has one slot serving every task, an independent
    one slot t for task t; a soft layer keeps its biases in the same slots."""

    def __init__(self, index, spec):
        self.index, self.spec = index, spec
        self.kind, self.mode = spec.layers[index].kind, spec.layers[index].mode
        self.shared = self.mode is SharingMode.TIED
        self.tasks = spec.tasks
        self.head = index == spec.parametrised_indices()[-1]
        self.name = f"layer{index}.{self.kind.tag}"
        self.weights = None          # one array per slot
        self.biases = None           # one array per slot

    # -- shapes and slots -------------------------------------------------
    def weight_shape(self, task):
        shape = self.kind.weight_shape()
        return shape[:-1] + (self.spec.head_width(task),) if self.head else shape

    def bias_width(self, task):
        return self.weight_shape(task)[-1]

    @property
    def stacked_shape(self):
        return self.weight_shape(0) + (self.tasks,)

    def slot(self, task: int) -> int:
        return 0 if self.shared else task

    def slots(self, task=None):
        """Every slot of the layer, or only the one serving ``task``."""
        return range(1 if self.shared else self.tasks) if task is None else (self.slot(task),)

    def _name(self, letter, slot) -> str:
        return f"{self.name}.{letter}{'' if self.shared else slot}"

    # -- installing parameters --------------------------------------------
    def _slot_arrays(self, per_task) -> list:
        """Per-task arrays as slot arrays: their mean in a shared slot, else copies."""
        if self.shared:
            return [np.mean(per_task, axis=0)]
        return [np.array(a, dtype=np.float64) for a in per_task]

    def _load(self, arrays, letter, shape) -> list:
        return [_stored(arrays, self._name(letter, s), shape(s)) for s in self.slots()]

    def from_draws(self, draw, epsilon):
        shapes = [self.weight_shape(s) for s in self.slots()]
        if len(set(shapes)) == 1:  # one draw, so identically configured tasks start identical
            w0 = draw(shapes[0])
            self.weights = [w0.copy() for _ in shapes]
        else:
            self.weights = [draw(s) for s in shapes]
        self.biases = [np.zeros(self.bias_width(s)) for s in self.slots()]

    def from_tasks(self, weights, biases, epsilon):
        self.weights, self.biases = self._slot_arrays(weights), self._slot_arrays(biases)

    def load(self, arrays):
        self.weights = self._load(arrays, "w", self.weight_shape)
        self.biases = self._load(arrays, "b", lambda s: (self.bias_width(s),))

    # -- parameter access -------------------------------------------------
    def weight_for(self, task) -> np.ndarray:
        return self.weights[self.slot(task)]

    def bias_for(self, task) -> np.ndarray:
        return self.biases[self.slot(task)]

    def items(self, task=None):
        """(name, tensor) pairs of the layer's parameters; with ``task``
        given, only those that task's forward pass depends on."""
        for letter, values in (("w", self.weights), ("b", self.biases)):
            yield from ((self._name(letter, s), values[s]) for s in self.slots(task))

    def grad_items(self, task, grad_w, grad_b):
        """(name, gradient) pairs of one pass of ``task`` that gave its
        weight the gradient ``grad_w`` and its bias ``grad_b``."""
        yield self._name("w", self.slot(task)), grad_w
        yield self._name("b", self.slot(task)), grad_b


class _Soft(_Dense):
    """A soft parameter layer: the T task weights kept as one factor record
    of its ``scheme``, a task's slice composed on each :meth:`weight_for`."""

    def __init__(self, index, spec):
        self.scheme = spec.layers[index].mode.scheme
        self.factors = None
        super().__init__(index, spec)

    def from_draws(self, draw, epsilon):
        if epsilon is None:
            raise ValueError(
                f"{self.name} is softly shared; PlainRandom cannot pick its ranks "
                "(use RandomDecompose or an STL-based initialisation)"
            )
        self.from_tasks([draw(self.weight_shape(0)) for _ in range(self.tasks)],
                        [np.zeros(self.bias_width(0))] * self.tasks, epsilon)

    def from_tasks(self, weights, biases, epsilon):
        self.factors = decompose(self.scheme.tag, np.stack(weights, axis=-1), epsilon)
        self.biases = self._slot_arrays(biases)

    def load(self, arrays):
        n = self.name
        tensors = [_stored(arrays, f"{n}.{name}")
                   for name in self.scheme.names(len(self.stacked_shape))]
        try:
            f = self.scheme.unpack(tensors)
        except ValueError as e:  # the factor records' own consistency checks
            raise CheckpointError(f"{n}: inconsistent stored factors: {e}") from e
        if tuple(f.out_shape) != self.stacked_shape:
            raise CheckpointError(
                f"{n}: stored factors compose to {f.out_shape}, the spec needs {self.stacked_shape}"
            )
        self.factors = f
        self.biases = self._load(arrays, "b", lambda s: (self.bias_width(s),))

    def weight_for(self, task) -> np.ndarray:
        return compose_task(self.factors, task)

    def _named(self, f):
        return ((f"{self.name}.{name}", a) for name, a in self.scheme.items(f))

    def items(self, task=None):
        yield from self._named(self.factors)
        yield from ((self._name("b", s), self.biases[s]) for s in self.slots(task))

    def grad_items(self, task, grad_w, grad_b):
        yield from self._named(compose_backward(self.factors, grad_w, task=task))
        yield self._name("b", self.slot(task)), grad_b


def _execution_plan(steps) -> list:
    """The spec's ``(kind, param layer or None)`` steps as the network runs
    them (see the module docstring): every relu followed by a 2x2 pool runs
    as the pool followed by the relu, and every conv followed by a 2x2 pool
    runs with it as one :class:`_ConvPool` step."""
    plan = list(steps)
    for i in range(len(plan) - 1):
        if plan[i][0] == Activation("relu") and isinstance(plan[i + 1][0], MaxPool):
            plan[i], plan[i + 1] = plan[i + 1], plan[i]
    fused = []
    for kind, layer in plan:
        if isinstance(kind, MaxPool) and fused and type(fused[-1][0]) is Conv:
            conv, layer = fused.pop()
            kind = _ConvPool(conv.h, conv.w, conv.in_ch, conv.out_ch)
        fused.append((kind, layer))
    return fused


def _split(layer, group) -> list:
    """The subgroups of ``group`` that read one parameter slot of ``layer``;
    the whole group when it has no parameters."""
    if layer is None:
        return [group]
    by_slot = {}
    for t in group:
        by_slot.setdefault(layer.slot(t), []).append(t)
    return list(by_slot.values())


class MultiTaskNetwork:
    """T task networks over the parameters described by a :class:`NetworkSpec`."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.param_layers = {i: (_Soft if spec.layers[i].mode.soft else _Dense)(i, spec)
                             for i in spec.parametrised_indices()}
        self._plan = _execution_plan((ls.kind, self.param_layers.get(i))
                                     for i, ls in enumerate(spec.layers))
        self._tape = None
        self._grads = {}             # name -> gradient, of the current pass

    @property
    def tasks(self) -> int:
        return self.spec.tasks

    def layer_state(self, index) -> _Dense:
        if index not in self.param_layers:
            raise ValueError(f"layer {index} has no parameters")
        return self.param_layers[index]

    def set_layer_weights(self, index, weights, biases, epsilon=None):
        """Install layer ``index`` from T per-task weights and biases: a tied
        layer keeps their mean, an independent one copies, and a softly
        shared one keeps the factors of the stacked weights at ``epsilon``."""
        layer = self.layer_state(index)
        want = [layer.weight_shape(t) for t in range(self.tasks)]
        got = [np.shape(w) for w in weights], [np.shape(b) for b in biases]
        if got != (want, [s[-1:] for s in want]):
            raise ValueError(f"layer {index} needs task weights of shapes {want} and their biases")
        layer.from_tasks(weights, biases, epsilon)

    # -- forward / backward ----------------------------------------------
    def bind(self, x: np.ndarray):
        """The first step's kind bound to the batch ``x``, for :meth:`forward`
        calls of several tasks on that batch: a first conv builds its patch
        matrix once for all of them."""
        return self._plan[0][0].bind(np.asarray(x, dtype=np.float64))

    def forward(self, task: int, x: np.ndarray, first=None) -> np.ndarray:
        """Task output for a batch, recording the tape :meth:`backward` needs
        in place of the last pass and its gradients.

        ``first``, when given, is :meth:`bind` of this same ``x``; the first
        step runs through it, and the tape is the one a plain forward
        records."""
        tape, out, self._grads = [], {}, {}  # a new pass: the last one's gradients go
        self._walk(np.asarray(x, dtype=np.float64), [task], 0, self._params([task]), out,
                   tape, first)
        self._tape = (task, tape)
        return out[task]

    def predict_tasks(self, x: np.ndarray, tasks) -> list:
        """Each task's output for the rows ``x``: per ``EVAL_BLOCK``-row
        block, bit for bit :meth:`forward`'s, from one depth-first walk (see
        the module docstring) without a tape.

        Each layer's cache is dropped as soon as the next layer runs, and any
        tape a previous :meth:`forward` recorded is left as it was."""
        tasks = list(tasks)
        x, params = np.asarray(x, dtype=np.float64), self._params(tasks)
        blocks = []
        for lo in range(0, max(len(x), 1), EVAL_BLOCK):
            out = {}
            if tasks:
                self._walk(x[lo : lo + EVAL_BLOCK], tasks, 0, params, out, None)
            blocks.append([out[t] for t in tasks])
        return [np.concatenate(rows) for rows in zip(*blocks)]

    def _params(self, tasks) -> list:
        """Each plan step's ``{task: (weight, bias)}`` for ``tasks``, ``()``
        for a step without parameters: each slice composed once."""
        for task in tasks:
            if not 0 <= task < self.tasks:
                raise ValueError(f"task {task} out of range [0, {self.tasks})")
        return [{t: () if layer is None else (layer.weight_for(t), layer.bias_for(t))
                 for t in tasks} for _, layer in self._plan]

    def _walk(self, h, group, start, params, out, tape, run=None):
        """Run plan steps ``start`` onwards for the tasks in ``group``, which
        share the activation ``h``, into ``out[task]``, with the parameters
        ``params`` (:meth:`_params`); ``run``, when given, is step
        ``start``'s kind bound to ``h``, and ``tape`` records a group that
        never splits."""
        for i in range(start, len(self._plan)):
            kind, layer = self._plan[i]
            paths = _split(layer, group)
            if len(paths) > 1:
                run = run or kind.bind(h)
                for sub in paths:
                    self._walk(run(*params[i][sub[0]])[0], sub, i + 1, params, out, None)
                return
            p = params[i][group[0]]
            h, cache = run(*p) if run else kind.forward(h, *p)
            run = None
            if tape is not None:
                tape.append((kind, layer, cache))
        out.update(dict.fromkeys(group, h))

    def backward(self, task: int, grad_out: np.ndarray) -> None:
        """Record the parameter gradients of the last forward pass (see
        :meth:`gradients`).  Nothing reads the gradient with respect to the
        network's input, so none is returned.

        Only the samples whose row of ``grad_out`` is not all zero run
        backward (see the module docstring).
        """
        if self._tape is None:
            raise RuntimeError("backward called without a cached forward pass")
        tape_task, tape = self._tape
        if tape_task != task:
            raise RuntimeError(f"forward cached for task {tape_task}, backward asked for {task}")
        self._tape = None
        g = np.asarray(grad_out, dtype=np.float64)
        batch = len(g)
        rows = np.flatnonzero(g.reshape(batch, -1).any(axis=1))
        restrict = len(rows) < batch
        if restrict:
            g = g[rows]
        memo = {}  # a relu's output is the next layer's input: its rows are taken once
        grads = []
        while tape:  # each entry is released as soon as it is consumed
            kind, layer, cache = tape.pop()
            if restrict:
                cache = kind.take(cache, rows, memo)
            # nothing consumes the first layer's input gradient
            g, *param_grads = kind.backward(g, cache, need_grad_x=bool(tape))
            if layer is not None and len(rows):
                grads.append((layer, param_grads))
        # named once the tape is freed: naming them in the loop, or keeping
        # them into the next forward, tripled the page faults per step of a
        # random-decompose Tucker demo-04 network (numpy 2.4, 2 vCPUs)
        for layer, (grad_w, grad_b) in reversed(grads):
            self._grads.update(layer.grad_items(task, grad_w, grad_b))

    # -- parameter plumbing ------------------------------------------------
    def parameters(self, task=None) -> dict:
        """Every named parameter, or with ``task`` given only those on that
        task's forward path (an optimiser step for that task updates no
        other task's private weights)."""
        return {name: a for i in sorted(self.param_layers)
                for name, a in self.param_layers[i].items(task)}

    def gradients(self, task=None) -> dict:
        """The last pass's gradients of :meth:`parameters` (of ``task``),
        zero where its :meth:`backward` gave none or has not run."""
        return {name: self._grads[name] if name in self._grads else np.zeros(p.shape)
                for name, p in self.parameters(task).items()}

    def load_parameters(self, arrays: dict):
        """Overwrite parameters in place from a name -> array mapping."""
        params = self.parameters()
        missing = set(params) - set(arrays)
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)[:4]}...")
        for name, p in params.items():
            a = np.asarray(arrays[name], dtype=np.float64)
            if a.shape != p.shape:
                raise ValueError(f"{name}: stored shape {a.shape} != expected {p.shape}")
            p[...] = a


def build_network(spec: NetworkSpec, init, seed: int) -> MultiTaskNetwork:
    """Allocate and randomly initialise a network.

    ``init`` is a policy record from :mod:`dmtrl.training` (PlainRandom or
    RandomDecompose).  Weights are uniform in +-sqrt(6 / (fan_in + fan_out));
    biases start at zero.  Independent layers with equal shapes across tasks
    share one draw, so identically configured task networks start identical.
    Softly shared layers need a rank-selecting policy: under RandomDecompose
    each task slice is sampled independently and the stacked tensor is
    factorised at the policy's epsilon.
    """
    from .training import PlainRandom, RandomDecompose  # cycle-free at call time

    if not isinstance(init, (PlainRandom, RandomDecompose)):
        raise ValueError(f"unsupported init policy {init!r} for build_network")
    epsilon = init.epsilon if isinstance(init, RandomDecompose) else None
    net = MultiTaskNetwork(spec)
    rng = np.random.default_rng(seed)
    for i in sorted(net.param_layers):
        layer = net.param_layers[i]
        bound = layer.kind.glorot_bound()
        layer.from_draws(lambda shape: rng.uniform(-bound, bound, size=shape), epsilon)
    return net


def count_parameters(net: MultiTaskNetwork) -> dict:
    """Exact learnable-scalar counts, per layer and total, plus the ratio
    against an all-Independent network of the same architecture."""
    by_layer = {}
    independent_total = 0
    for i in sorted(net.param_layers):
        layer = net.param_layers[i]
        ind = sum(
            int(np.prod(layer.weight_shape(t))) + layer.bias_width(t)
            for t in range(net.tasks)
        )
        independent_total += ind
        by_layer[layer.name] = sum(p.size for _, p in layer.items())
    total = sum(by_layer.values())
    return {
        "total": total,
        "by_layer": by_layer,
        "independent_total": independent_total,
        "ratio_vs_independent": total / independent_total,
    }
