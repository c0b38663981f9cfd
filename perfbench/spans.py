"""Per-layer tracing by wrapping dmtrl's public functions at run time.

Nothing under ``src/`` changes: :func:`install` replaces each traced
function in every ``dmtrl`` module namespace that holds it (and each traced
method on its class) with a wrapper that times the call and records it in a
:class:`Tracer`.  Spans are aggregated in memory as they close, keyed by
(span name, whether the call ran inside ``training.train``), so a per-step
figure only counts work done by the training loop.

A span's self time is its duration minus the time of the traced spans
directly inside it.  In a *folded* module (factorization, linalg, data,
checkpoint, analysis) a traced call made directly from a traced call of the
same module is charged to the outer span, so the composition inside
``compose_backward`` counts as backward work and not as a second compose.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

MIB = 1024.0 * 1024.0


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.stack = []        # open spans: [name, module, child seconds]
        self.train_depth = 0   # > 0 while inside training.train
        self.reset()

    def reset(self):
        self.time = defaultdict(float)       # (name, in_train) -> seconds
        self.self_time = defaultdict(float)  # (name, in_train) -> seconds
        self.calls = defaultdict(int)        # (name, in_train) -> calls
        self.counts = defaultdict(float)     # (counter, in_train) -> total
        self.peaks = defaultdict(float)      # counter -> largest single value

    @property
    def in_train(self) -> bool:
        return self.train_depth > 0

    def count(self, name, value):
        self.counts[(name, self.in_train)] += value

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks[name], value)

    def dump(self) -> dict:
        def rows(d):
            return [[k[0], k[1], v] for k, v in sorted(d.items())]
        return {"time": rows(self.time), "self_time": rows(self.self_time),
                "calls": rows(self.calls), "counts": rows(self.counts),
                "peaks": dict(self.peaks)}


class Totals:
    """Read-only sums over one or more :meth:`Tracer.dump` results."""

    def __init__(self, dumps):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(float)
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        for d in dumps:
            for field in ("time", "self_time", "calls", "counts"):
                acc = getattr(self, field)
                for name, in_train, v in d[field]:
                    acc[(name, bool(in_train))] += v
            for name, v in d["peaks"].items():
                self.peaks[name] = max(self.peaks[name], v)

    @staticmethod
    def _sum(d, name, train_only):
        return d[(name, True)] + (0.0 if train_only else d[(name, False)])

    def seconds(self, name, train_only=False):
        return self._sum(self.time, name, train_only)

    def self_seconds(self, name, train_only=False):
        return self._sum(self.self_time, name, train_only)

    def ncalls(self, name, train_only=False):
        return self._sum(self.calls, name, train_only)

    def counter(self, name, train_only=False):
        return self._sum(self.counts, name, train_only)


def _span(tracer, fn, name, module, fold, after=None):
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        if fold and stack and stack[-1][1] == module:
            return fn(*args, **kwargs)
        frame = [name, module, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][2] += dt
            key = (name, tracer.in_train)
            tracer.time[key] += dt
            tracer.self_time[key] += dt - frame[2]
            tracer.calls[key] += 1
        if after is not None:
            after(tracer, result, args)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _training_scope(tracer, fn):
    def wrapper(*args, **kwargs):
        tracer.train_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.train_depth -= 1

    wrapper.__wrapped__ = fn
    return wrapper


# -- counters taken from a traced call's arguments or result ---------------

def _conv_patches(tracer, out, args):
    x, k = args[0], args[1]
    hk, wk, cin, _ = k.shape
    ho, wo = x.shape[1] - hk + 1, x.shape[2] - wk + 1
    tracer.peak("conv_patch_bytes", 8.0 * x.shape[0] * ho * wo * hk * wk * cin)


def _composed(tracer, out, args):
    tracer.count("composed_elements", out.size)


def _generated(tracer, out, args):
    tracer.count("images_generated", len(out))


def _heterogeneous(tracer, out, args):
    # both tasks read the same instances, and every instance is used
    tracer.count("images_generated", len(out[0]))
    tracer.count("images_used", len(out[0]))


def _suite(tracer, out, args):
    tracer.count("images_used", len(out.source))
    roots = {}
    for task in out.tasks:
        a = task.inputs
        while a.base is not None and hasattr(a.base, "nbytes"):
            a = a.base
        roots[id(a)] = a.nbytes
    tracer.peak("suite_input_bytes", float(sum(roots.values())))


def _saved(tracer, out, args):
    from dmtrl.checkpoint import manifest_path

    path = args[0]
    tracer.count("checkpoint_bytes",
                 os.path.getsize(path) + os.path.getsize(manifest_path(path)))


def _cell(tracer, out, args):
    tracer.count("cells", 1)


# span name and counter hook per traced function, by module; a name missing
# from the module is skipped, so the table outlives renames in the program
TRACED = {
    "layers": {
        "conv2d_forward": ("layers.conv2d_forward", _conv_patches),
        "conv2d_backward": ("layers.conv2d_backward", None),
        "maxpool2_forward": ("layers.maxpool2_forward", None),
        "maxpool2_backward": ("layers.maxpool2_backward", None),
        "fc_forward": ("layers.fc", None),
        "fc_backward": ("layers.fc", None),
        "relu_forward": ("layers.activation", None),
        "relu_backward": ("layers.activation", None),
        "tanh_forward": ("layers.activation", None),
        "tanh_backward": ("layers.activation", None),
    },
    "linalg": {"thin_svd": ("linalg.thin_svd", None)},
    "training": {
        "task_loss": ("training.task_loss", None),
        "evaluate_suite": ("training.evaluate", None),
        "evaluate_tasks": ("training.evaluate", None),
        "multiclass_ranking_error": ("training.evaluate", None),
    },
    "data": {
        "synth_digits": ("data.synth_digits", _generated),
        "synth_heterogeneous": ("data.synth_heterogeneous", _heterogeneous),
        "make_suite": ("data.make_suite", _suite),
    },
    "checkpoint": {
        "save_network": ("checkpoint.save", _saved),
        "load_network": ("checkpoint.load", None),
    },
    "cli": {
        "run_cell": ("cli.run_cell", _cell),
        "build_train_tasks": ("cli.build_train_tasks", None),
        "build_eval_payload": ("cli.build_eval_payload", None),
    },
}
FOLDED = {"factorization", "linalg", "data", "checkpoint", "analysis"}


def _factorization_spans(module) -> dict:
    """Every public compose_* and *_decompose, so a new scheme is traced too."""
    out = {}
    for name in module.__all__:
        if name == "compose_backward":
            out[name] = ("factorization.compose_backward", None)
        elif name.startswith("compose"):
            out[name] = ("factorization.compose", _composed)
        elif name.endswith("decompose"):
            out[name] = ("factorization.decompose", None)
    return out


def install(tracer: Tracer):
    """Wrap the traced dmtrl functions and methods for the life of the process.

    Each function is replaced in every ``dmtrl`` namespace that holds it, so
    calls through ``from .x import f`` names are traced too."""
    mods = {n: importlib.import_module(f"dmtrl.{n}") for n in (
        "layers", "factorization", "linalg", "network", "training", "data",
        "checkpoint", "analysis", "cli")}
    table = dict(TRACED)
    table["factorization"] = _factorization_spans(mods["factorization"])
    table["analysis"] = {n: ("analysis.measure", None) for n in mods["analysis"].__all__
                         if inspect.isfunction(getattr(mods["analysis"], n))}

    replacement = {}
    for module, entries in table.items():
        for attr, (name, after) in entries.items():
            fn = getattr(mods[module], attr, None)
            if fn is not None:
                replacement[id(fn)] = _span(tracer, fn, name, module, module in FOLDED, after)

    training = mods["training"]
    orig_make_optimizer = training.make_optimizer

    def make_optimizer(cfg):
        opt = orig_make_optimizer(cfg)
        opt.step = _span(tracer, opt.step, "training.optimizer_step", "training", False)
        return opt

    replacement[id(orig_make_optimizer)] = make_optimizer
    replacement[id(training.train)] = _training_scope(tracer, training.train)

    for mod_name, ns in sorted(sys.modules.items()):
        if mod_name == "dmtrl" or mod_name.startswith("dmtrl."):
            for attr, value in list(vars(ns).items()):
                new = replacement.get(id(value))
                if new is not None:
                    setattr(ns, attr, new)
    net_cls = mods["network"].MultiTaskNetwork
    for meth in ("forward", "backward", "gradients"):
        setattr(net_cls, meth,
                _span(tracer, getattr(net_cls, meth), f"network.{meth}", "network", False))


def per_layer_metrics(rounds: Totals, n_rounds: int, steps: float,
                      setup: Totals | None = None, n_setups: int = 0) -> dict:
    """The per-layer metric table, as {name: (value, unit)}.

    Per-step figures come from the training loop inside the timed rounds,
    divided by their ``steps``.  Per-pass figures describe one workload
    pass, one set-up plus one round: set-up spans divided by ``n_setups``
    plus round spans divided by ``n_rounds``.
    """
    parts = [(rounds, n_rounds)] + ([(setup, n_setups)] if setup is not None else [])

    def per_pass(get):
        return sum(get(t) / n for t, n in parts)

    def per_step_ms(name, self_time=False):
        get = rounds.self_seconds if self_time else rounds.seconds
        return 1e3 * get(name, train_only=True) / steps

    def pass_ms(name):
        return 1e3 * per_pass(lambda t: t.seconds(name))

    def pass_count(name):
        return per_pass(lambda t: t.counter(name))

    def peak_mib(name):
        return max(t.peaks[name] for t, _ in parts) / MIB

    generated = pass_count("images_generated")
    used = pass_count("images_used")
    table = {
        "layers.conv2d_forward_ms": (per_step_ms("layers.conv2d_forward"), "ms/step"),
        "layers.conv2d_backward_ms": (per_step_ms("layers.conv2d_backward"), "ms/step"),
        "layers.maxpool2_forward_ms": (per_step_ms("layers.maxpool2_forward"), "ms/step"),
        "layers.maxpool2_backward_ms": (per_step_ms("layers.maxpool2_backward"), "ms/step"),
        "layers.fc_ms": (per_step_ms("layers.fc"), "ms/step"),
        "layers.activation_ms": (per_step_ms("layers.activation"), "ms/step"),
        "layers.conv_patch_mb": (peak_mib("conv_patch_bytes"), "MiB"),
        "factorization.compose_ms": (per_step_ms("factorization.compose"), "ms/step"),
        "factorization.compose_backward_ms": (
            per_step_ms("factorization.compose_backward"), "ms/step"),
        "factorization.composed_elements": (
            rounds.counter("composed_elements", train_only=True) / steps, "count/step"),
        "factorization.decompose_ms": (pass_ms("factorization.decompose"), "ms/pass"),
        "linalg.thin_svd_ms": (pass_ms("linalg.thin_svd"), "ms/pass"),
        "linalg.thin_svd_calls": (
            per_pass(lambda t: t.ncalls("linalg.thin_svd")), "count/pass"),
        "network.forward_self_ms": (per_step_ms("network.forward", True), "ms/step"),
        "network.backward_self_ms": (per_step_ms("network.backward", True), "ms/step"),
        "network.gradients_ms": (per_step_ms("network.gradients", True), "ms/step"),
        "training.optimizer_step_ms": (per_step_ms("training.optimizer_step"), "ms/step"),
        "training.task_loss_ms": (per_step_ms("training.task_loss"), "ms/step"),
        "training.evaluate_ms": (pass_ms("training.evaluate"), "ms/pass"),
        "training.steps": (steps / n_rounds, "count/round"),
        "data.synth_digits_ms": (pass_ms("data.synth_digits"), "ms/pass"),
        "data.make_suite_ms": (pass_ms("data.make_suite"), "ms/pass"),
        "data.images_generated": (generated, "count/pass"),
        "data.images_used": (used, "count/pass"),
        "data.useful_ratio": (used / generated if generated else 0.0, "ratio"),
        "data.suite_input_mb": (peak_mib("suite_input_bytes"), "MiB"),
        "checkpoint.save_ms": (pass_ms("checkpoint.save"), "ms/pass"),
        "checkpoint.load_ms": (pass_ms("checkpoint.load"), "ms/pass"),
        "checkpoint.bytes": (pass_count("checkpoint_bytes"), "bytes/pass"),
        "analysis.measure_ms": (pass_ms("analysis.measure"), "ms/pass"),
        "cli.run_cell_ms": (pass_ms("cli.run_cell"), "ms/pass"),
        "cli.build_train_tasks_ms": (pass_ms("cli.build_train_tasks"), "ms/pass"),
        "cli.build_eval_payload_ms": (pass_ms("cli.build_eval_payload"), "ms/pass"),
        "cli.cells": (pass_count("cells"), "count/pass"),
    }
    return table
