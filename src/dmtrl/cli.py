"""Experiment runner: ``dmtrl train | eval | measure | sweep``.

``train`` runs the configured pipeline (pretraining, factorised
initialisation and multi-task training as the init policy dictates) for
every (fraction, repeat) cell and writes a checkpoint, a JSON manifest and a
JSON training log per cell.  ``eval`` scores a checkpoint against a dataset
and emits CSV rows; ``measure`` reports the per-layer sharing strength of a
checkpoint; ``sweep`` runs a presets x fractions x repeats grid and merges
everything.  Repeat r derives its seed as ``train.seed + r``; given the same
config, outputs are bit-identical across runs (wall times live only in the
JSON logs, never in the CSV).

The ``data`` object's fields and defaults are its source's entry of
``data.SOURCES``.  Every corpus a command builds must fit the network
(:func:`_fit`) before any layer runs.

``train`` and ``sweep`` run their grid through one runner,
:func:`run_grid`; ``train``'s one preset is the config's ``sharing``.  The
runner builds the train pool (a source's train corpus, unless the source
draws one per run) once, and per (fraction, repeat) group two once-values:
the sampled train tasks and the ``pretrain_stl`` network that every
STL-initialised cell with a softly shared layer factorises.  The first cell
that asks for a once-value computes it, and a later one, in any thread,
waits for it.  Only the group's cells hold its once-values, and the cells
run group by group, so a command holds one group's inputs at a time per
worker.  Results keep presets x fractions x repeats order.  A sweep builds
its evaluation payload once, before the first cell.

A cell's ``wall_time_s`` is its own elapsed time, from pretraining or
initialisation to the end of training.  The cell that computes its group's
STL pretraining counts it, and its log says ``"stl_pretrain": "trained"``; a
cell that reuses that network counts only the wait for it (none with one
thread), and its log says ``"stl_pretrain": "reused"``.  A cell without
pretraining has no ``stl_pretrain`` entry.  So within a sweep, a soft
preset's shorter ``wall_time_s`` may only mean that another preset paid for
the pretraining, not that the method trains faster.

The environment variable DMTRL_THREADS sets the worker threads the runner
uses, for ``train`` and ``sweep`` alike (default 1); they share one queue of
cells in group-major order.  A value that is not an integer >= 1 raises
ConfigError before any cell trains.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .analysis import extract_mixing, normalize_mixing, sharing_strength, task_affinity
from .checkpoint import load_network, save_network, write_atomic
from .config import (ConfigError, ExperimentConfig, cell_label, cell_stem, load_config,
                     parse_data, read_json)
from .data import (
    SOURCES,
    LabeledImages,
    OneVsAllSuite,
    as_multiclass,
    build_corpus,
    make_suite,
    sample_fraction,
)
from .network import build_network
from .training import (
    PlainRandom,
    StlInit,
    evaluate_suite,
    evaluate_tasks,
    init_from_stl,
    pretrain_stl,
    train,
)


def _float17(x) -> str:
    return f"{float(x):.17g}"


def _fit(corpus, split: str, spec):
    """``corpus`` checked against the network ``spec`` (None checks nothing):
    the spec's input shape, one dataset per task (a pool one per class), and
    each task's head width (``spec.head_width``) suiting its labels: 1 for a
    one-vs-all task, the class count for a multi-class task, 1 or 2 for a
    binary task (a 2-wide head reads it as two classes).  A misfit raises
    ConfigError naming both."""
    if spec is None:
        return corpus
    pool = isinstance(corpus, LabeledImages)
    shape = corpus.images.shape[1:] + (1,) if pool else corpus[0].inputs.shape[1:]
    if shape != tuple(spec.input_shape):
        raise ConfigError(f"the {split} images have shape {shape}, "
                          f"the network's input_shape is {tuple(spec.input_shape)}")
    count = corpus.n_classes if pool else len(corpus)
    if count != spec.tasks:
        raise ConfigError(f"the {split} data holds {count} tasks, the network has {spec.tasks}")
    widths = [spec.head_width(t) for t in range(spec.tasks)]
    for t, width in enumerate(widths):
        classes = None if pool else corpus[t].n_classes
        fits = (1,) if pool else (1, 2) if classes is None else (classes,)
        if width not in fits:
            raise ConfigError(f"task {t}: the head has width {width}, its labels "
                              f"need {' or '.join(map(str, fits))}")
    return corpus if pool else [as_multiclass(ds) if width == 2 else ds
                                for ds, width in zip(corpus, widths)]


def train_pool(data: dict, spec=None, seed=None):
    """The train corpus, checked against ``spec`` by :func:`_fit`: the one
    every cell of a command samples its tasks from, or None without the run
    ``seed`` for a source that draws its train corpus per run."""
    if seed is None and SOURCES[data["source"]].per_run:
        return None
    return _fit(build_corpus(data, "train", seed), "train", spec)


def build_train_tasks(data: dict, fraction: float, seed: int, spec=None, pool=None):
    """Training task datasets for one run cell; ``pool`` is
    :func:`train_pool`'s corpus when the caller holds it already."""
    corpus = train_pool(data, spec, seed) if pool is None else pool
    if isinstance(corpus, LabeledImages):
        return make_suite(sample_fraction(corpus, fraction, seed)).tasks
    return [sample_fraction(ds, fraction, seed) for ds in corpus]


def build_eval_payload(data: dict, spec=None):
    """Evaluation datasets checked against ``spec``: a pool's one-vs-all
    suite, or a plain task list."""
    corpus = _fit(build_corpus(data, "test"), "test", spec)
    return make_suite(corpus, split="test") if isinstance(corpus, LabeledImages) else corpus


class _Once:
    """``make()``'s value, computed by the first :meth:`get` while a later
    caller, in any thread, waits on the lock for it.  The value lives as long
    as this object; a ``make`` that raises runs again for the next caller."""

    def __init__(self, make):
        self._make, self._lock = make, threading.Lock()

    def get(self):
        """The value, and whether this call computed it."""
        with self._lock:
            made = self._make is not None
            if made:
                self._value, self._make = self._make(), None
        return self._value, made


def run_grid(cfg: ExperimentConfig, presets, out_dir: str, step=lambda info: info) -> list:
    """``step`` of each :func:`run_cell` record of the presets x fractions x
    repeats grid, in that order (see the module docstring)."""
    value = os.environ.get("DMTRL_THREADS", "1")
    threads = int(value) if value.isdecimal() else 0
    if threads < 1:
        raise ConfigError(f"DMTRL_THREADS must be an integer >= 1, got {value!r}")
    spec = cfg.network_spec(presets[0])
    pool = train_pool(cfg.data, spec)

    def group(fraction, repeat):
        seed = cfg.train.seed + repeat
        tasks = _Once(lambda: build_train_tasks(cfg.data, fraction, seed, spec, pool))
        # pretrain_stl's network depends on the architecture, the tasks, the
        # train settings at the run seed and pretrain_epochs; within one
        # command only the tasks (fraction, repeat) and the run seed (repeat)
        # vary, and _all_independent erases the preset's modes
        stl = _Once(lambda: pretrain_stl(spec, tasks.get()[0], replace(
            cfg.train, seed=seed, epochs=cfg.init.pretrain_epochs)))
        return tasks, stl

    def cells():  # group-major; a group's once-values go with its last cell
        for fraction in cfg.fractions:
            for repeat in range(cfg.repeats):
                once = group(fraction, repeat)
                for preset in presets:
                    yield preset, cell_label(preset), fraction, repeat, out_dir, *once

    def one(cell):
        return step(run_cell(cfg, *cell))

    if threads == 1:
        done = list(map(one, cells()))
    else:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            done = list(executor.map(one, cells()))
    n = len(presets)
    return [cell for p in range(n) for cell in done[p::n]]


def run_cell(cfg: ExperimentConfig, sharing, label: str, fraction: float,
             repeat: int, out_dir: str, tasks: _Once, stl: _Once) -> dict:
    """Train one (sharing, fraction, repeat) cell and write its artifacts.

    ``tasks`` and ``stl`` are its group's once-values (see the module
    docstring): the sampled train tasks and the STL pretraining."""
    run_seed = cfg.train.seed + repeat
    spec = cfg.network_spec(sharing)
    tasks, _ = tasks.get()
    train_cfg = replace(cfg.train, seed=run_seed)
    started = time.perf_counter()
    pretrain = None
    if spec.has_soft() and isinstance(cfg.init, StlInit):
        stl, made = stl.get()
        pretrain = "trained" if made else "reused"
        net = init_from_stl(stl, spec, cfg.init.epsilon)
    else:  # parse_config lets only a random_decompose init reach a soft layer here
        net = build_network(spec, cfg.init if spec.has_soft() else PlainRandom(), run_seed)
    log = train(net, tasks, train_cfg)
    wall = time.perf_counter() - started

    os.makedirs(out_dir, exist_ok=True)
    stem = cell_stem(label, fraction, repeat)
    ckpt = os.path.join(out_dir, f"{stem}.ckpt")
    save_network(ckpt, net, extra={
        "method": label,
        "fraction": fraction,
        "repeat": repeat,
        "seed": run_seed,
        "data": cfg.data,
        "init": type(cfg.init).__name__,
        "epsilon": getattr(cfg.init, "epsilon", None),
    })
    timing = {"wall_time_s": wall}
    if pretrain is not None:
        timing["stl_pretrain"] = pretrain
    write_atomic(os.path.join(out_dir, f"{stem}.log.json"), json.dumps({
        "records": [[r.epoch, r.task, r.loss, r.error] for r in log], **timing,
    }) + "\n")
    return {"checkpoint": ckpt, **timing, "method": label,
            "fraction": fraction, "repeat": repeat}


def eval_rows(net, manifest, payload):
    """CSV rows (method, fraction, repeat, task, metric, value): one error
    row per task, then the payload kind's aggregate rows."""
    cell = (manifest.get("method", "custom"), manifest.get("fraction", 1.0),
            manifest.get("repeat", 0))
    if isinstance(payload, OneVsAllSuite):
        tasks, scores = payload.tasks, evaluate_suite(net, payload)
        errors = scores["per_task"]
        totals = [("mean_binary_error", scores["mean_binary"]),
                  ("multiclass_error", scores["multiclass"])]
    else:
        tasks, errors = payload, evaluate_tasks(net, payload)
        totals = [("mean_error", float(np.mean(errors)))]
    rows = [(*cell, str(t), "binary_error" if ds.binary else "class_error", err)
            for t, (ds, err) in enumerate(zip(tasks, errors))]
    return rows + [(*cell, "all", metric, value) for metric, value in totals]


def write_csv(path, rows):
    text = io.StringIO()
    w = csv.writer(text)
    w.writerow(["method", "fraction", "repeat", "task", "metric", "value"])
    for method, fraction, repeat, task, metric, value in rows:
        w.writerow([method, _float17(fraction), repeat, task, metric, _float17(value)])
    write_atomic(path, text.getvalue())


def measure_report(net, manifest) -> list:
    rows = []
    for i in sorted(net.param_layers):
        layer = net.param_layers[i]
        if not layer.mode.soft:
            continue
        s = extract_mixing(net, i)
        rho = sharing_strength(normalize_mixing(s))
        ranked = task_affinity(s)
        rows.append({
            "layer": layer.name,
            "mode": layer.mode.value,
            "k": int(s.shape[0]),
            "tasks": int(s.shape[1]),
            "rho": rho,
            "top_pair": {"tasks": list(ranked[0][0]), "cosine": ranked[0][1]},
            "bottom_pair": {"tasks": list(ranked[-1][0]), "cosine": ranked[-1][1]},
        })
    if not rows:
        raise ConfigError("checkpoint has no softly shared layers to measure")
    return rows


def _load_data_spec(path) -> dict:
    obj = read_json(path)
    if isinstance(obj, dict) and "source" in obj:
        return parse_data(obj)
    if isinstance(obj, dict) and "data" in obj:
        return parse_data(obj["data"])
    raise ConfigError(f"{path} holds neither a data object nor a config with one")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    json.dump({"runs": run_grid(cfg, [cfg.sharing], args.out)}, sys.stdout, indent=2)
    print()
    return 0


def cmd_eval(args) -> int:
    net, manifest = load_network(args.checkpoint)
    payload = build_eval_payload(_load_data_spec(args.data), net.spec)
    write_csv(args.out, eval_rows(net, manifest, payload))
    return 0


def cmd_measure(args) -> int:
    net, manifest = load_network(args.checkpoint)
    report = {"checkpoint": args.checkpoint,
              "method": manifest.get("method", "custom"),
              "layers": measure_report(net, manifest)}
    write_atomic(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    presets = cfg.presets if cfg.presets is not None else [cfg.sharing]
    # every preset has the same input shape, task count and head widths, so
    # the test data fits them all or none, and no cell trains when it fits none
    payload = build_eval_payload(cfg.data, cfg.network_spec(presets[0]))

    def step(info):
        net, manifest = load_network(info["checkpoint"])
        rows = eval_rows(net, manifest, payload)
        return info, rows, measure_report(net, manifest) if net.spec.has_soft() else None

    results = run_grid(cfg, presets, args.out, step)
    write_csv(os.path.join(args.out, "results.csv"),
              [row for _, rows, _ in results for row in rows])
    summary = {"cells": [{**info, "sharing_report": rho} for info, _, rho in results]}
    write_atomic(os.path.join(args.out, "sweep.json"),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dmtrl",
                                description="factorised multi-task network experiments")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train per the config and write checkpoints")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint, emit CSV")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True,
                   help="JSON file holding a data object (or a config containing one)")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    m = sub.add_parser("measure", help="per-layer sharing strength of a checkpoint")
    m.add_argument("--checkpoint", required=True)
    m.add_argument("--out", required=True)
    m.set_defaults(fn=cmd_measure)

    s = sub.add_parser("sweep", help="presets x fractions x repeats grid")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not hides
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
