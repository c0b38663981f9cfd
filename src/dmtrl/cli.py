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

One command computes each input its cells share once and hands it to every
cell that needs it: the train pool (the synthetic digit pool or the IDX
train set) and the evaluation payload once per command, and per (fraction,
repeat) the sampled train tasks and the ``pretrain_stl`` network that every
STL-initialised cell with a softly shared layer factorises.  A sweep runs
the cells of one (fraction, repeat) together and drops what they share after
the last of them, so it holds one such group's inputs at a time per worker.

A cell's ``wall_time_s`` is its own elapsed time, from pretraining or
initialisation to the end of training.  The cell that runs a shared STL
pretraining counts it, and its log says ``"stl_pretrain": "trained"``; a
cell that reuses that network counts only the wait for it (none with one
thread), and its log says ``"stl_pretrain": "reused"``.  A cell without
pretraining has no ``stl_pretrain`` entry.  So within a sweep, a soft
preset's shorter ``wall_time_s`` may only mean that another preset paid for
the pretraining, not that the method trains faster.

The environment variable DMTRL_THREADS bounds the worker threads a sweep
uses (default 1).  A cell that needs a shared input another thread is still
computing waits for it rather than computing it again.
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
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .analysis import extract_mixing, normalize_mixing, sharing_strength, task_affinity
from .checkpoint import load_network, save_network, write_atomic
from .config import ConfigError, ExperimentConfig, load_config, parse_data
from .data import (
    OneVsAllSuite,
    as_multiclass,
    load_idx,
    make_suite,
    sample_fraction,
    synth_digits,
    synth_heterogeneous,
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

# pool seeds for synthetic corpora; repeats resample *subsets*, not the pool
_TRAIN_POOL_SEED = 1009
_TEST_POOL_SEED = 2003


def _float17(x) -> str:
    return f"{float(x):.17g}"


def _fit_heads(tasks, head_dims):
    """Align task label structure with the configured head widths."""
    if head_dims is None:
        return tasks
    out = []
    for t, ds in enumerate(tasks):
        width = head_dims[t]
        if ds.binary and width == 2:
            ds = as_multiclass(ds)
        elif ds.binary and width != 1:
            raise ConfigError(f"task {t}: binary labels need head width 1 or 2, got {width}")
        elif not ds.binary and ds.n_classes != width:
            raise ConfigError(
                f"task {t}: {ds.n_classes} classes but head width {width}"
            )
        out.append(ds)
    return out


def _digit_pool(data, split: str):
    """The synthetic digit pool of one split ("train" or "test")."""
    cs = int(data.get("class_seed", 11))
    if split == "train":
        seed, n = _TRAIN_POOL_SEED + cs, int(data.get("n_train", 60000))
    else:
        seed, n = _TEST_POOL_SEED + cs, int(data.get("n_test", 2000))
    return synth_digits(seed, n, noise=float(data.get("noise", 0.35)),
                        jitter=int(data.get("jitter", 3)), class_seed=cs)


def _idx_corpus(data: dict, split: str, input_shape):
    """The IDX corpus of ``split``; with ``input_shape`` given, its images
    must be that (H, W, 1) shape, so a corpus the network cannot take fails
    here rather than inside a layer."""
    pool = load_idx(data[f"{split}_images"], data[f"{split}_labels"])
    shape = pool.images.shape[1:] + (1,)
    if input_shape is not None and shape != tuple(input_shape):
        raise ConfigError(f"the {split} IDX images have shape {shape}, "
                          f"the config's input_shape is {tuple(input_shape)}")
    return pool


def train_pool(data: dict, input_shape=None):
    """The corpus every cell of a command samples its train tasks from, or
    None for the heterogeneous source, which generates each run's data from
    the run seed.  An IDX corpus is checked against ``input_shape``."""
    source = data["source"]
    if source == "idx":
        return _idx_corpus(data, "train", input_shape)
    if source == "synthetic_digits":
        return _digit_pool(data, "train")
    return None


def build_train_tasks(data: dict, fraction: float, seed: int, head_dims=None, pool=None):
    """Training task datasets for one run cell; ``pool`` is
    :func:`train_pool`'s corpus when the caller holds it already."""
    if data["source"] != "synthetic_heterogeneous":
        pool = train_pool(data) if pool is None else pool
        return make_suite(sample_fraction(pool, fraction, seed)).tasks
    binary, multi = synth_heterogeneous(
        _TRAIN_POOL_SEED + seed,
        int(data.get("n_train_per_task", 600)),
        noise=float(data.get("noise", 0.08)),
        class_seed=int(data.get("class_seed", 7)),
    )
    tasks = [binary, multi]
    if fraction < 1.0:
        tasks = [sample_fraction(t, fraction, seed) for t in tasks]
    return _fit_heads(tasks, head_dims)


def build_eval_payload(data: dict, head_dims=None, input_shape=None):
    """Evaluation datasets: a one-vs-all suite or a plain task list.  An IDX
    corpus is checked against ``input_shape``."""
    source = data["source"]
    if source == "idx":
        return make_suite(_idx_corpus(data, "test", input_shape), split="test")
    if source == "synthetic_digits":
        return make_suite(_digit_pool(data, "test"), split="test")
    binary, multi = synth_heterogeneous(
        _TEST_POOL_SEED,
        int(data.get("n_test_per_task", 512)),
        noise=float(data.get("noise", 0.08)),
        class_seed=int(data.get("class_seed", 7)),
    )
    return _fit_heads([binary, multi], head_dims)


class _Shared:
    """The inputs several cells of one command need, each computed once.

    Keys: "pool" and "payload" (once per command); ("tasks", fraction,
    repeat) for the sampled train tasks; ("stl", fraction, repeat) for the
    pretrained STL network.  The first ``get`` of a key runs ``make``; a
    later one, in any thread, waits for that result.  A key counted in
    ``uses`` is dropped after its last use, so a command keeps only what its
    unfinished cells still need."""

    def __init__(self, uses=None):
        self._lock = threading.Lock()
        self._futures = {}
        self._uses = Counter(uses)

    def get(self, key, make):
        """``make()``'s value for ``key``, and whether this call computed it."""
        with self._lock:
            future = self._futures.get(key)
            made = future is None
            if made:
                future = self._futures[key] = Future()
            if key in self._uses:
                self._uses[key] -= 1
                if not self._uses[key]:
                    del self._futures[key], self._uses[key]
        if made:
            try:
                future.set_result(make())
            except BaseException as e:  # every waiting cell re-raises it
                future.set_exception(e)
        return future.result(), made


def _has_soft(spec) -> bool:
    return any(ls.mode is not None and ls.mode.soft for ls in spec.layers)


def _pretrains(cfg: ExperimentConfig, spec) -> bool:
    return _has_soft(spec) and isinstance(cfg.init, StlInit)


def _shared_for(cfg: ExperimentConfig, cells) -> _Shared:
    """Shared inputs for the (sharing, fraction, repeat) ``cells`` of one
    command, each per-run entry dropped after the last cell that uses it."""
    uses = Counter()
    for sharing, fraction, rep in cells:
        uses["tasks", fraction, rep] += 1
        if _pretrains(cfg, cfg.network_spec(sharing)):
            uses["stl", fraction, rep] += 1
    return _Shared(uses)


def run_cell(cfg: ExperimentConfig, sharing, label: str, fraction: float,
             repeat: int, out_dir: str, shared: _Shared | None = None) -> dict:
    """Train one (sharing, fraction, repeat) cell and write its artifacts.

    ``shared`` holds the inputs the command's cells share (see the module
    docstring); without it the cell computes its own."""
    shared = _Shared() if shared is None else shared
    run_seed = cfg.train.seed + repeat
    spec = cfg.network_spec(sharing)
    pool, _ = shared.get("pool", lambda: train_pool(cfg.data, cfg.input_shape))
    tasks, _ = shared.get(("tasks", fraction, repeat), lambda: build_train_tasks(
        cfg.data, fraction, run_seed, cfg.head_dims, pool))
    train_cfg = replace(cfg.train, seed=run_seed)
    started = time.perf_counter()
    pretrain = None
    if _pretrains(cfg, spec):
        # pretrain_stl's network depends on the architecture, the tasks, the
        # train settings at the run seed and pretrain_epochs; within one
        # command only the tasks (fraction, repeat) and the run seed (repeat)
        # vary, and _all_independent erases the preset's modes
        stl, made = shared.get(("stl", fraction, repeat), lambda: pretrain_stl(
            spec, tasks, replace(train_cfg, epochs=cfg.init.pretrain_epochs)))
        pretrain = "trained" if made else "reused"
        net = init_from_stl(stl, spec, cfg.init.epsilon)
    else:  # parse_config lets only a random_decompose init reach a soft layer here
        net = build_network(spec, cfg.init if _has_soft(spec) else PlainRandom(), run_seed)
    log = train(net, tasks, train_cfg)
    wall = time.perf_counter() - started

    os.makedirs(out_dir, exist_ok=True)
    stem = f"{label}_f{fraction:g}_r{repeat}"
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
    with open(path, "r", encoding="utf-8") as f:
        obj = json.load(f)
    if isinstance(obj, dict) and "source" in obj:
        return parse_data(obj)
    if isinstance(obj, dict) and "data" in obj:
        return parse_data(obj["data"])
    raise ConfigError(f"{path} holds neither a data object nor a config with one")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    label = cfg.sharing if isinstance(cfg.sharing, str) else "custom"
    grid = [(cfg.sharing, f, r) for f in cfg.fractions for r in range(cfg.repeats)]
    shared = _shared_for(cfg, grid)
    cells = [run_cell(cfg, sharing, label, f, r, args.out, shared) for sharing, f, r in grid]
    json.dump({"runs": cells}, sys.stdout, indent=2)
    print()
    return 0


def cmd_eval(args) -> int:
    net, manifest = load_network(args.checkpoint)
    data = _load_data_spec(args.data)
    head_dims = manifest["spec"].get("head_dims")
    payload = build_eval_payload(data, head_dims, net.spec.input_shape)
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
    grid = [(p, f, r) for p in presets for f in cfg.fractions
            for r in range(cfg.repeats)]
    workers = max(1, int(os.environ.get("DMTRL_THREADS", "1")))
    shared = _shared_for(cfg, grid)
    # cell i belongs to (fraction, repeat) group i % runs: run group by group,
    # so each group's shared inputs are dropped early; results keep grid order
    runs = cfg.repeats * len(cfg.fractions)
    order = sorted(range(len(grid)), key=lambda i: (i % runs, i))

    def run_one(i):
        preset, fraction, rep = grid[i]
        label = preset if isinstance(preset, str) else "custom"
        info = run_cell(cfg, preset, label, fraction, rep, args.out, shared)
        net, manifest = load_network(info["checkpoint"])
        payload, _ = shared.get("payload", lambda: build_eval_payload(
            cfg.data, cfg.head_dims, cfg.input_shape))
        rows = eval_rows(net, manifest, payload)
        rho = None
        if any(layer.mode.soft for layer in net.param_layers.values()):
            rho = measure_report(net, manifest)
        return info, rows, rho

    if workers == 1:
        done = [run_one(i) for i in order]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_one, order))
    results = [None] * len(grid)
    for i, result in zip(order, done):
        results[i] = result

    all_rows = [row for _, rows, _ in results for row in rows]
    write_csv(os.path.join(args.out, "results.csv"), all_rows)
    summary = {
        "cells": [
            {**info, "sharing_report": rho} for info, _, rho in results
        ]
    }
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
