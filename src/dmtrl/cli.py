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

The environment variable DMTRL_THREADS bounds the worker threads a sweep
uses (default 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
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
    RandomDecompose,
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


def build_train_tasks(data: dict, fraction: float, seed: int, head_dims=None):
    """Training task datasets for one run cell."""
    source = data["source"]
    if source == "idx":
        pool = load_idx(data["train_images"], data["train_labels"])
        sampled = sample_fraction(pool, fraction, seed)
        return make_suite(sampled).tasks
    if source == "synthetic_digits":
        sampled = sample_fraction(_digit_pool(data, "train"), fraction, seed)
        return make_suite(sampled).tasks
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


def build_eval_payload(data: dict, head_dims=None):
    """Evaluation datasets: a one-vs-all suite or a plain task list."""
    source = data["source"]
    if source == "idx":
        pool = load_idx(data["test_images"], data["test_labels"])
        return make_suite(pool, split="test")
    if source == "synthetic_digits":
        return make_suite(_digit_pool(data, "test"), split="test")
    binary, multi = synth_heterogeneous(
        _TEST_POOL_SEED,
        int(data.get("n_test_per_task", 512)),
        noise=float(data.get("noise", 0.08)),
        class_seed=int(data.get("class_seed", 7)),
    )
    return _fit_heads([binary, multi], head_dims)


def run_cell(cfg: ExperimentConfig, sharing, label: str, fraction: float,
             repeat: int, out_dir: str) -> dict:
    """Train one (sharing, fraction, repeat) cell and write its artifacts."""
    run_seed = cfg.train.seed + repeat
    spec = cfg.network_spec(sharing)
    tasks = build_train_tasks(cfg.data, fraction, run_seed, cfg.head_dims)
    train_cfg = replace(cfg.train, seed=run_seed)
    started = time.perf_counter()
    has_soft = any(ls.mode is not None and ls.mode.soft for ls in spec.layers)
    if has_soft and isinstance(cfg.init, StlInit):
        stl_cfg = replace(train_cfg, epochs=cfg.init.pretrain_epochs)
        stl = pretrain_stl(spec, tasks, stl_cfg)
        net = init_from_stl(stl, spec, cfg.init.epsilon)
    elif has_soft:
        if not isinstance(cfg.init, RandomDecompose):
            raise ConfigError("softly shared layers need an stl or random_decompose init")
        net = build_network(spec, cfg.init, run_seed)
    else:
        net = build_network(spec, PlainRandom(), run_seed)
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
    write_atomic(os.path.join(out_dir, f"{stem}.log.json"), json.dumps({
        "records": [[r.epoch, r.task, r.loss, r.error] for r in log],
        "wall_time_s": wall,
    }) + "\n")
    return {"checkpoint": ckpt, "wall_time_s": wall, "method": label,
            "fraction": fraction, "repeat": repeat}


def eval_rows(net, manifest, payload):
    """CSV rows (method, fraction, repeat, task, metric, value)."""
    method = manifest.get("method", "custom")
    fraction = manifest.get("fraction", 1.0)
    repeat = manifest.get("repeat", 0)
    rows = []
    if isinstance(payload, OneVsAllSuite):
        scores = evaluate_suite(net, payload)
        for t, err in enumerate(scores["per_task"]):
            rows.append((method, fraction, repeat, str(t), "binary_error", err))
        rows.append((method, fraction, repeat, "all", "mean_binary_error",
                     scores["mean_binary"]))
        rows.append((method, fraction, repeat, "all", "multiclass_error",
                     scores["multiclass"]))
    else:
        errors = evaluate_tasks(net, payload)
        for t, err in enumerate(errors):
            metric = "binary_error" if payload[t].binary else "class_error"
            rows.append((method, fraction, repeat, str(t), metric, err))
        rows.append((method, fraction, repeat, "all", "mean_error",
                     float(np.mean(errors))))
    return rows


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
        mix = extract_mixing(net, i)
        rho = sharing_strength(normalize_mixing(mix.s))
        ranked = task_affinity(mix.s)
        rows.append({
            "layer": layer.name,
            "mode": layer.mode.value,
            "k": int(mix.s.shape[0]),
            "tasks": int(mix.s.shape[1]),
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
    cells = []
    for fraction in cfg.fractions:
        for rep in range(cfg.repeats):
            label = cfg.sharing if isinstance(cfg.sharing, str) else "custom"
            cells.append(run_cell(cfg, cfg.sharing, label, fraction, rep, args.out))
    json.dump({"runs": cells}, sys.stdout, indent=2)
    print()
    return 0


def cmd_eval(args) -> int:
    net, manifest = load_network(args.checkpoint)
    data = _load_data_spec(args.data)
    head_dims = manifest["spec"].get("head_dims")
    payload = build_eval_payload(data, head_dims)
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
    cells = [(p, f, r) for p in presets for f in cfg.fractions
             for r in range(cfg.repeats)]
    workers = max(1, int(os.environ.get("DMTRL_THREADS", "1")))

    def run_one(cell):
        preset, fraction, rep = cell
        label = preset if isinstance(preset, str) else "custom"
        info = run_cell(cfg, preset, label, fraction, rep, args.out)
        net, manifest = load_network(info["checkpoint"])
        payload = build_eval_payload(cfg.data, cfg.head_dims)
        rows = eval_rows(net, manifest, payload)
        rho = None
        if any(layer.mode.soft for layer in net.param_layers.values()):
            rho = measure_report(net, manifest)
        return info, rows, rho

    if workers == 1:
        results = [run_one(c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, cells))

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
