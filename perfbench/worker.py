"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR

Prints one JSON object as its last line of output: ``correct``,
``attempted``, ``failed``, ``failures`` (check messages), ``metrics``
({name: [value, unit]} end to end) and, when traced, ``per_layer``.
``run.py`` sets the BLAS thread count and puts ``src/`` on the path before
this process starts.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from time import perf_counter

import numpy as np

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

# demo-04 architecture: conv5-8 / pool / conv4-16 / pool / fc256-64 / fc64-1
LAYERS = ["conv", "relu", "maxpool", "conv", "relu", "maxpool", "fc", "relu", "fc"]
TASKS = 10

# API workloads.  The training set is a small fraction of a larger pool, as
# in the paper's low-data settings; the sizes keep one round (training,
# one evaluation pass, one checkpoint round trip) at a few seconds.  The
# benchmark seed picks the data; network init and batch order use
# MODEL_SEED.  Batch, learning rates and epochs are chosen so that the final
# training loss spreads little between data seeds: with batch 32, with a
# Tucker learning rate of 2e-3, or with the model seed varied too,
# tucker_train's spread 15-40% (interquartile range over median), and at
# lr 5e-3 its Tucker phase diverged on one seed.
POOL_IMAGES = 4096
TRAIN_IMAGES = 512
TEST_IMAGES = 512
NOISE, JITTER = 0.1, 1
MODEL_SEED = 0
BATCH = 64
STL_LR = 5e-3             # STL pretraining, stl_train, and every cli_pipeline stage
TUCKER_LR = 1e-3          # fine-tuning the factorised network
ROUND_EPOCHS = 3
PRETRAIN_EPOCHS = 2
EPSILON = 0.1
SETUPS = 3
ROUNDTRIP_PROBE = 64      # test images scored again after a checkpoint round trip
MAX_MULTICLASS_ERROR = 0.6  # chance is 0.9; 20 seeds gave at most 0.40

# cli_pipeline: the commands behind one paper table, sized so the training
# step is a minor share of the work.
CLI_PRESETS = ["stl", "udmtl-2", "dmtrl-laf", "dmtrl-tucker", "dmtrl-tt"]
CLI_POOL, CLI_TEST, CLI_FRACTION = 3000, 256, 0.02
CLI_SETUPS = 5
HETERO_CHANCE = (0.5, 7 / 8)   # binary parity task, 8-class identity task


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- API workloads ------------------------------------------------------------

def _spec(mode):
    from dmtrl import FC, Activation, Conv, LayerSpec, MaxPool, NetworkSpec

    kinds = [Conv(5, 5, 1, 8), Activation("relu"), MaxPool(),
             Conv(4, 4, 8, 16), Activation("relu"), MaxPool(),
             FC(256, 64), Activation("relu"), FC(64, 1)]
    return NetworkSpec((28, 28, 1), [
        LayerSpec(k, mode) if isinstance(k, (FC, Conv)) else LayerSpec(k) for k in kinds
    ], TASKS)


def _train_config(workload):
    """The timed rounds' training settings."""
    from dmtrl import TrainConfig

    lr = TUCKER_LR if workload == "tucker_train" else STL_LR
    return TrainConfig(optimizer="adam", lr=lr, batch_size=BATCH,
                       epochs=ROUND_EPOCHS, seed=MODEL_SEED)


def _setup(workload, seed):
    """Data, suites and the network the timed rounds start from."""
    from dmtrl import PlainRandom, SharingMode, build_network, init_from_stl, pretrain_stl
    from dmtrl.data import make_suite, sample_fraction, synth_digits

    pool = synth_digits(1000 + seed, POOL_IMAGES, noise=NOISE, jitter=JITTER)
    train_suite = make_suite(sample_fraction(pool, TRAIN_IMAGES / POOL_IMAGES, seed))
    test_suite = make_suite(
        synth_digits(5000 + seed, TEST_IMAGES, noise=NOISE, jitter=JITTER), split="test")
    if workload == "tucker_train":
        cfg = replace(_train_config(workload), epochs=PRETRAIN_EPOCHS, lr=STL_LR)
        stl = pretrain_stl(_spec(SharingMode.INDEPENDENT), train_suite.tasks, cfg)
        net = init_from_stl(stl, _spec(SharingMode.SOFT_TUCKER), EPSILON)
    else:
        stl = None
        net = build_network(_spec(SharingMode.INDEPENDENT), PlainRandom(), MODEL_SEED)
    return train_suite, test_suite, stl, net


def _tucker_init_failures(stl, net) -> list:
    """Relative reconstruction error of every Tucker layer against the
    stacked single-task weights must stay within sqrt(N) * epsilon."""
    stl_params, params = stl.parameters(), net.parameters()
    failures = []
    for i, kind in enumerate(LAYERS):
        if kind not in ("conv", "fc"):
            continue
        name = f"layer{i}.{kind}"
        stacked = np.stack([stl_params[f"{name}.w{t}"] for t in range(TASKS)], axis=-1)
        core = params[f"{name}.tucker.core"]
        us = [params[f"{name}.tucker.u{n}"] for n in range(core.ndim)]
        err = np.linalg.norm(reference.tucker_full(core, us) - stacked) / np.linalg.norm(stacked)
        bound = math.sqrt(stacked.ndim) * EPSILON
        if not err <= bound:
            failures.append(f"{name}: Tucker init error {err:.4f} > sqrt(N)*eps {bound:.4f}")
    return failures


def _same_params(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _probe_scores(net, x):
    return np.column_stack([net.forward(t, x)[:, 0] for t in range(TASKS)])


def run_api(workload, seed, seconds, work_dir, tracer):
    from dmtrl import evaluate_suite, train
    from dmtrl.checkpoint import load_network, save_network

    failures = []
    setup_times, first_params = [], None
    for _ in range(SETUPS):
        built = None  # free the previous set-up before building the next
        start = perf_counter()
        built = _setup(workload, seed)
        setup_times.append(perf_counter() - start)
        params = built[3].parameters()
        if first_params is None:
            first_params = {k: v.copy() for k, v in params.items()}
        elif not _same_params(first_params, params):
            failures.append("repeated set-ups gave different networks")
    train_suite, test_suite, stl, net = built
    if stl is not None:
        failures += _tucker_init_failures(stl, net)
    setup_dump = tracer.dump() if tracer else None

    cfg = _train_config(workload)
    cycles = math.ceil(max(len(ds) for ds in train_suite.tasks) / cfg.batch_size)
    steps = cfg.epochs * cycles * TASKS
    snapshot = {k: v.copy() for k, v in net.parameters().items()}
    ckpt = os.path.join(work_dir, "net.ckpt")
    probe = test_suite.source.float_inputs()[:ROUNDTRIP_PROBE]
    train_s, eval_s, round_s, losses = [], [], [], None
    # round 0 warms up and is not timed: its training ran about 50% slower
    # than later rounds', which made medians depend on the round count
    warm_up, phase_start = True, None
    while True:
        net.load_parameters(snapshot)
        t0 = perf_counter()
        log = train(net, train_suite.tasks, cfg)
        t1 = perf_counter()
        result = evaluate_suite(net, test_suite)
        t2 = perf_counter()
        save_network(ckpt, net)
        loaded, _ = load_network(ckpt)
        t3 = perf_counter()
        if not warm_up:
            train_s.append(t1 - t0)
            eval_s.append(t2 - t1)
            round_s.append(t3 - t0)

        round_losses = [r.loss for r in log]
        if losses is not None and round_losses != losses:
            failures.append("rounds from the same start gave different losses")
        losses = round_losses
        if not _same_params(net.parameters(), loaded.parameters()):
            failures.append("save_network/load_network changed the parameters")
        if not np.array_equal(_probe_scores(net, probe), _probe_scores(loaded, probe)):
            failures.append("the reloaded network scores differently")
        if warm_up:
            if tracer:
                tracer.reset()
            warm_up, phase_start = False, perf_counter()
        elif perf_counter() - phase_start >= seconds:
            break
    rounds = len(round_s)

    def epoch_mean(epoch):
        return float(np.mean([r.loss for r in log if r.epoch == epoch]))

    first, final = epoch_mean(0), epoch_mean(cfg.epochs - 1)
    if not all(math.isfinite(x) for x in losses):
        failures.append("a training loss is not finite")
    if not final < first:
        failures.append(f"final-epoch loss {final:.4f} not below first-epoch {first:.4f}")
    if not result["multiclass"] <= MAX_MULTICLASS_ERROR:
        failures.append(f"multiclass error {result['multiclass']:.3f} > {MAX_MULTICLASS_ERROR}")
    failures += reference.check_suite_scores(
        LAYERS, loaded.parameters(), TASKS, test_suite.source.float_inputs(),
        test_suite.source.labels, result)

    setup_s = statistics.median(setup_times)
    out = {
        "attempted": (rounds + 1) * (steps + 2),  # steps, eval pass, round trip
        "failed": 0,
        "failures": failures,
        "metrics": {
            "setup_s": [setup_s, "s"],
            "train_step_ms": [1e3 * sum(train_s) / (steps * rounds), "ms"],
            "eval_images_per_s": [TEST_IMAGES * rounds / sum(eval_s), "images/s"],
            "final_train_loss": [final, "loss"],
            "peak_rss_mb": [_peak_rss_mb(resource.RUSAGE_SELF), "MiB"],
            "wall_s": [setup_s + statistics.median(round_s), "s"],
        },
    }
    if tracer:
        rounds_totals = spans.Totals([tracer.dump()])
        traced_steps = rounds_totals.ncalls("training.task_loss", train_only=True)
        out["per_layer"] = spans.per_layer_metrics(
            rounds_totals, rounds, traced_steps, spans.Totals([setup_dump]), SETUPS)
    return out


# -- cli_pipeline -------------------------------------------------------------

def _cli_configs(seed, work_dir):
    arch = [
        {"kind": "conv", "h": 5, "w": 5, "in_ch": 1, "out_ch": 8}, {"kind": "relu"},
        {"kind": "maxpool"},
        {"kind": "conv", "h": 4, "w": 4, "in_ch": 8, "out_ch": 16}, {"kind": "relu"},
        {"kind": "maxpool"},
        {"kind": "fc", "d_in": 256, "d_out": 64}, {"kind": "relu"},
        {"kind": "fc", "d_in": 64, "d_out": 1},
    ]
    digits = {"source": "synthetic_digits", "n_train": CLI_POOL, "n_test": CLI_TEST,
              "noise": NOISE, "jitter": JITTER, "class_seed": 11 + seed}
    sweep = {
        "name": "table", "tasks": TASKS, "input_shape": [28, 28, 1],
        "architecture": arch, "sharing": "stl", "presets": CLI_PRESETS,
        "init": {"policy": "stl", "pretrain_epochs": 2, "epsilon": EPSILON},
        "train": {"epochs": 3, "batch_size": BATCH, "lr": STL_LR, "seed": MODEL_SEED},
        "data": digits, "fractions": [CLI_FRACTION],
    }
    hetero = {
        "name": "hetero", "tasks": 2, "input_shape": [16, 16, 1],
        "architecture": [
            {"kind": "conv", "h": 3, "w": 3, "in_ch": 1, "out_ch": 4}, {"kind": "relu"},
            {"kind": "maxpool"},
            {"kind": "fc", "d_in": 196, "d_out": 16}, {"kind": "relu"},
            {"kind": "fc", "d_in": 16, "d_out": 8},
        ],
        "head_dims": [1, 8], "sharing": "dmtrl-tt",
        "init": {"policy": "stl", "pretrain_epochs": 3, "epsilon": EPSILON},
        "train": {"epochs": 4, "batch_size": 32, "lr": STL_LR, "seed": MODEL_SEED},
        "data": {"source": "synthetic_heterogeneous", "n_train_per_task": 256,
                 "n_test_per_task": 256, "class_seed": 7 + seed},
    }
    paths = {}
    for name, obj in (("sweep", sweep), ("hetero", hetero), ("digits", digits)):
        paths[name] = os.path.join(work_dir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as f:
            json.dump(obj, f)
    return sweep, paths


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _mean_row_failures(rows, mean_metric, where) -> list:
    """Each (method, fraction, repeat) mean row equals the mean of its
    per-task rows."""
    failures, cells = [], {}
    for r in rows:
        cells.setdefault((r["method"], r["fraction"], r["repeat"]), []).append(r)
    for cell, rs in cells.items():
        per_task = [float(r["value"]) for r in rs if r["task"] != "all"]
        mean = [float(r["value"]) for r in rs if r["metric"] == mean_metric]
        if len(mean) != 1 or not per_task or abs(mean[0] - float(np.mean(per_task))) > 1e-12:
            failures.append(f"{where} {cell}: {mean_metric} is not the mean of its task rows")
    return failures


def _cli_step_count(sweep) -> int:
    """Training steps of one sweep, from the sizes of the sampled sets."""
    from dmtrl.cli import build_train_tasks

    tasks = build_train_tasks(sweep["data"], CLI_FRACTION, sweep["train"]["seed"])
    cycles = math.ceil(max(len(t) for t in tasks) / sweep["train"]["batch_size"])
    per_epoch = cycles * TASKS
    steps = 0
    for preset in CLI_PRESETS:
        epochs = sweep["train"]["epochs"]
        if preset.startswith("dmtrl-"):
            epochs += sweep["init"]["pretrain_epochs"]
        steps += epochs * per_epoch
    return steps


def _cli_reference_failures(sweep, ckpt, rows) -> list:
    """Score the dmtrl-tt sweep checkpoint with the reference forward pass
    and compare with its rows in results.csv."""
    from dmtrl.checkpoint import load_checkpoint
    from dmtrl.cli import build_eval_payload

    suite = build_eval_payload(sweep["data"])
    cell = [r for r in rows if r["method"] == "dmtrl-tt"]
    result = {
        "per_task": [float(r["value"]) for r in cell if r["metric"] == "binary_error"],
        "multiclass": float([r for r in cell if r["metric"] == "multiclass_error"][0]["value"]),
    }
    return reference.check_suite_scores(
        LAYERS, load_checkpoint(ckpt), TASKS, suite.source.float_inputs(),
        suite.source.labels, result)


def run_cli(seed, seconds, work_dir, traced):
    setup_times = []
    for _ in range(CLI_SETUPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import dmtrl.cli"], check=True)
        setup_times.append(perf_counter() - start)

    sweep, cfg = _cli_configs(seed, work_dir)
    tag = f"f{CLI_FRACTION:g}_r0"
    failures, dumps = [], []
    attempted = failed = 0
    round_s, eval_s, cell_wall = [], [], []
    first_csv = None
    phase_start = perf_counter()
    while True:
        r = len(round_s)
        d = os.path.join(work_dir, f"round{r}")
        sweep_dir, het_dir = os.path.join(d, "sweep"), os.path.join(d, "het")
        het_ckpt = os.path.join(het_dir, "dmtrl-tt_f1_r0.ckpt")
        commands = [
            ["sweep", "--config", cfg["sweep"], "--out", sweep_dir],
            ["train", "--config", cfg["hetero"], "--out", het_dir],
            ["eval", "--checkpoint", het_ckpt, "--data", cfg["hetero"],
             "--out", os.path.join(d, "het.csv")],
            ["measure", "--checkpoint", het_ckpt, "--out", os.path.join(d, "sharing.json")],
            ["eval", "--checkpoint", os.path.join(sweep_dir, f"dmtrl-tucker_{tag}.ckpt"),
             "--data", cfg["digits"], "--out", os.path.join(d, "digits.csv")],
        ]
        round_start = perf_counter()
        for i, args in enumerate(commands):
            argv = [sys.executable, os.path.join(HERE, "dmtrl_cmd.py")]
            if traced:
                argv += ["--trace-out", os.path.join(d, f"trace{i}.json")]
            start = perf_counter()
            proc = subprocess.run(argv + args, stdout=subprocess.DEVNULL)
            took = perf_counter() - start
            attempted += 1
            if proc.returncode != 0:
                failed += 1
                failures.append(f"dmtrl {args[0]} exited with {proc.returncode}")
            if i == len(commands) - 1:
                eval_s.append(took)
        round_s.append(perf_counter() - round_start)
        if failed:
            break

        results_path = os.path.join(sweep_dir, "results.csv")
        rows = _read_csv(results_path)
        failures += _mean_row_failures(rows, "mean_binary_error", "results.csv")
        het_rows = _read_csv(os.path.join(d, "het.csv"))
        failures += _mean_row_failures(het_rows, "mean_error", "het.csv")
        for row, chance in zip(het_rows, HETERO_CHANCE):  # task 0, task 1 rows
            if not float(row["value"]) < chance / 2:
                failures.append(f"het.csv task {row['task']}: {row['metric']} "
                                f"{row['value']} not below half of chance {chance}")
        tucker_rows = [row for row in rows if row["method"] == "dmtrl-tucker"]
        eval_rows = _read_csv(os.path.join(d, "digits.csv"))
        if tucker_rows != eval_rows:
            failures.append("dmtrl eval disagrees with the sweep's rows for its checkpoint")
        with open(results_path, "rb") as f:
            csv_bytes = f.read()
        if first_csv is not None and csv_bytes != first_csv:
            failures.append("results.csv differs between identical sweeps")
        first_csv = csv_bytes
        with open(os.path.join(d, "sharing.json"), encoding="utf-8") as f:
            report = json.load(f)
        if not report["layers"] or not all(math.isfinite(x["rho"]) for x in report["layers"]):
            failures.append("dmtrl measure reported no finite sharing strength")

        final_losses, wall = [], 0.0
        for preset in CLI_PRESETS:
            with open(os.path.join(sweep_dir, f"{preset}_{tag}.log.json"), encoding="utf-8") as f:
                log = json.load(f)
            losses = [rec[2] for rec in log["records"]]
            if not all(math.isfinite(x) for x in losses):
                failures.append(f"{preset}: a training loss is not finite")
            last = max(rec[0] for rec in log["records"])
            final_losses.append(np.mean([rec[2] for rec in log["records"] if rec[0] == last]))
            wall += log["wall_time_s"]
        cell_wall.append(wall)
        if traced:
            for i in range(len(commands)):
                with open(os.path.join(d, f"trace{i}.json"), encoding="utf-8") as f:
                    dumps.append(json.load(f))
        if perf_counter() - phase_start >= seconds:
            break

    rounds = len(round_s)
    out = {"attempted": attempted, "failed": failed, "failures": failures}
    if failed:
        return out
    failures += _cli_reference_failures(
        sweep, os.path.join(sweep_dir, f"dmtrl-tt_{tag}.ckpt"), rows)
    steps = _cli_step_count(sweep)
    out["metrics"] = {
        "setup_s": [statistics.median(setup_times), "s"],
        "train_step_ms": [1e3 * sum(cell_wall) / (steps * rounds), "ms"],
        "eval_images_per_s": [CLI_TEST / statistics.median(eval_s), "images/s"],
        "final_train_loss": [float(np.mean(final_losses)), "loss"],
        "peak_rss_mb": [_peak_rss_mb(resource.RUSAGE_CHILDREN), "MiB"],
        "wall_s": [statistics.median(round_s), "s"],
    }
    if traced:
        totals = spans.Totals(dumps)
        out["per_layer"] = spans.per_layer_metrics(
            totals, rounds, totals.ncalls("training.task_loss", train_only=True))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("tucker_train", "stl_train", "cli_pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    args = p.parse_args(argv)
    os.makedirs(args.work_dir, exist_ok=True)

    if args.workload == "cli_pipeline":
        out = run_cli(args.seed, args.seconds, args.work_dir, args.trace == 1)
    else:
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        out = run_api(args.workload, args.seed, args.seconds, args.work_dir, tracer)
    out["correct"] = not out["failures"] and out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
