"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``tucker_train``, ``stl_train``
and ``cli_pipeline`` (see perfbench/README.md).  Each runs in a fresh worker
process with numpy's BLAS pinned to one thread and ``src/`` on the path.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the workload runs twice, untraced
and traced, and the object holds the per-layer metrics of the traced run
plus its overhead (traced ``wall_s`` minus untraced ``wall_s``).
Scratch files go to perfbench/_out/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tucker_train", "stl_train", "cli_pipeline")
WORKER_TIMEOUT_S = 170

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    path = [SRC, HERE] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def _run_worker(args, trace, work_dir, timeout) -> dict:
    """Run one workload process (its own process group, so a timeout also
    ends the commands it started) and parse its result line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, env=_worker_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args.workload} did not finish within {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args.workload} worker printed no result")
    return json.loads(lines[-1])


def _metrics(table: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dmtrl benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dmtrl", "__init__.py")):
        print(f"no dmtrl sources under {SRC}", file=sys.stderr)
        return 2

    out_root = os.path.join(HERE, "_out")
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root)
    try:
        if args.trace:
            plain = _run_worker(args, 0, os.path.join(work, "plain"), WORKER_TIMEOUT_S // 2)
            traced = _run_worker(args, 1, os.path.join(work, "traced"), WORKER_TIMEOUT_S // 2)
            runs = [plain, traced]
        else:
            runs = [_run_worker(args, 0, os.path.join(work, "plain"), WORKER_TIMEOUT_S)]
    except RuntimeError as e:
        print(str(e), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for run in runs:
        for msg in run["failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
    if any("metrics" not in run for run in runs):
        print("a command failed, so the workload has no metrics", file=sys.stderr)
        return 1
    if args.trace:
        table = dict(traced["per_layer"])
        overhead = traced["metrics"]["wall_s"][0] - plain["metrics"]["wall_s"][0]
        table["trace.overhead_s"] = (overhead, "s")
    else:
        table = runs[0]["metrics"]
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": _metrics(table),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
