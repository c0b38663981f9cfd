"""One sha256 per artifact of the benchmark's ``cli_pipeline`` commands.

    python3 tools/artifact_digests.py SOURCE_ROOT SEED OUT_DIR

SOURCE_ROOT is a checkout of this repository (its ``src/`` runs the
commands, its ``perfbench/worker.py`` writes the configs).  The script writes
``cli_pipeline``'s configs for SEED through ``worker._cli_configs`` under
OUT_DIR, which must be empty or missing.  It then runs ``dmtrl sweep`` on
the sweep config and ``dmtrl train``, ``eval`` and ``measure`` on the
heterogeneous one, each in its own process on one BLAS thread.  It prints ``<sha256>  <path>`` for every file the
commands wrote, paths relative to OUT_DIR and sorted.  Before hashing it
replaces OUT_DIR in each file's bytes with ``<out>``, and it drops
``wall_time_s`` from the training logs and from ``sweep.json``, so two
checkouts that write the same artifacts print the same lines, wherever
OUT_DIR is.  Compare two checkouts with ``diff`` over the two outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _configs(root, seed, config_dir):
    """``worker._cli_configs``' config paths, imported from ``root``."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import worker

    os.makedirs(config_dir, exist_ok=True)
    return worker._cli_configs(seed, config_dir)[1]


def _run(root, out, configs):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    het = os.path.join(out, "het")
    ckpt = os.path.join(het, "dmtrl-tt_f1_r0.ckpt")
    for args in (["sweep", "--config", configs["sweep"], "--out", os.path.join(out, "sweep")],
                 ["train", "--config", configs["hetero"], "--out", het],
                 ["eval", "--checkpoint", ckpt, "--data", configs["hetero"],
                  "--out", os.path.join(out, "het.csv")],
                 ["measure", "--checkpoint", ckpt, "--out", os.path.join(out, "sharing.json")]):
        subprocess.run([sys.executable, "-m", "dmtrl.cli", *args], env=env, check=True,
                       stdout=subprocess.DEVNULL)


def _canonical(path, out) -> bytes:
    """The file's bytes with ``out`` replaced and wall times dropped."""
    with open(path, "rb") as f:
        data = f.read().replace(os.fsencode(out), b"<out>")
    name = os.path.basename(path)
    if name.endswith(".log.json") or name == "sweep.json":
        obj = json.loads(data)
        obj.pop("wall_time_s", None)
        for cell in obj.get("cells", ()):
            cell.pop("wall_time_s", None)
        data = json.dumps(obj, sort_keys=True).encode("utf-8")
    return data


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="checkout whose src/ and perfbench/ to run")
    p.add_argument("seed", type=int)
    p.add_argument("out", help="output directory, created if missing")
    args = p.parse_args(argv)
    root, out = os.path.abspath(args.root), os.path.abspath(args.out)
    if os.path.isdir(out) and os.listdir(out):
        p.error(f"{out} is not empty")
    config_dir = os.path.join(out, "configs")
    _run(root, out, _configs(root, args.seed, config_dir))
    digests = {}
    for dirpath, _, files in os.walk(out):
        if dirpath == config_dir:
            continue
        for name in files:
            path = os.path.join(dirpath, name)
            digests[os.path.relpath(path, out)] = hashlib.sha256(_canonical(path, out)).hexdigest()
    for rel in sorted(digests):
        print(f"{digests[rel]}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
