"""Smoke test: the quick demos run to completion against the current API.

Demo 03's finite-difference check of a factor gradient must print True.
Demo 06 drives ``dmtrl train``, ``eval`` and ``measure`` through the CLI and
writes its artifacts under the test's temporary directory.  Demo 04 (about
two minutes of training) is left out.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


# a line each demo must print, where it prints a self-check
SELF_CHECKS = {"03_multitask_network": "factor gradient vs finite differences: True"}


@pytest.mark.parametrize("demo", ["02_factorisations", "03_multitask_network",
                                  "05_heterogeneous_heads", "06_cli_pipeline"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo in SELF_CHECKS:
        assert SELF_CHECKS[demo] in done.stdout.splitlines(), done.stdout
