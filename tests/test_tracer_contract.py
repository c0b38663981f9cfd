"""The benchmark's tracer still finds the factor algebra and the scoring it
times.

``perfbench/spans.install`` wraps functions by name: it imports
``dmtrl.linalg`` and gives every ``compose*`` name in
``factorization.__all__`` other than ``compose_backward`` a hook that reads
the result's ``size``.  It traces ``evaluate_suite`` and ``evaluate_tasks``
both as ``training.evaluate`` and does not fold the ``training`` module, so
one evaluator calling the other would count that span twice.  Its
``layers.conv2d_forward`` hook reads the input and the kernel as the call's
first two positional arguments to size the patch matrix.  The check
runs in a fresh interpreter, since ``install`` patches the dmtrl modules for
the life of the process.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import numpy as np
import spans

tracer = spans.Tracer()
spans.install(tracer)
from dmtrl import factorization as fz

rng = np.random.default_rng(0)
elements = 0
for tag in fz.SCHEMES:
    f = fz.decompose(tag, rng.normal(size=(4, 3, 5)), 0.2)
    for t in range(5):
        w = fz.compose_task(f, t)
        fz.compose_backward(f, np.ones_like(w), task=t)
        elements += w.size
out = {"spans": sorted({name for name, _ in tracer.calls}),
       "composed": tracer.counts[("composed_elements", False)],
       "elements": elements}

from dmtrl import training
from dmtrl.data import LabeledImages, make_suite
from dmtrl.network import (Activation, Conv, FC, LayerSpec, NetworkSpec, SharingMode,
                           build_network)

suite = make_suite(LabeledImages(rng.integers(0, 256, (70, 4, 4), dtype=np.uint8),
                                 np.arange(70) % 3, 3))
net = build_network(NetworkSpec((4, 4, 1), [LayerSpec(FC(16, 1), SharingMode.INDEPENDENT)], 3),
                    training.PlainRandom(), 0)


def calls(name, run):
    before = tracer.calls[(name, False)]
    run()
    return tracer.calls[(name, False)] - before


x, ds = suite.tasks[0].inputs[:8], suite.tasks[0]
out["calls"] = {
    "evaluate_suite": calls("training.evaluate", lambda: training.evaluate_suite(net, suite)),
    "evaluate_tasks": calls("training.evaluate",
                            lambda: training.evaluate_tasks(net, suite.tasks)),
    "task_loss": calls("training.task_loss",
                       lambda: training.task_loss(net.forward(0, x), ds, np.arange(8))),
}

conv_net = build_network(
    NetworkSpec((9, 8, 2), [LayerSpec(Conv(3, 2, 2, 4), SharingMode.INDEPENDENT),
                            LayerSpec(Activation("relu")),
                            LayerSpec(FC(7 * 7 * 4, 1), SharingMode.INDEPENDENT)], 1),
    training.PlainRandom(), 0)
out["conv"] = {"calls": calls("layers.conv2d_forward",
                              lambda: conv_net.forward(0, rng.normal(size=(5, 9, 8, 2)))),
               "patch_bytes": tracer.peaks["conv_patch_bytes"]}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def traced():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # write nothing under perfbench/
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_spans_record_the_factor_algebra(traced):
    assert {"factorization.decompose", "factorization.compose",
            "factorization.compose_backward", "linalg.thin_svd"} <= set(traced["spans"])
    assert traced["composed"] == traced["elements"]


def test_each_scoring_call_records_one_span(traced):
    assert traced["calls"] == {"evaluate_suite": 1, "evaluate_tasks": 1, "task_loss": 1}


def test_conv_span_reads_the_input_and_kernel_by_position(traced):
    # perfbench's conv hook reads args[0] (the B x Hi x Wi x C input) and
    # args[1] (the hk x wk x C x M kernel); batch 5, 9x8 inputs, 3x2 taps on
    # 2 channels give 7x7 outputs
    assert traced["conv"] == {"calls": 1, "patch_bytes": 8.0 * 5 * 7 * 7 * 3 * 2 * 2}
