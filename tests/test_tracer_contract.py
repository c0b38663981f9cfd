"""The benchmark's tracer still finds the factor algebra it times.

``perfbench/spans.install`` wraps functions by name: it imports
``dmtrl.linalg`` and gives every ``compose*`` name in
``factorization.__all__`` other than ``compose_backward`` a hook that reads
the result's ``size``.  The check runs in a fresh interpreter, since
``install`` patches the dmtrl modules for the life of the process.
"""

import json
import os
import pathlib
import subprocess
import sys

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
print(json.dumps({"spans": sorted({name for name, _ in tracer.calls}),
                  "composed": tracer.counts[("composed_elements", False)],
                  "elements": elements}))
"""


def test_spans_record_the_factor_algebra():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # write nothing under perfbench/
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert {"factorization.decompose", "factorization.compose",
            "factorization.compose_backward", "linalg.thin_svd"} <= set(out["spans"])
    assert out["composed"] == out["elements"]
