"""Run one ``dmtrl`` command line, optionally traced.

    python3 perfbench/dmtrl_cmd.py [--trace-out FILE] <dmtrl arguments>

Equivalent to ``dmtrl <arguments>`` with ``src/`` on the path.  With
``--trace-out`` the per-layer spans of the command are written to FILE as
JSON when it finishes.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from dmtrl import cli

    if trace_out is None:
        return cli.main(argv)
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    code = cli.main(argv)
    with open(trace_out, "w", encoding="utf-8") as f:
        json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
