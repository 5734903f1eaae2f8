"""Traced cold selftest: wrap every public qqinv function, then run
``qqinv.cli.run(["selftest"])`` as the root span of one op.

    python3 perfbench/selftest_child.py SPANS_OUT OP_ID

The selftest report goes to stdout and the exit status is the selftest's;
the span dump, with the wall time of the op, goes to SPANS_OUT as JSON.
qqinv must be importable (the parent puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import io
import json
import sys
import time

import spans


def main() -> int:
    path, op_id = sys.argv[1], int(sys.argv[2])
    from qqinv import cli

    tracer = spans.Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        start = time.perf_counter_ns()
        code = tracer.run_op(op_id, cli.run, ["selftest"], out)
        wall = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "wall_ns": wall}, fh)
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
