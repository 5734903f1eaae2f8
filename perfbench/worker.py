"""One benchmark process: set up, report ready, then run the op loop.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE MODE [SPEED_PATH]

run.py starts this from the root of a checkout and times it from start to
the READY line (``setup_s``).  MODE "setup" exits there; MODE "run" goes on
to generate the inputs, run the ops and print one JSON summary line; an
untraced run normalises its op times by the CPU speed samples that
run.py's sampler writes to SPEED_PATH.  Only interpreter start,
``import qqinv`` and the first-use builds of the workload come before
READY.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def setup(workload: str) -> None:
    import qqinv
    from qqinv import molien, su_algebra

    if not os.path.abspath(qqinv.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qqinv was imported from {qqinv.__file__}, not {SRC}")
    if workload == "molien":
        for label in ("su2xsu2", "su2xsu3"):
            molien.adjoint_weight_system(label)
            molien.rational_form_for(label)
    elif workload == "selftest":
        for label in su_algebra.BASIS_LABELS:
            su_algebra.structure_constants(label)


def main() -> int:
    workload, seed, seconds, trace, mode, *speed_path = sys.argv[1:]
    setup(workload)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    import json

    import loop
    print(json.dumps(loop.run(workload, int(seed), int(seconds), trace == "1", ROOT,
                              *speed_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
