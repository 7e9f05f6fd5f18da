"""Write perfbench/reference.json: the default-seed final states the reference gate compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the repository root, only when a change is meant to alter the
solution.  Every workload is solved at both sizes with the default seed; the
file keeps every surface value and at most 256 evenly strided bulk values.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

# Solve single-threaded, as run.py's workers do; set before numpy loads.
os.environ.update({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
import worker  # noqa: E402

MAX_BULK_VALUES = 256


def main() -> int:
    refs = {}
    for workload in wl.WORKLOADS:
        for size_name in ("full", "tiny"):
            out, result = worker.sample(workload, wl.DEFAULT_SEED, size_name, trace=False)
            if out["failures"]:
                print(f"{workload}/{size_name}: {out['failures']}", file=sys.stderr)
                return 1
            stride = max(1, math.ceil(len(result["u"]) / MAX_BULK_VALUES))
            refs[f"{workload}/{size_name}"] = {
                "seed": wl.DEFAULT_SEED,
                "u_stride": stride,
                "u": [float(x) for x in result["u"][::stride]],
                "v": [float(x) for x in result["v"]],
            }
            print(f"{workload}/{size_name}: {out['steps']} steps in {out['wall_s']:.2f} s")
    worker.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
