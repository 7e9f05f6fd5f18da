"""Time-to-solution benchmark of bulksurf.

    python3 perfbench/run.py --workload blob-32 --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src``.  The
loop is closed: one sample at a time, each a fresh single-threaded
interpreter (perfbench/worker.py) that sets up the workload, solves it from
the first step to t_final and checks the correctness gates.  Samples are
started while the next one is expected to end within ``--seconds`` (at least
three; with ``--trace 1`` at least two traced and two untraced, alternating),
and the medians are reported.

The metrics printed, and their units, are the ones BENCHMARK.json lists.
With ``--trace 0`` they are the end-to-end ones: ``wall_s`` (first
step to t_final, with the per-step diagnostics records and, for cli-loop,
the output files), ``cpu_s`` (own-process CPU time over the same span),
``setup_s`` (process start to the first step) and ``peak_rss_mb``; the
three times are in reference seconds (see REFERENCE_CALIBRATION_S).  With
``--trace 1`` they are the per-layer ones, taken from traced samples, plus
``trace.overhead``, the traced median wall time over the untraced one,
minus one.

Standard output holds one JSON line with the environment, one with every
sample, and last the result.  A sample that fails a gate counts as failed;
the exit code is then 1.  A worker that crashes, or a missing source tree,
ends the run with a nonzero exit code and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
MIN_SAMPLES = 3
# The speed of a shared host drifts by up to half within minutes: the same
# blob-32 solution took 1.6 s and 2.5 s ten minutes apart, and a fixed
# calibration loop slowed with it.  Times are therefore reported in reference
# seconds: the run's median time scaled by REFERENCE_CALIBRATION_S over the
# run's median time of worker.calibrate(), which every sample runs after its
# solution.  The loop tracks the interpreter-bound blob-32 and cli-loop
# closely; blob-256, bound by one large factorization, slows about half as
# much, so its scaled times keep about half the drift, as its raw times do
# (a large-factorization loop tracked it worse).  The raw medians are printed
# on the line before the result.
REFERENCE_CALIBRATION_S = 0.5
SCALED = ("wall_s", "cpu_s", "setup_s")
# One thread for every BLAS and OpenMP runtime the interpreter might load.
PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, **PINNED, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        # Let the warm-up worker write the bytecode caches that every sample
        # then reads, as an installed package has them.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def worker(self, *args: str) -> tuple[float, dict]:
        """Run one worker to completion; return its start time and its JSON line."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise WorkerError("out of time before the next sample")
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{' '.join(args)} did not finish within the deadline") from exc
        if proc.returncode != 0:
            raise WorkerError(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise WorkerError(f"{' '.join(args)} printed nothing:\n{proc.stderr}")
        return started, json.loads(lines[-1])


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def reference_median(samples, key):
    """Median over samples, with times in reference seconds."""
    if key not in SCALED:
        return median_of(samples, key)
    return median_of(samples, key) * REFERENCE_CALIBRATION_S / median_of(samples, "calibration_s")


def main() -> int:
    parser = argparse.ArgumentParser(description="bulksurf time-to-solution benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path in well under a second (self-test)")
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="perturb each final state before the gates (self-test)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bulksurf" / "__init__.py").is_file():
        print(f"error: no bulksurf source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    begin = time.monotonic()
    runner = Runner(root, begin + DEADLINE_S)
    sample_args = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
                   "--perturb", repr(args.perturb)]
    try:
        # Untimed: records the environment and fills the bytecode and file caches.
        _, env = runner.worker("--env")
        print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                          "size": args.size, "trace": args.trace}))
        measure_from = time.monotonic()
        untraced, traced = [], []
        while True:
            if args.trace:
                # Alternate the order within each pair: U T, T U, U T, ...
                pair = (False, True) if len(traced) % 2 == 0 else (True, False)
            else:
                pair = (False,)
            for trace in pair:
                started, out = runner.worker(*sample_args, "--trace", str(int(trace)))
                out["setup_s"] = out.pop("setup_end") - started
                out["trace"] = trace
                (traced if trace else untraced).append(out)
            # Stop before a round that would end after the window, so that a
            # run lasts --seconds whatever the sample length.
            elapsed = time.monotonic() - measure_from
            per_round = elapsed * len(pair) / (len(untraced) + len(traced))
            enough = len(traced) >= 2 if args.trace else len(untraced) >= MIN_SAMPLES
            if enough and elapsed + per_round > args.seconds:
                break
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = untraced + traced
    print(json.dumps({"samples": samples}))
    print(json.dumps({"raw_medians": {
        key: median_of(untraced, key) for key in (*SCALED, "calibration_s")
    }}))
    failed = [s for s in samples if s["failures"]]
    for s in failed:
        print(f"gate failed: {'; '.join(s['failures'])}", file=sys.stderr)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        if name == "trace.overhead":
            value = reference_median(traced, "wall_s") / reference_median(untraced, "wall_s") - 1.0
        elif args.trace:
            if any(name not in s["layers"] for s in traced):
                print(f"error: the traced worker did not report {name}", file=sys.stderr)
                return 1
            value = statistics.median(s["layers"][name] for s in traced)
        else:
            value = reference_median(untraced, name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
