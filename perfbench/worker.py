"""One benchmark sample: set up one workload, solve it once, check the gates.

    python3 perfbench/worker.py --workload blob-32 --seed 0 [--size tiny] [--trace 1]
    python3 perfbench/worker.py --env

run.py starts one fresh interpreter per sample, with the checkout's ``src``
on PYTHONPATH and BLAS/OpenMP pinned to one thread.  The last line of
standard output is one JSON object.  ``setup_end`` is the CLOCK_MONOTONIC
time at which the first step was about to start, so the caller can measure
set-up from the moment it started this process.  ``calibration_s`` is the
time of a fixed piece of work run after the solution, a measure of the
host's speed at the time.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads as wl
from tracer import Tracer

# Gates.  The first two are the acceptance suite's tolerances (criteria 1 and
# 5); the reference tolerance leaves room for solver changes that move each
# step by up to its Newton tolerance, over a few hundred steps.
MASS_DRIFT_TOL = 1e-11
ENTROPY_RISE_TOL = 1e-10  # largest per-step rise, relative to E(0)
REFERENCE_TOL = 1e-8  # max |final - reference| relative to max |reference|
# The diagnostics.csv header that PAPER.md fixes.
PAPER_HEADER = (
    "t,mass,entropy,entropy_L,u_env_max,v_env_max,u_env_min,v_env_min,"
    "reaction_diss,diff_diss_bulk,diff_diss_surf,clamp_activations"
)
REFERENCE_FILE = Path(__file__).with_name("reference.json")
WORK_ROOT = Path(".perfbench")  # scratch space inside the checkout


def environment() -> dict:
    import scipy

    import bulksurf
    import bulksurf.cli  # noqa: F401  (warms the bytecode cache of every module)

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bulksurf": bulksurf.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of the kinds of work a solution does.

    A pure-Python loop, many numpy operations on small arrays, and sparse LU
    factorizations and solves of a fixed 2D Laplacian.  None of it runs
    bulksurf code, so the time tracks only the speed of the host.
    """
    from scipy import sparse
    from scipy.sparse import linalg as spla

    start = time.perf_counter()
    total = 0
    for i in range(750_000):
        total += i * i
    x = np.linspace(1.0, 2.0, 1200)
    bins = np.arange(x.size) % 37
    for _ in range(7500):
        np.bincount(bins, weights=np.where(x > 1.5, x * x, x))
    n = 60
    laplacian = sparse.diags(
        [-1.0, -1.0, 4.0, -1.0, -1.0], [-n, -1, 0, 1, n], shape=(n * n, n * n), format="csc"
    )
    for _ in range(15):
        spla.splu(laplacian).solve(np.ones(n * n))
    return time.perf_counter() - start


def solve_blob(workload: str, seed: int, size: wl.Size) -> dict:
    import bulksurf as bs

    kin = bs.Kinetics(k=1.0, kappa=wl.KAPPA, alpha=wl.ALPHA, beta=wl.BETA)
    mesh = bs.build_mesh(size.n, size.n, 1.0, 1.0, {"bottom"})
    u0 = wl.blob_initial_u(wl.blobs(workload, seed), mesh.cell_center_x, mesh.cell_center_y)
    v0 = np.full(mesh.n_surface, wl.balanced_v())
    state = bs.State(t=0.0, u=u0, v=v0)
    mass = bs.weighted_mass(state, mesh, kin)
    eq = bs.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.window_from_initial_data(u0, v0, eq, kin)
    bulk_law = bs.power_law(1.0)
    surf_law = bs.surface_cross_law(kin)
    tau = min(mesh.lx, mesh.ly) ** 2 / bs.coefficient_bounds(bulk_law, window)[1]
    cfg = bs.StepConfig(dt=1e-3 * tau, newton_tol=1e-13, newton_max_iter=40)

    setup_end = time.monotonic()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        final, records = bs.run(
            state, size.steps * cfg.dt, mesh, kin, eq, bulk_law, surf_law, window, cfg
        )
        completed = True
    except bs.NonConvergence as exc:
        final, records, completed = exc.last_state, exc.records, False
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "completed": completed,
        "steps": len(records) - 1,
        "u": final.u,
        "v": final.v,
        "mass": [r.mass for r in records],
        "entropy": [r.entropy for r in records],
        "entropy_L": [r.envelope_entropy for r in records],
        "clamp": [r.clamp_activations for r in records],
        "bytes_written": 0,
    }


def solve_cli(seed: int, size: wl.Size) -> dict:
    import bulksurf.cli
    import bulksurf.solver

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="sample-", dir=WORK_ROOT))
    try:
        config = work / "run.cfg"
        config.write_text(wl.cli_config(seed, size))
        out = work / "out"

        # The solution starts when main enters the time loop.
        mark = {}
        run = bulksurf.solver.run

        def marked_run(*args, **kwargs):
            mark["setup_end"] = time.monotonic()
            mark["t0"], mark["c0"] = time.perf_counter(), time.process_time()
            return run(*args, **kwargs)

        bulksurf.solver.run = marked_run
        try:
            code = bulksurf.cli.main(["--config", str(config), "--out", str(out), "--quiet"])
        finally:
            bulksurf.solver.run = run
        t1, c1 = time.perf_counter(), time.process_time()
        if "t0" not in mark:
            raise RuntimeError(f"bulksurf.cli.main returned {code} before the time loop")
        return {
            "setup_end": mark["setup_end"],
            "wall_s": t1 - mark["t0"],
            "cpu_s": c1 - mark["c0"],
            "exit_code": code,
            "bytes_written": sum(p.stat().st_size for p in out.iterdir()),
            **read_cli_outputs(out),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def read_cli_outputs(out: Path) -> dict:
    with open(out / "diagnostics.csv", newline="") as fh:
        header = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    cols = {name: i for i, name in enumerate(header.split(","))}
    with open(out / "final_state.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    summary = json.loads((out / "summary.json").read_text())

    def column(name, kind=float):
        return [kind(row[cols[name]]) for row in rows] if name in cols else []

    return {
        "completed": bool(summary.get("completed")),
        "steps": int(summary.get("steps", -1)),
        "header": header,
        "rows": len(rows),
        "u": np.array([float(c["value"]) for c in cells if c["field"] == "u"]),
        "v": np.array([float(c["value"]) for c in cells if c["field"] == "v"]),
        "mass": column("mass"),
        "entropy": column("entropy"),
        "entropy_L": column("entropy_L"),
        "clamp": column("clamp_activations", int),
    }


def reference_for(workload: str, size_name: str) -> dict | None:
    refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    return refs.get(f"{workload}/{size_name}")


def gate_failures(result: dict, size: wl.Size, reference: dict | None) -> list[str]:
    """Names and details of the correctness gates a solution fails."""
    failures = []
    if not result["completed"] or result.get("exit_code", 0) != 0:
        failures.append(f"completion: completed={result['completed']} exit={result.get('exit_code')}")
    if result["steps"] != size.steps:
        failures.append(f"completion: {result['steps']} steps, expected {size.steps}")
    mass = np.asarray(result["mass"])
    if mass.size == 0:
        failures.append("mass: no records")
    else:
        drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
        if not drift <= MASS_DRIFT_TOL:
            failures.append(f"mass: relative drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
    entropy = np.asarray(result["entropy"])
    if entropy.size > 1:
        rise = float(np.max(np.diff(entropy)))
        if not rise <= ENTROPY_RISE_TOL * entropy[0]:
            failures.append(f"entropy: rise {rise:.3e} > {ENTROPY_RISE_TOL:g} * E(0)")
    if any(c != 0 for c in result["clamp"]):
        failures.append(f"clamp: {max(result['clamp'])} activations")
    if any(e != 0.0 for e in result["entropy_L"]):
        failures.append(f"envelope: envelope entropy up to {max(result['entropy_L']):.3e}")
    if "header" in result:
        if result["header"] != PAPER_HEADER:
            failures.append(f"cli: diagnostics.csv header {result['header']!r}")
        if result["rows"] != result["steps"] + 1:
            failures.append(f"cli: {result['rows']} diagnostics rows for {result['steps']} steps")
    if reference is not None:
        u = np.asarray(result["u"])[:: reference["u_stride"]]
        v = np.asarray(result["v"])
        ref_u, ref_v = np.asarray(reference["u"]), np.asarray(reference["v"])
        if u.shape != ref_u.shape or v.shape != ref_v.shape:
            failures.append("reference: final state has the wrong size")
        else:
            scale = max(np.max(np.abs(ref_u)), np.max(np.abs(ref_v)))
            gap = max(np.max(np.abs(u - ref_u)), np.max(np.abs(v - ref_v))) / scale
            if not gap <= REFERENCE_TOL:
                failures.append(f"reference: final state off by {gap:.3e} > {REFERENCE_TOL:g}")
    return failures


def layer_metrics(tracer: Tracer, workload: str, result: dict) -> dict:
    """Per-layer numbers of one traced solution, per accepted step unless named otherwise."""
    tracer.check_called(workload)
    calls, total, own = tracer.totals()
    steps = max(result["steps"], 1)
    theta = float(wl.CLI_EXTRA["theta"]) if workload == "cli-loop" else 1.0
    ms = 1e3
    step_ms = np.array(tracer.durations("solver.step")) * ms

    def n(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(total.get(name, 0.0) for name in names) * ms

    solves, rates, step_calls = n("superlu.solve"), n("model.safe_rate"), n("solver.step")
    coeff = ("model.diffusion_coefficient", "model.coefficient_and_derivatives")
    writes = ("cli.write_diagnostics_csv", "cli.write_final_state_csv", "cli.write_summary_json")
    # Per step call: one residual at the old state (two when theta < 1, for
    # the explicit part), then one per line-search trial after each solve.
    first_evals = 1 + (theta < 1.0)
    return {
        "solver.lu_per_step": n("superlu.splu") / steps,
        "solver.factor_ms_per_step": t("superlu.splu") / steps,
        "solver.factor_ms_per_lu": t("superlu.splu") / n("superlu.splu"),
        "solver.lu_nnz": tracer.lu_nnz(),
        "solver.solve_ms_per_call": t("superlu.solve") / solves,
        "solver.solve_ms_per_step": t("superlu.solve") / steps,
        "solver.self_ms_per_step": own["solver.step"] * ms / steps,
        "solver.newton_iters_per_step": solves / steps,
        "solver.backtracks_per_step": (rates - solves - first_evals * step_calls) / steps,
        "solver.dt_halvings": step_calls - result["steps"],
        "solver.step_ms_p50": float(np.percentile(step_ms, 50)),
        "solver.step_ms_p90": float(np.percentile(step_ms, 90)),
        "model.rate_evals_per_step": rates / steps,
        "model.rate_ms_per_step": t("model.safe_rate") / steps,
        "model.coeff_calls_per_step": sum(n(c) for c in coeff) / steps,
        "model.coeff_ms_per_step": t(*coeff) / steps,
        "model.equilibrium_ms": t("model.solve_equilibrium"),
        "diagnostics.record_ms_per_step": t("diagnostics.record") / steps,
        "diagnostics.record_share": t("diagnostics.record") / ms / result["wall_s"],
        "mesh.build_ms": t("mesh.build_mesh"),
        "cli.parse_ms": t("cli.parse_config"),
        "cli.build_ms": t("cli.build_problem"),
        "cli.write_ms": t(*writes),
        "cli.bytes_written": result["bytes_written"],
    }


def sample(
    workload: str, seed: int, size_name: str, trace: bool, perturb: float = 0.0
) -> tuple[dict, dict]:
    """Set up and solve once.

    Returns the sample record (timings, gate failures and, if traced, layer
    metrics) and the raw solution it was made from.
    """
    import bulksurf

    src = (Path.cwd() / "src").resolve()
    if Path(bulksurf.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported bulksurf from {bulksurf.__file__}, not from {src}")
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    size = wl.SIZES[workload][size_name]
    result = solve_cli(seed, size) if workload == "cli-loop" else solve_blob(workload, seed, size)
    if perturb:
        result["u"] = np.asarray(result["u"]) * (1.0 + perturb)
    reference = reference_for(workload, size_name) if seed == wl.DEFAULT_SEED else None
    out = {
        "setup_end": result["setup_end"],
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "steps": result["steps"],
        "failures": gate_failures(result, size, reference),
        "reference_checked": reference is not None,
        "layers": layer_metrics(tracer, workload, result) if tracer is not None else None,
    }
    return out, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--env", action="store_true", help="print the environment and exit")
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="scale the final u by 1 + PERTURB before the gates (self-test)")
    args = parser.parse_args()
    if args.env:
        print(json.dumps(environment()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    out, _ = sample(args.workload, args.seed, args.size, bool(args.trace), args.perturb)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["calibration_s"] = calibrate()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
