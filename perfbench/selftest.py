"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root; takes about half a minute.  It runs every
workload at the tiny size through run.py in both modes and checks that the
result line names every metric of BENCHMARK.json with its unit, that a
perturbed final state trips the reference gate, that the tracer fails when
an entry point is missing or never entered, and that the benchmark fails
without a source tree.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import TraceError, Tracer  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str], str]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_result(lines: list[str], expected: dict[str, str], label: str) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {got} != {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
    return result


def test_every_metric_printed(spec: dict) -> None:
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in wl.WORKLOADS:
        for trace, metrics in modes.items():
            label = f"{workload} trace={trace}"
            code, lines, err = bench("--workload", workload, "--seed", str(wl.DEFAULT_SEED),
                                     "--size", "tiny", "--trace", str(trace))
            assert code == 0, f"{label}: exit {code}\n{err}"
            result = check_result(lines, {m["name"]: m["unit"] for m in metrics}, label)
            assert result["correct"] and result["failed"] == 0, f"{label}: {err}"
            samples = next(json.loads(x)["samples"] for x in lines if x.startswith('{"samples"'))
            assert all(s["reference_checked"] for s in samples), f"{label}: no reference gate"
            print(f"ok  {label}: {len(result['metrics'])} metrics, {result['attempted']} samples")


def test_perturbed_state_fails() -> None:
    for workload in ("blob-32", "cli-loop"):
        code, lines, err = bench("--workload", workload, "--seed", str(wl.DEFAULT_SEED),
                                 "--size", "tiny", "--perturb", "1e-6")
        result = json.loads(lines[-1])
        assert code == 1 and not result["correct"], f"{workload}: perturbed state passed"
        assert result["failed"] == result["attempted"], workload
        assert "reference:" in err, err
        print(f"ok  {workload}: perturbed final state fails the reference gate")


def test_tracer_fails_loudly() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import bulksurf.cli

    original = bulksurf.cli.write_summary_json
    del bulksurf.cli.write_summary_json
    try:
        Tracer().install()
    except TraceError as exc:
        print(f"ok  missing entry point: {exc}")
    else:
        raise AssertionError("install() accepted a missing entry point")
    finally:
        bulksurf.cli.write_summary_json = original
    try:
        Tracer().check_called("blob-32")
    except TraceError as exc:
        print(f"ok  entry point never entered: {str(exc)[:60]}...")
    else:
        raise AssertionError("check_called() accepted a trace with no spans")


def test_no_source_fails() -> None:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench("--workload", "blob-32", "--seed", "0", cwd=bare)
        assert code != 0 and not any(line.startswith('{"correct"') for line in lines), code
        print(f"ok  without src/ the benchmark exits {code} and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_every_metric_printed(spec)
    test_perturbed_state_fails()
    test_tracer_fails_loudly()
    test_no_source_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
