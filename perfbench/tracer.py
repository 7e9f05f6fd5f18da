"""Spans around the public functions each bulksurf layer is entered through.

The tracer replaces module attributes with timing wrappers; nothing inside
the package changes.  Every wrapped call records a span (name, start, end,
parent) in memory, and the layer metrics are computed from those spans when
the solution has finished.  A layer's self time is its span's duration minus
the durations of its direct child spans.

Installing fails loudly when an entry point is missing, and ``check_called``
fails when a workload never entered one it must enter, so a refactor that
renames or bypasses an entry point cannot silently report zeros.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class TraceError(RuntimeError):
    """An entry point is missing or was never called."""


# (span name, module the caller looks the name up in, attribute).  The model
# functions are wrapped only as bound in bulksurf.solver, so the calls the
# diagnostics layer makes to the same functions are not counted as solver work.
ENTRIES = (
    ("solver.step", "bulksurf.solver", "step"),
    ("model.safe_rate", "bulksurf.solver", "safe_rate"),
    ("model.diffusion_coefficient", "bulksurf.solver", "diffusion_coefficient"),
    ("model.coefficient_and_derivatives", "bulksurf.solver", "coefficient_and_derivatives"),
    ("superlu.splu", "scipy.sparse.linalg", "splu"),
    ("diagnostics.record", "bulksurf.diagnostics", "record"),
    ("mesh.build_mesh", "bulksurf.mesh", "build_mesh"),
    ("model.solve_equilibrium", "bulksurf.model", "solve_equilibrium"),
    ("cli.parse_config", "bulksurf.cli", "parse_config"),
    ("cli.build_problem", "bulksurf.cli", "build_problem"),
    ("cli.write_diagnostics_csv", "bulksurf.cli", "write_diagnostics_csv"),
    ("cli.write_final_state_csv", "bulksurf.cli", "write_final_state_csv"),
    ("cli.write_summary_json", "bulksurf.cli", "write_summary_json"),
)

# The solve of the factor object that the splu wrapper returns.
SOLVE = "superlu.solve"

CLI_SPANS = tuple(name for name, module, _ in ENTRIES if module == "bulksurf.cli")
CORE_SPANS = tuple(name for name, _, _ in ENTRIES if name not in CLI_SPANS) + (SOLVE,)


def required_spans(workload: str) -> tuple[str, ...]:
    """Spans a workload must record at least once."""
    return CORE_SPANS + (CLI_SPANS if workload == "cli-loop" else ())


class _Factor:
    """Stands in for a SuperLU object, whose attributes cannot be replaced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[int] = []
        self.last_factor = None

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, open_[-1] if open_ else -1))
            open_.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, spans[index][3])

        return traced

    def install(self) -> None:
        """Wrap every entry point; raise TraceError if one is missing."""
        found = []
        for name, module_name, attr in ENTRIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceError(f"entry point {module_name}.{attr} is missing")
            found.append((name, module_name, module, attr, original))
        for name, module_name, module, attr, original in found:
            traced = self._splu(original) if name == "superlu.splu" else self._wrap(name, original)
            setattr(module, attr, traced)
            # A function called from its home module may also have been
            # imported by name into other bulksurf modules (cli imports
            # build_mesh); wrap those bindings too.
            if getattr(original, "__module__", None) == module_name:
                for other_name, other in list(sys.modules.items()):
                    if other_name.startswith("bulksurf") and other is not module:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, traced)

    def _splu(self, splu):
        traced_splu = self._wrap("superlu.splu", splu)

        def factor(*args, **kwargs):
            lu = traced_splu(*args, **kwargs)
            self.last_factor = lu
            return _Factor(lu, self._wrap(SOLVE, lu.solve))

        return functools.wraps(splu)(factor)

    def check_called(self, workload: str) -> None:
        called = {name for name, _, _, _ in self.spans}
        missing = [name for name in required_spans(workload) if name not in called]
        if missing:
            raise TraceError(f"{workload} never entered: {', '.join(missing)}")

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total seconds and self seconds."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            d = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            self_time[name] = self_time.get(name, 0.0) + d
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - d
        return calls, total, self_time

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def lu_nnz(self) -> int:
        """Computed L+U nonzero count of the last factorization."""
        if self.last_factor is None:
            return 0
        return int(self.last_factor.L.nnz + self.last_factor.U.nnz)
