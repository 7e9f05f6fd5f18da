"""Batch front end: parse a run configuration, simulate, write machine-readable outputs.

Configuration files are flat ``key = value`` text with ``#`` comments; every
key has a documented default, so an empty file is a valid configuration.  See
the KEYS table below for the full key list with defaults and bounds.  Outputs
are deterministic: identical configurations produce bit-identical CSV files.

Exit codes: 0 on completion, 2 on configuration errors, 3 on solver
non-convergence (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, make_dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics, model, solver
from .mesh import EDGE_NAMES, FACE_AVERAGES, build_mesh

# (diagnostics.csv column, DiagnosticsRecord attribute), in column order
DIAGNOSTICS_COLUMNS = (
    ("t", "t"),
    ("mass", "mass"),
    ("entropy", "entropy"),
    ("entropy_L", "envelope_entropy"),
    ("u_env_max", "u_env_max"),
    ("v_env_max", "v_env_max"),
    ("u_env_min", "u_env_min"),
    ("v_env_min", "v_env_min"),
    ("reaction_diss", "reaction_dissipation"),
    ("diff_diss_bulk", "diffusion_dissipation_bulk"),
    ("diff_diss_surf", "diffusion_dissipation_surface"),
    ("clamp_activations", "clamp_activations"),
)
DIAGNOSTICS_HEADER = ",".join(column for column, _ in DIAGNOSTICS_COLUMNS)
OUTPUTS = ("diagnostics", "final_state", "summary")


@dataclass(frozen=True)
class MissingKey:
    key: str

    def __str__(self) -> str:
        return f"missing required key: {self.key}"


@dataclass(frozen=True)
class BadValue:
    key: str
    reason: str

    def __str__(self) -> str:
        return f"bad value for {self.key}: {self.reason}"


@dataclass(frozen=True)
class NonPositiveInitialData:
    detail: str

    def __str__(self) -> str:
        return f"initial data must be strictly positive: {self.detail}"


class ConfigError(ValueError):
    """Carries every violated constraint, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(str(p) for p in self.problems))


@dataclass(frozen=True)
class Key:
    """One configuration key: value type, default text and the bounds it must meet.

    type is int, float, str or tuple (a comma list).  gt, ge and le bound
    numbers; choices restricts a str, or every entry of a tuple, whose
    entries are called ``item`` in messages.  An optional key may be left
    empty, which means None.
    """

    type: type
    default: str
    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    choices: tuple[str, ...] | None = None
    item: str = ""
    nonempty: bool = False
    optional: bool = False

    def parse(self, name: str, text: str, problems: list):
        """The typed value of text; each violated bound appends a BadValue."""

        def bad(reason):
            problems.append(BadValue(name, reason))

        if self.optional and text == "":
            return None
        if self.type is tuple:
            items = tuple(s.strip() for s in text.split(",") if s.strip())
            if self.nonempty and not items:
                bad(f"must name at least one {self.item}")
            for item in items:
                if item not in self.choices:
                    bad(f"unknown {self.item} {item!r}")
            return items
        if self.type is str:
            if self.choices is not None and text not in self.choices:
                bad(f"must be one of {', '.join(self.choices)}")
            return text
        try:
            val = self.type(text)
        except ValueError:
            bad(f"not {'an integer' if self.type is int else 'a number'}: {text!r}")
            return self.ge if self.type is int else math.nan
        if not math.isfinite(val):
            bad("must be finite")
        elif self.gt is not None and not val > self.gt:
            bad(f"must be > {self.gt}")
        elif self.ge is not None and not val >= self.ge:
            bad(f"must be >= {self.ge}")
        elif self.le is not None and not val <= self.le:
            bad(f"must be <= {self.le}")
        return val


KEYS: dict[str, Key] = {
    # mesh
    "nx": Key(int, "16", ge=1),
    "ny": Key(int, "16", ge=1),
    "lx": Key(float, "1.0", gt=0.0),
    "ly": Key(float, "1.0", gt=0.0),
    "active_edges": Key(tuple, "bottom", choices=EDGE_NAMES, item="edge", nonempty=True),
    # kinetics
    "k": Key(float, "1.0", gt=0.0),
    "kappa": Key(float, "1.0", gt=0.0),
    "alpha": Key(float, "1.0", ge=1.0),
    "beta": Key(float, "1.0", ge=1.0),
    # diffusion laws
    "bulk_law": Key(str, "constant", choices=model.BULK_KINDS),
    "bulk_law_param": Key(float, "1.0"),
    "surface_law": Key(str, "constant", choices=model.SURFACE_KINDS),
    "surface_law_param": Key(float, "1.0"),
    # initial data
    "initial": Key(str, "constant", choices=("constant", "two-blob", "file")),
    "u0": Key(float, "1.0"),
    "v0": Key(float, "1.0"),
    "blob_base_u": Key(float, "1.2"),
    "blob_amplitude_1": Key(float, "0.5"),
    "blob_amplitude_2": Key(float, "0.5"),
    "blob_width": Key(float, "0.12"),
    "blob_x1": Key(float, "0.35"),
    "blob_y1": Key(float, "0.6"),
    "blob_x2": Key(float, "0.65"),
    "blob_y2": Key(float, "0.4"),
    "initial_u_file": Key(str, ""),
    "initial_v_file": Key(str, ""),
    # time controls
    "dt": Key(float, "1e-3", gt=0.0),
    "t_final": Key(float, "0.05", ge=0.0),
    "theta": Key(float, "1.0", ge=0.5, le=1.0),
    # tolerances
    "newton_tol": Key(float, "1e-12", gt=0.0),
    "newton_max_iter": Key(int, "25", ge=1),
    # clamp window (empty = derive from initial data)
    "clamp_lower": Key(float, "", gt=0.0, optional=True),
    "clamp_upper": Key(float, "", gt=0.0, optional=True),
    # scheme switches
    "face_average": Key(str, FACE_AVERAGES[0], choices=FACE_AVERAGES),
    # outputs
    "out_dir": Key(str, "out"),
    "output_every": Key(int, "1", ge=1),
    "outputs": Key(tuple, ",".join(OUTPUTS), choices=OUTPUTS, item="output"),
}

RunConfig = make_dataclass(
    "RunConfig",
    [(name, key.type | None if key.optional else key.type) for name, key in KEYS.items()],
    namespace={
        "__doc__": "Fully validated run description: one field per entry of KEYS.",
        "__module__": __name__,
    },
)


def read_key_values(entries, problems: list) -> dict[str, str]:
    """Stripped key and value of each (where, text) entry, split at its first '='.

    An entry without '=' or with an empty key appends a BadValue under where
    (a file line or --override) and is skipped; a later entry for a key wins.
    """
    raw: dict[str, str] = {}
    for where, text in entries:
        key, sep, value = text.partition("=")
        if not (sep and key.strip()):
            problems.append(BadValue(where, f"expected 'key = value', got {text!r}"))
            continue
        raw[key.strip()] = value.strip()
    return raw


def _cross_key_problems(cfg) -> list:
    """Violations of the rules that tie several keys together."""
    problems: list = []
    for law, param, name in (
        (cfg.bulk_law, cfg.bulk_law_param, "bulk_law_param"),
        (cfg.surface_law, cfg.surface_law_param, "surface_law_param"),
    ):
        if law == "constant" and not param > 0:
            problems.append(BadValue(name, "constant coefficient must be > 0"))
    if cfg.initial == "constant" and not (cfg.u0 > 0 and cfg.v0 > 0):
        problems.append(NonPositiveInitialData(f"u0={cfg.u0}, v0={cfg.v0}"))
    if cfg.initial == "two-blob":
        if not cfg.blob_base_u > 0:
            problems.append(NonPositiveInitialData(f"blob_base_u={cfg.blob_base_u}"))
        if not cfg.blob_width > 0:
            problems.append(BadValue("blob_width", "must be > 0"))
    if cfg.initial == "file":
        if not cfg.initial_u_file:
            problems.append(MissingKey("initial_u_file"))
        if not cfg.initial_v_file:
            problems.append(MissingKey("initial_v_file"))
    if (cfg.clamp_lower is None) != (cfg.clamp_upper is None):
        problems.append(BadValue("clamp_lower", "clamp_lower and clamp_upper must be given together"))
    elif cfg.clamp_lower is not None and cfg.clamp_lower > cfg.clamp_upper:
        problems.append(BadValue("clamp_upper", "must be >= clamp_lower"))
    return problems


def _validated(raw: dict[str, str], problems: list) -> RunConfig:
    problems += [BadValue(name, "unrecognized key") for name in raw if name not in KEYS]
    values = {}
    for name, key in KEYS.items():
        values[name] = key.parse(name, raw.get(name, key.default), problems)
    cfg = RunConfig(**values)
    problems += _cross_key_problems(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def parse_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    """Parse and validate a configuration file, applying 'key=value' overrides.

    '#' starts a comment in the file.  One ConfigError reports every problem.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError([MissingKey(f"config file {path}")])
    lines = [line.split("#", 1)[0].strip() for line in path.read_text().splitlines()]
    entries = [(f"line {n}", text) for n, text in enumerate(lines, start=1) if text]
    entries += [("--override", item) for item in overrides or []]
    problems: list = []
    return _validated(read_key_values(entries, problems), problems)


def _gaussian(cx, cy, x0, y0, width):
    return np.exp(-((cx - x0) ** 2 + (cy - y0) ** 2) / (2.0 * width**2))


def initial_state(cfg: RunConfig, mesh) -> solver.State:
    """Build the initial fields from the configured preset.

    two-blob places two Gaussian bumps on top of a reaction-balanced
    background (base_v is derived from base_u through the detailed-balance
    relation), clipped away from zero; file reads one value per line for the
    bulk (row-major) and surface cells.
    """
    if cfg.initial == "constant":
        u = np.full(mesh.n_bulk, cfg.u0)
        v = np.full(mesh.n_surface, cfg.v0)
    elif cfg.initial == "two-blob":
        base_u = cfg.blob_base_u
        try:  # not (base_u**alpha / kappa)**(1/beta), whose base_u**alpha may overflow
            base_v = base_u ** (cfg.alpha / cfg.beta) * cfg.kappa ** (-1.0 / cfg.beta)
        except OverflowError:
            base_v = math.inf
        if base_v == math.inf:
            reason = "the balanced v = (blob_base_u**alpha / kappa)**(1/beta) overflows in floats"
            raise ConfigError([BadValue("blob_base_u", reason)])
        width = cfg.blob_width * min(cfg.lx, cfg.ly)
        u = base_u + cfg.blob_amplitude_1 * _gaussian(
            mesh.cell_center_x, mesh.cell_center_y, cfg.blob_x1 * cfg.lx, cfg.blob_y1 * cfg.ly, width
        )
        u += cfg.blob_amplitude_2 * _gaussian(
            mesh.cell_center_x, mesh.cell_center_y, cfg.blob_x2 * cfg.lx, cfg.blob_y2 * cfg.ly, width
        )
        u = np.maximum(u, 1e-8 * base_u)
        v = np.full(mesh.n_surface, base_v)
    else:  # file
        loaded = []
        for key, size in (("initial_u_file", mesh.n_bulk), ("initial_v_file", mesh.n_surface)):
            try:
                values = np.loadtxt(getattr(cfg, key), dtype=float, ndmin=1)
            except (OSError, ValueError) as exc:
                raise ConfigError([BadValue(key, str(exc))]) from exc
            if values.size != size:
                raise ConfigError([BadValue(key, f"expected {size} values, got {values.size}")])
            if not np.all(np.isfinite(values)):
                raise ConfigError([BadValue(key, "values must be finite")])
            if np.min(values) <= 0:
                raise ConfigError([NonPositiveInitialData(f"{key}: values must be > 0")])
            loaded.append(values)
        u, v = loaded
    return solver.State(t=0.0, u=u, v=v)


def build_problem(cfg: RunConfig):
    """Assemble mesh, kinetics, laws, initial state, equilibrium and window; check the laws."""
    mesh = build_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly, cfg.active_edges, cfg.face_average)
    kin = model.Kinetics(k=cfg.k, kappa=cfg.kappa, alpha=cfg.alpha, beta=cfg.beta)
    bulk_law = model.DiffusionLaw(cfg.bulk_law, cfg.bulk_law_param)
    surf_law = model.DiffusionLaw(cfg.surface_law, cfg.surface_law_param)

    state = initial_state(cfg, mesh)
    mass = diagnostics.weighted_mass(state, mesh, kin)
    eq = model.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = model.window_from_initial_data(state.u, state.v, eq, kin)
    if cfg.clamp_lower is not None:
        window = replace(window, lower=cfg.clamp_lower, upper=cfg.clamp_upper)
    model.check_laws(bulk_law, surf_law, window)
    # every StepConfig field is the configuration key of the same name
    step_fields = fields(solver.StepConfig)
    step_cfg = solver.StepConfig(**{f.name: getattr(cfg, f.name) for f in step_fields})
    return mesh, kin, bulk_law, surf_law, state, eq, window, step_cfg


def _fmt(x: float) -> str:
    """17 significant digits; a count (an int below 10**17) prints as its plain digits."""
    return f"{x:.17g}"


def write_diagnostics_csv(records, path: Path, output_every: int = 1) -> None:
    """Diagnostics series, one row per retained record (the last is always kept)."""
    keep = list(records[::output_every])
    if records and records[-1] is not keep[-1]:
        keep.append(records[-1])
    lines = [DIAGNOSTICS_HEADER]
    for rec in keep:
        lines.append(",".join(_fmt(getattr(rec, attr)) for _, attr in DIAGNOSTICS_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def write_final_state_csv(state, mesh, path: Path) -> None:
    """Per-cell values with coordinates: bulk field u rows, then surface field v."""
    lines = ["field,index,x,y,value"]
    for name, values, xs, ys in (
        ("u", state.u, mesh.cell_center_x, mesh.cell_center_y),
        ("v", state.v, mesh.surf_center_x, mesh.surf_center_y),
    ):
        lines += [
            f"{name},{i},{_fmt(x)},{_fmt(y)},{_fmt(value)}"
            for i, (x, y, value) in enumerate(zip(xs, ys, values))
        ]
    path.write_text("\n".join(lines) + "\n")


def write_summary_json(path: Path, eq, state, records, wall_time: float, completed: bool) -> None:
    sup = max(
        float(np.max(np.abs(state.u - eq.u_star))),
        float(np.max(np.abs(state.v - eq.v_star))),
    )
    payload = {
        "u_star": eq.u_star,
        "v_star": eq.v_star,
        "mass": eq.mass,
        "steps": max(len(records) - 1, 0),
        "final_time": state.t,
        "final_sup_distance": sup,
        "wall_time_seconds": wall_time,
        "completed": completed,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_outputs(cfg, out_dir, mesh, eq, state, records, wall_time, completed, quiet):
    written = []
    if "diagnostics" in cfg.outputs:
        p = out_dir / "diagnostics.csv"
        write_diagnostics_csv(records, p, cfg.output_every)
        written.append(p)
    if "final_state" in cfg.outputs:
        p = out_dir / "final_state.csv"
        write_final_state_csv(state, mesh, p)
        written.append(p)
    if "summary" in cfg.outputs:
        p = out_dir / "summary.json"
        write_summary_json(p, eq, state, records, wall_time, completed)
        written.append(p)
    if not quiet:
        for p in written:
            print(f"wrote {p}")


def main(argv: list[str] | None = None) -> int:
    """Entry point: returns 0 on success, 2 on config errors, 3 on solver failure."""
    parser = argparse.ArgumentParser(
        prog="bulksurf",
        description="Finite-volume simulation of coupled bulk-surface reaction-diffusion.",
    )
    parser.add_argument("--config", required=True, help="path to a key = value run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides out_dir)")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        cfg = parse_config(args.config, args.override)
        mesh, kin, bulk_law, surf_law, state, eq, window, step_cfg = build_problem(cfg)
        solver.check_clock(state.t, cfg.t_final, step_cfg.dt)  # run's own check, before the loop
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        try:  # before the run, so that an unusable directory loses no solve
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError([BadValue("out_dir", str(exc))]) from exc
    except ValueError as exc:  # ConfigError included
        for problem in exc.problems if isinstance(exc, ConfigError) else [exc]:
            print(f"config error: {problem}", file=sys.stderr)
        return 2

    if not args.quiet:
        print(
            f"mesh {cfg.nx}x{cfg.ny}, {mesh.n_surface} surface cells on "
            f"{'+'.join(cfg.active_edges)}; equilibrium (u*, v*) = "
            f"({eq.u_star:.6g}, {eq.v_star:.6g}), mass {eq.mass:.6g}"
        )
    started = time.perf_counter()
    try:  # data whose rate overflows fail as a NaN residual, reported below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            final, records = solver.run(
                state, cfg.t_final, mesh, kin, eq, bulk_law, surf_law, window, step_cfg
            )
        completed = True
    except solver.NonConvergence as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        final, records, completed = exc.last_state, exc.records, False
    wall = time.perf_counter() - started
    _write_outputs(cfg, out_dir, mesh, eq, final, records, wall, completed, args.quiet)
    if not completed:
        return 3
    if not args.quiet:
        print(f"completed {len(records) - 1} steps to t = {final.t:.6g} in {wall:.2f} s")
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
