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
from dataclasses import dataclass, fields, make_dataclass
from pathlib import Path

import numpy as np

from . import diagnostics, model, solver
from .mesh import EDGE_NAMES, FACE_AVERAGES, build_mesh

# the columns of diagnostics.csv: DiagnosticsRecord's fields in order, four of them renamed
DIAGNOSTICS_HEADER = (
    "t,mass,entropy,entropy_L,u_env_max,v_env_max,u_env_min,v_env_min,"
    "reaction_diss,diff_diss_bulk,diff_diss_surf,clamp_activations"
)
_STATE_HEADER = "field,index,x,y,value"  # then the rows of _cells, each with its value


@dataclass(frozen=True)
class BadValue:
    """One configuration problem and the key it is reported under."""

    key: str  # a config key, several joined by ', ', --config, --out, --override or 'line N'
    reason: str

    def __str__(self) -> str:
        return f"bad value for {self.key}: {self.reason}"


class ConfigError(ValueError):
    """Carries every violated constraint, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(str(p) for p in self.problems))


def _keyed(key: str, check, *args, **kwargs):
    """check(*args, **kwargs), an OSError or ValueError it raises reported as a BadValue for key."""
    try:
        return check(*args, **kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError([BadValue(key, str(exc))]) from exc


@dataclass(frozen=True)
class Key:
    """One configuration key: value type, default text and the bounds it must meet.

    type is int, float, str or tuple (a comma list of at least one entry).
    gt, ge and le bound numbers; choices restricts a str, or every entry of
    a tuple, whose entries are called ``item`` in messages.
    """

    type: type
    default: str
    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    choices: tuple[str, ...] | None = None
    item: str = ""

    def parse(self, name: str, text: str, problems: list):
        """The typed value of text; each violated bound appends a BadValue."""

        def bad(reason):
            problems.append(BadValue(name, reason))

        if self.type is tuple:
            items = tuple(s.strip() for s in text.split(",") if s.strip())
            if not items:
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
    "active_edges": Key(tuple, "bottom", choices=EDGE_NAMES, item="edge"),
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
    "initial_file": Key(str, ""),
    # time controls
    "dt": Key(float, "1e-3", gt=0.0),
    "t_final": Key(float, "0.05", ge=0.0),
    "theta": Key(float, "1.0", ge=0.5, le=1.0),
    # tolerances
    "newton_tol": Key(float, "1e-12", gt=0.0),
    "newton_max_iter": Key(int, "25", ge=1),
    # scheme switches
    "face_average": Key(str, FACE_AVERAGES[0], choices=FACE_AVERAGES),
}

RunConfig = make_dataclass(
    "RunConfig",
    [(name, key.type) for name, key in KEYS.items()],
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
    positive = {"constant": ("u0", "v0"), "two-blob": ("blob_base_u", "blob_width")}
    for name in positive.get(cfg.initial, ()):
        if not getattr(cfg, name) > 0:
            problems.append(BadValue(name, "must be > 0"))
    if cfg.initial == "file" and not cfg.initial_file:
        problems.append(BadValue("initial_file", "a path is required"))
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
    text = _keyed("--config", Path(path).read_text)
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    entries = [(f"line {n}", text) for n, text in enumerate(lines, start=1) if text]
    entries += [("--override", item) for item in overrides or []]
    problems: list = []
    return _validated(read_key_values(entries, problems), problems)


def _gaussian(cx, cy, x0, y0, width):
    return np.exp(-((cx - x0) ** 2 + (cy - y0) ** 2) / (2.0 * width**2))


def initial_state(cfg: RunConfig, mesh) -> solver.State:
    """Build the initial fields from the configured preset.

    two-blob places two Gaussian bumps, clipped away from zero, on a
    reaction-balanced background whose float64 base_v (base_u's by detailed
    balance) is a ConfigError where it overflows; file reads a final_state.csv of this mesh.
    """
    if cfg.initial == "constant":
        u = np.full(mesh.n_bulk, cfg.u0)
        v = np.full(mesh.n_surface, cfg.v0)
    elif cfg.initial == "two-blob":
        base_u = cfg.blob_base_u
        # not (base_u**alpha / kappa)**(1/beta), whose base_u**alpha may overflow
        base_v = np.float64(base_u) ** (cfg.alpha / cfg.beta) * np.float64(cfg.kappa) ** (-1.0 / cfg.beta)
        if not base_v < math.inf:  # inf, or nan where 0 * inf
            reason = "the balanced v = (blob_base_u**alpha / kappa)**(1/beta) overflows in floats"
            raise ConfigError([BadValue("blob_base_u", reason)])
        width = cfg.blob_width * min(cfg.lx, cfg.ly)
        if not 0.0 < 2.0 * width * width < math.inf:
            reason = "2*(blob_width*min(lx, ly))**2 is 0 or inf in floats"
            raise ConfigError([BadValue("blob_width", reason)])
        cx, cy, u = mesh.cell_center_x, mesh.cell_center_y, np.full(mesh.n_bulk, base_u)
        for a, x, y in ((cfg.blob_amplitude_1, cfg.blob_x1, cfg.blob_y1),
                        (cfg.blob_amplitude_2, cfg.blob_x2, cfg.blob_y2)):
            u += a * _gaussian(cx, cy, x * cfg.lx, y * cfg.ly, width)  # a bump out of float reach adds 0
        if not np.all(u < math.inf):
            raise ConfigError([BadValue("initial", "the two-blob u overflows in floats")])
        u = np.maximum(u, 1e-8 * base_u)
        v = np.full(mesh.n_surface, base_v)
    else:  # file: the rows of _cells, each with its value, as write_final_state_csv writes them
        cells = _cells(mesh)
        try:
            lines = Path(cfg.initial_file).read_text().splitlines()
            if lines[:1] != [_STATE_HEADER] or len(lines) != 1 + len(cells):
                raise ValueError(f"expected the header {_STATE_HEADER} and {len(cells)} rows, one per cell")
            rows = [line.split(",") for line in lines[1:]]
            for n, (row, (name, *place)) in enumerate(zip(rows, cells), start=2):
                if len(row) != 5 or row[0] != name or [float(c) for c in row[1:4]] != place:
                    raise ValueError(f"line {n} is not the row of {name} cell {place[0]} on this mesh")
            values = np.array([float(row[4]) for row in rows])
        except (OSError, ValueError) as exc:  # UnicodeDecodeError and float() included
            raise ConfigError([BadValue("initial_file", str(exc))]) from exc
        if not np.all((values > 0) & (values < math.inf)):
            raise ConfigError([BadValue("initial_file", "values must be finite and > 0")])
        u, v = np.split(values, [mesh.n_bulk])
    return solver.State(t=0.0, u=u, v=v)


@np.errstate(over="ignore", invalid="ignore")
def build_problem(cfg: RunConfig):
    """Assemble mesh, kinetics, laws, initial state, equilibrium and window; check the laws.

    The window is always the envelope of the initial data, the one the
    paper's L-infinity bound keeps the solution inside.  numpy's overflow and
    invalid warnings are off: a value that leaves the floats fails the check that reads it.
    """
    mesh = _keyed("nx, ny, lx, ly", build_mesh,
                  cfg.nx, cfg.ny, cfg.lx, cfg.ly, cfg.active_edges, cfg.face_average)
    kin = model.Kinetics(k=cfg.k, kappa=cfg.kappa, alpha=cfg.alpha, beta=cfg.beta)
    bulk_law = model.DiffusionLaw(cfg.bulk_law, cfg.bulk_law_param)
    surf_law = model.DiffusionLaw(cfg.surface_law, cfg.surface_law_param)

    state = initial_state(cfg, mesh)
    mass = diagnostics.weighted_mass(state, mesh, kin)
    eq = _keyed("initial", model.solve_equilibrium, kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = _keyed("initial", model.window_from_initial_data, state.u, state.v, eq, kin)
    _keyed("bulk_law", model.check_law, bulk_law, window, False)
    _keyed("surface_law", model.check_law, surf_law, window, True)
    # every StepConfig field is the configuration key of the same name
    step_fields = fields(solver.StepConfig)
    step_cfg = solver.StepConfig(**{f.name: getattr(cfg, f.name) for f in step_fields})
    return mesh, kin, bulk_law, surf_law, state, eq, window, step_cfg


def _fmt(x: float) -> str:
    """17 significant digits; a count (an int below 10**17) prints as its plain digits."""
    return f"{x:.17g}"


def write_diagnostics_csv(records, path: Path) -> None:
    """Diagnostics series, one row per record: its fields in order under DIAGNOSTICS_HEADER."""
    lines = [DIAGNOSTICS_HEADER]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, f.name)) for f in fields(rec)))
    path.write_text("\n".join(lines) + "\n")


def _cells(mesh) -> list:
    """(field, index, x, y) of each final_state.csv row: bulk u cells, then surface v cells."""
    u = [("u", i, x, y) for i, (x, y) in enumerate(zip(mesh.cell_center_x, mesh.cell_center_y))]
    return u + [("v", i, x, y) for i, (x, y) in enumerate(zip(mesh.surf_center_x, mesh.surf_center_y))]


def write_final_state_csv(state, mesh, path: Path) -> None:
    """Each row of _cells with its value, under _STATE_HEADER: what initial = file reads."""
    values = np.concatenate([state.u, state.v])
    rows = [f"{name},{i},{_fmt(x)},{_fmt(y)},{_fmt(val)}" for (name, i, x, y), val in zip(_cells(mesh), values)]
    path.write_text("\n".join([_STATE_HEADER, *rows]) + "\n")


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


def _write_outputs(out_dir, mesh, eq, state, records, wall_time, completed, quiet):
    written = [out_dir / name for name in ("diagnostics.csv", "final_state.csv", "summary.json")]
    write_diagnostics_csv(records, written[0])
    write_final_state_csv(state, mesh, written[1])
    write_summary_json(written[2], eq, state, records, wall_time, completed)
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
    parser.add_argument("--out", default="out", help="output directory (default: out)")
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
        _keyed("dt", solver.check_clock, state.t, cfg.t_final, step_cfg.dt)  # run's check, before the loop
        out_dir = Path(args.out)  # made before the run, so that an unusable directory loses no solve
        _keyed("--out", out_dir.mkdir, parents=True, exist_ok=True)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2

    if not args.quiet:
        print(
            f"mesh {cfg.nx}x{cfg.ny}, {mesh.n_surface} surface cells on "
            f"{'+'.join(cfg.active_edges)}; equilibrium (u*, v*) = "
            f"({eq.u_star:.6g}, {eq.v_star:.6g}), mass {eq.mass:.6g}"
        )
    started = time.perf_counter()
    try:
        final, records = solver.run(state, cfg.t_final, mesh, kin, eq, bulk_law, surf_law, window, step_cfg)
        completed = True
    except solver.NonConvergence as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        final, records, completed = exc.last_state, exc.records, False
    wall = time.perf_counter() - started
    _write_outputs(out_dir, mesh, eq, final, records, wall, completed, args.quiet)
    if not completed:
        return 3
    if not args.quiet:
        print(f"completed {len(records) - 1} steps to t = {final.t:.6g} in {wall:.2f} s")
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
