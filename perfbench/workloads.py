"""Seeded inputs for the three benchmark workloads.

All three workloads are the two-blob problem of the acceptance suite: two
Gaussian bumps in u on a reaction-balanced background (kappa = 0.5,
alpha = 2, beta = 1, power law with gamma = 1 in the bulk, the
surface_cross law on the surface).  The seed moves each blob centre by up to
+-0.03 of the side and scales each amplitude by a factor in [0.9, 1.1].  Any
seed is valid: across that range the clamp stays inert, the upper envelope
holds and the entropy decays, so every gate passes on a correct solver.

* ``blob-32``: the acceptance reference run (32x32, bottom edge, backward
  Euler, dt = 1e-3 of the diffusion time, Newton tolerance 1e-13) through
  ``bulksurf.run``.  Many cheap steps, each with one small LU and one
  diagnostics record, so LU reuse and per-call overhead show here.
* ``blob-256``: the same problem on a 256x256 grid for two steps.
  Factorization, triangular solves, Jacobian assembly and L+U memory
  dominate; the diagnostics record is negligible.
* ``cli-loop``: the README example configuration run through
  ``bulksurf.cli.main`` with all three outputs, on all four edges, with the
  trapezoidal rule (theta = 0.5) and harmonic face averages: the user path
  and the solver branches the blob runs skip.

The horizons are cut to a few hundred steps so that one run of the
benchmark measures several whole solutions and reports their median.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("blob-32", "blob-256", "cli-loop")

# Shared physics of every workload.
KAPPA, ALPHA, BETA = 0.5, 2.0, 1.0
BASE_U = 1.2
BLOB_WIDTH = 0.12
BLOB_CENTRES = (0.35, 0.6, 0.65, 0.4)  # x1, y1, x2, y2 as fractions of the sides
CENTRE_SHIFT = 0.03
AMPLITUDE_SCALE = (0.9, 1.1)

# cli-loop: the README example config plus the switches it adds.
CLI_DT = 4e-4
CLI_EXTRA = {
    "active_edges": "bottom,right,top,left",
    "theta": "0.5",
    "face_average": "harmonic",
}


@dataclass(frozen=True)
class Size:
    """Grid cells per side and number of time steps of one solution."""

    n: int
    steps: int


# "tiny" runs the same code paths in well under a second; the self-test uses it.
SIZES = {
    "blob-32": {"full": Size(32, 300), "tiny": Size(8, 4)},
    "blob-256": {"full": Size(256, 2), "tiny": Size(16, 1)},
    "cli-loop": {"full": Size(32, 300), "tiny": Size(8, 4)},
}

BASE_AMPLITUDES = {
    "blob-32": (0.6, 0.45),  # tests/test_acceptance.py blob_problem
    "blob-256": (0.6, 0.45),
    "cli-loop": (0.5, 0.5),  # README defaults blob_amplitude_1/2
}


@dataclass(frozen=True)
class Blobs:
    x1: float
    y1: float
    x2: float
    y2: float
    amplitude_1: float
    amplitude_2: float


def blobs(workload: str, seed: int) -> Blobs:
    """Blob centres and amplitudes of one workload, drawn from the seed."""
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-CENTRE_SHIFT, CENTRE_SHIFT, size=4)
    scale = rng.uniform(*AMPLITUDE_SCALE, size=2)
    x1, y1, x2, y2 = (c + s for c, s in zip(BLOB_CENTRES, shift))
    a1, a2 = BASE_AMPLITUDES[workload]
    return Blobs(*(float(x) for x in (x1, y1, x2, y2, a1 * scale[0], a2 * scale[1])))


def blob_initial_u(b: Blobs, cell_x: np.ndarray, cell_y: np.ndarray) -> np.ndarray:
    """Bulk initial data on the unit square from the cell centres."""

    def bump(x0, y0):
        return np.exp(-((cell_x - x0) ** 2 + (cell_y - y0) ** 2) / (2.0 * BLOB_WIDTH**2))

    return BASE_U + b.amplitude_1 * bump(b.x1, b.y1) + b.amplitude_2 * bump(b.x2, b.y2)


def balanced_v() -> float:
    """Surface background in detailed balance with BASE_U."""
    return (BASE_U**ALPHA / KAPPA) ** (1.0 / BETA)


def cli_config(seed: int, size: Size) -> str:
    """Text of the cli-loop configuration file."""
    b = blobs("cli-loop", seed)
    keys = {
        "nx": size.n,
        "ny": size.n,
        "alpha": ALPHA,
        "beta": BETA,
        "kappa": KAPPA,
        "bulk_law": "power",
        "bulk_law_param": 1.0,
        "surface_law": "surface_cross",
        "initial": "two-blob",
        "dt": CLI_DT,
        "t_final": size.steps * CLI_DT,
        **CLI_EXTRA,
        "blob_base_u": BASE_U,
        "blob_width": BLOB_WIDTH,
        "blob_x1": b.x1,
        "blob_y1": b.y1,
        "blob_x2": b.x2,
        "blob_y2": b.y2,
        "blob_amplitude_1": b.amplitude_1,
        "blob_amplitude_2": b.amplitude_2,
    }
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in keys.items())
