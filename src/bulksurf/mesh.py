"""Finite-volume grid for a rectangle coupled to a surface mesh on part of its boundary.

The bulk domain is an axis-aligned rectangle split into ``nx * ny`` uniform
control volumes.  The active surface is a union of whole rectangle edges; each
boundary face of a bulk cell lying on an active edge becomes one surface
control volume.  Surface cells are ordered along the counterclockwise boundary
cycle (bottom, right, top, left), so that cells on adjacent active edges form
a single connected 1D chain joined at the shared corner.  Chain endpoints have
no neighbor, which realizes the zero-flux condition there; with all four edges
active the chain closes into a loop.

The two-point face operator (face flux, net inflow per unit cell measure and
its Jacobian block) lives here beside FaceSet, below both the time stepper
and the entropy diagnostics, which pair the flux with potential differences.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

EDGE_NAMES = ("bottom", "right", "top", "left")

# Face averages by name: (face value mu_f of the cell coefficients a and b,
# its partial weights (d mu_f / d a, d mu_f / d b)).
_FACE_AVERAGES = {
    "arithmetic": (lambda a, b: 0.5 * (a + b), lambda a, b: (0.5, 0.5)),
    "harmonic": (
        lambda a, b: 2.0 * a * b / (a + b),
        lambda a, b: (2.0 * b**2 / (a + b) ** 2, 2.0 * a**2 / (a + b) ** 2),
    ),
}
FACE_AVERAGES = tuple(_FACE_AVERAGES)


def is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True, eq=False)
class FaceSet:
    """Two-point-flux faces as parallel arrays, plus the cells they join.

    Face f joins cells ``cell_a[f]`` and ``cell_b[f]`` whose centers lie
    ``distance[f]`` apart; its transmissibility ``trans[f]`` is
    |face|/distance (1/distance on the 1D surface chain).  ``measure[i]`` is
    the measure of cell i (area in the bulk, length on the chain).
    """

    cell_a: np.ndarray
    cell_b: np.ndarray
    distance: np.ndarray
    trans: np.ndarray
    measure: np.ndarray

    def __len__(self) -> int:
        return int(self.cell_a.size)


def face_flux(faces: FaceSet, x, mu, face_average: str) -> np.ndarray:
    """Two-point flux mu_f * (x_b - x_a) * trans on every face of a face set.

    mu holds the cell coefficients; mu_f combines the two sides of a face.
    """
    if face_average not in _FACE_AVERAGES:
        raise ValueError(f"unknown face average {face_average!r}")
    a, b = faces.cell_a, faces.cell_b
    mean, _ = _FACE_AVERAGES[face_average]
    return mean(mu[a], mu[b]) * (x[b] - x[a]) * faces.trans


def face_divergence(faces: FaceSet, x, mu, face_average: str) -> np.ndarray:
    """Net two-point-flux inflow per unit cell measure; its measure-weighted sum is zero."""
    flux = face_flux(faces, x, mu, face_average)
    div = np.bincount(faces.cell_a, weights=flux, minlength=faces.measure.size)
    div -= np.bincount(faces.cell_b, weights=flux, minlength=faces.measure.size)
    return div / faces.measure


def face_block(faces: FaceSet, x, offset: int, mu, dmu_x, face_average, dmu_y=None, y_cols=None):
    """COO triplets (rows, cols, vals) of the Jacobian of one face divergence.

    The flux phi = trans * mu_f * (x_b - x_a) of a face enters the rate of
    cell a as +phi/|a| and that of cell b as -phi/|b|.  x is the diffused
    field, stored at state index offset + cell; mu and dmu_x are the cell
    coefficients and their derivatives along x.  A cross coefficient also
    depends on a second field y, with derivatives dmu_y and state indices
    y_cols[cell].
    """
    a, b = faces.cell_a, faces.cell_b
    mu_a, mu_b = mu[a], mu[b]
    mean, weights = _FACE_AVERAGES[face_average]
    mu_f = mean(mu_a, mu_b)
    w_a, w_b = weights(mu_a, mu_b)
    g = faces.trans
    dlt = x[b] - x[a]
    cols = [offset + a, offset + b]
    dphi = [g * (w_a * dmu_x[a] * dlt - mu_f), g * (w_b * dmu_x[b] * dlt + mu_f)]
    if dmu_y is not None:
        cols += [y_cols[a], y_cols[b]]
        dphi += [g * w_a * dmu_y[a] * dlt, g * w_b * dmu_y[b] * dlt]
    inv_a, inv_b = 1.0 / faces.measure[a], 1.0 / faces.measure[b]
    rows = [offset + a] * len(cols) + [offset + b] * len(cols)
    return rows, cols + cols, [d * inv_a for d in dphi] + [-d * inv_b for d in dphi]


@dataclass(frozen=True, eq=False)
class CoupledMesh:
    """Immutable bulk grid plus surface chain and the trace map between them.

    Bulk cells are indexed row-major: cell ``(ix, iy)`` has index
    ``iy * nx + ix`` and center ``((ix + 0.5) * dx, (iy + 0.5) * dy)``.
    ``surf_to_bulk[j]`` is the bulk cell whose boundary face hosts surface
    cell ``j``; a corner bulk cell may host two surface cells when both of
    its boundary edges are active.
    """

    nx: int
    ny: int
    lx: float
    ly: float
    active_edges: tuple[str, ...]
    dx: float
    dy: float
    cell_volume: float
    total_bulk_measure: float
    total_surface_measure: float
    n_bulk: int
    n_surface: int
    surf_length: np.ndarray = field(repr=False)
    surf_to_bulk: np.ndarray = field(repr=False)
    surf_center_x: np.ndarray = field(repr=False)
    surf_center_y: np.ndarray = field(repr=False)
    surf_edge: tuple[str, ...] = field(repr=False)
    cell_center_x: np.ndarray = field(repr=False)
    cell_center_y: np.ndarray = field(repr=False)
    # the two face sets of the diffusion operator
    bulk_faces: FaceSet = field(repr=False)  # interior faces of the grid
    surf_faces: FaceSet = field(repr=False)  # links between chain-adjacent surface cells


def check_sizes(state, mesh: CoupledMesh) -> None:
    """Reject a state whose u and v do not hold one entry per bulk and per surface cell."""
    if state.u.size != mesh.n_bulk or state.v.size != mesh.n_surface:
        raise ValueError(
            f"state sizes ({state.u.size}, {state.v.size}) do not match mesh "
            f"({mesh.n_bulk}, {mesh.n_surface})"
        )


def _boundary_cycle(nx: int, ny: int) -> list[tuple[str, int]]:
    """All boundary faces in counterclockwise cycle order as (edge, along-index)."""
    cycle: list[tuple[str, int]] = []
    cycle += [("bottom", ix) for ix in range(nx)]
    cycle += [("right", iy) for iy in range(ny)]
    cycle += [("top", t) for t in range(nx)]   # traversed right-to-left
    cycle += [("left", t) for t in range(ny)]  # traversed top-to-bottom
    return cycle


def _face_geometry(edge: str, t: int, nx: int, ny: int, dx: float, dy: float):
    """Bulk cell index, face length and face-center coordinates of one boundary face."""
    if edge == "bottom":
        ix, iy = t, 0
        length, cx, cy = dx, (ix + 0.5) * dx, 0.0
    elif edge == "right":
        ix, iy = nx - 1, t
        length, cx, cy = dy, nx * dx, (iy + 0.5) * dy
    elif edge == "top":
        ix, iy = nx - 1 - t, ny - 1
        length, cx, cy = dx, (ix + 0.5) * dx, ny * dy
    elif edge == "left":
        ix, iy = 0, ny - 1 - t
        length, cx, cy = dy, 0.0, (iy + 0.5) * dy
    else:  # pragma: no cover - guarded by build_mesh validation
        raise ValueError(f"unknown edge {edge!r}")
    return iy * nx + ix, length, cx, cy


def build_mesh(
    nx: int,
    ny: int,
    lx: float,
    ly: float,
    active_edges,
) -> CoupledMesh:
    """Build the coupled bulk/surface mesh.

    Parameters
    ----------
    nx, ny : int
        Cell counts per axis, both integers >= 1 (not bool).
    lx, ly : float
        Rectangle side lengths, both > 0.
    active_edges : iterable of str
        Nonempty subset of {"bottom", "right", "top", "left"} forming the
        active surface.
    """
    if not (is_int(nx) and is_int(ny) and nx >= 1 and ny >= 1):
        raise ValueError(f"cell counts must be integers >= 1, got nx={nx!r}, ny={ny!r}")
    if not (np.isfinite(lx) and np.isfinite(ly) and lx > 0 and ly > 0):
        raise ValueError(f"side lengths must be positive and finite, got lx={lx}, ly={ly}")
    edges = set(active_edges)
    if not edges:
        raise ValueError("active_edges must contain at least one edge")
    unknown = edges - set(EDGE_NAMES)
    if unknown:
        raise ValueError(f"unknown edge names: {sorted(unknown)}")

    dx = lx / nx
    dy = ly / ny
    n_bulk = nx * ny

    # Surface cells in boundary-cycle order; chain faces join cycle-adjacent
    # active positions, wrapping only when the whole boundary is active.
    cycle = _boundary_cycle(nx, ny)
    active = np.array([edge in edges for edge, _ in cycle])
    positions = np.flatnonzero(active)
    surf_index = np.cumsum(active) - 1  # surface cell of each active cycle position

    geometry = [_face_geometry(*cycle[p], nx, ny, dx, dy) for p in positions]
    surf_to_bulk, surf_length, surf_cx, surf_cy = (np.array(column) for column in zip(*geometry))

    # Cyclic adjacency: position p borders (p + 1) mod n_cycle, so edges that
    # meet at a corner (including across the cycle seam at the origin) chain up.
    following = (positions + 1) % len(cycle)
    linked = active[following]
    chain_a = surf_index[positions[linked]]
    chain_b = surf_index[following[linked]]
    chain_dist = 0.5 * (surf_length[chain_a] + surf_length[chain_b])

    # Interior bulk faces: horizontal-neighbor pairs share a face of length dy
    # at distance dx, vertical-neighbor pairs a face of length dx at distance dy.
    ii = np.arange(n_bulk).reshape(ny, nx)
    h, v = ii[:, :-1].size, ii[:-1, :].size
    bulk_faces = FaceSet(
        cell_a=np.concatenate([ii[:, :-1].ravel(), ii[:-1, :].ravel()]),
        cell_b=np.concatenate([ii[:, 1:].ravel(), ii[1:, :].ravel()]),
        distance=np.concatenate([np.full(h, dx), np.full(v, dy)]),
        trans=np.concatenate([np.full(h, dy / dx), np.full(v, dx / dy)]),
        measure=np.full(n_bulk, dx * dy),
    )
    surf_faces = FaceSet(
        cell_a=chain_a,
        cell_b=chain_b,
        distance=chain_dist,
        trans=1.0 / chain_dist,
        measure=surf_length,
    )

    xs = (np.arange(nx) + 0.5) * dx
    ys = (np.arange(ny) + 0.5) * dy
    cgx, cgy = np.meshgrid(xs, ys)

    return CoupledMesh(
        nx=nx,
        ny=ny,
        lx=float(lx),
        ly=float(ly),
        active_edges=tuple(e for e in EDGE_NAMES if e in edges),
        dx=dx,
        dy=dy,
        cell_volume=dx * dy,
        total_bulk_measure=float(lx) * float(ly),
        total_surface_measure=float(np.sum(surf_length)),
        n_bulk=n_bulk,
        n_surface=len(positions),
        surf_length=surf_length,
        surf_to_bulk=surf_to_bulk,
        surf_center_x=surf_cx,
        surf_center_y=surf_cy,
        surf_edge=tuple(cycle[p][0] for p in positions),
        cell_center_x=cgx.ravel(),
        cell_center_y=cgy.ravel(),
        bulk_faces=bulk_faces,
        surf_faces=surf_faces,
    )


def bulk_face_list(mesh: CoupledMesh) -> FaceSet:
    """Interior bulk faces, each exactly once; count is ny*(nx-1) + nx*(ny-1)."""
    return mesh.bulk_faces


def surface_face_list(mesh: CoupledMesh) -> FaceSet:
    """Faces between chain-adjacent surface cells (unit face measure in 1D)."""
    return mesh.surf_faces
