"""Finite-volume grid for a rectangle coupled to a surface mesh on part of its boundary.

The bulk domain is an axis-aligned rectangle split into ``nx * ny`` uniform
control volumes.  The active surface is a union of whole rectangle edges; each
boundary face of a bulk cell lying on an active edge becomes one surface
control volume.  Surface cells are ordered along the counterclockwise boundary
cycle (bottom, right, top, left), so that cells on adjacent active edges form
a single connected 1D chain joined at the shared corner.  Chain endpoints have
no neighbor, which realizes the zero-flux condition there; with all four edges
active the chain closes into a loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EDGE_NAMES = ("bottom", "right", "top", "left")


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
        Cell counts per axis, both >= 1.
    lx, ly : float
        Rectangle side lengths, both > 0.
    active_edges : iterable of str
        Nonempty subset of {"bottom", "right", "top", "left"} forming the
        active surface.
    """
    if not (nx >= 1 and ny >= 1):
        raise ValueError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
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
