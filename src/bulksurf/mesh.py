"""The coupled bulk/surface mesh: one face set over stacked cells, and a trace map.

The time stepper and the diagnostics read a CoupledMesh through its face set
(cell measures and face average included) and its trace map alone, so any
mesh on which a two-point flux is consistent serves them.  The face operator
(flux, net inflow per unit cell measure and its Jacobian block) lives here
beside FaceSet, below both the time stepper and the entropy diagnostics,
which pair the same flux, by the same face average, with potentials.

build_mesh makes the mesh of a rectangle of ``nx * ny`` uniform control
volumes.  Each boundary face of a bulk cell on an active edge becomes one
surface control volume, ordered along the counterclockwise boundary cycle
(bottom, right, top, left), so that cells on adjacent active edges form one
1D chain joined at the shared corner.  Chain endpoints have no neighbor,
which realizes the zero-flux condition there; with all four edges active
the chain closes into a loop.
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

    Face f joins cells ``cell_a[f]`` and ``cell_b[f]``; its transmissibility
    ``trans[f]`` is |face| over the distance of their centers (one over it
    on the 1D surface chain).  ``measure[i]`` is the measure of cell i (area
    in the bulk, length on the chain).  ``average`` names the mean of the
    two cell coefficients on a face, one of FACE_AVERAGES; every flux, its
    Jacobian and the dissipation read it here, so they cannot disagree.
    """

    cell_a: np.ndarray
    cell_b: np.ndarray
    trans: np.ndarray
    measure: np.ndarray
    average: str = "arithmetic"

    def __post_init__(self):
        if self.average not in FACE_AVERAGES:
            raise ValueError(f"unknown face average {self.average!r}")

    def __len__(self) -> int:
        return int(self.cell_a.size)


def face_flux(faces: FaceSet, x, mu) -> np.ndarray:
    """Two-point flux mu_f * (x_b - x_a) * trans on every face of a face set.

    mu holds the cell coefficients; mu_f combines the two sides of a face
    by the face set's average.
    """
    a, b = faces.cell_a, faces.cell_b
    mean, _ = _FACE_AVERAGES[faces.average]
    return mean(mu[a], mu[b]) * (x[b] - x[a]) * faces.trans


def face_divergence(faces: FaceSet, x, mu) -> np.ndarray:
    """Net two-point-flux inflow per unit cell measure; its measure-weighted sum is zero."""
    flux = face_flux(faces, x, mu)
    div = np.bincount(faces.cell_a, weights=flux, minlength=faces.measure.size)
    div -= np.bincount(faces.cell_b, weights=flux, minlength=faces.measure.size)
    return div / faces.measure


def face_block(faces: FaceSet, x, mu, dmu_x, dmu_y, y_cols):
    """Jacobian of one face divergence: off-diagonal COO triplets plus its diagonal.

    The flux phi = trans * mu_f * (x_b - x_a) of a face enters the rate of
    cell a as +phi/|a| and that of cell b as -phi/|b|.  x is the diffused
    field, one entry per cell; mu and dmu_x are the cell coefficients and
    their derivatives along x.  A coefficient may also depend on a second
    field y, with derivatives dmu_y (0 where it does not) and state indices
    y_cols[cell].

    Returns (rows, cols, vals, diag).  The triplets hold two entries per
    face, a -> b and then b -> a, followed by the four y entries of every
    face with a nonzero dmu_y at either end; their indices are np.intc,
    SuperLU's index type.  diag[cell] is the derivative of the rate of cell
    along its own x, summed over the faces of the cell.
    """
    a, b = faces.cell_a, faces.cell_b
    mu_a, mu_b = mu[a], mu[b]
    mean, weights = _FACE_AVERAGES[faces.average]
    mu_f = mean(mu_a, mu_b)
    w_a, w_b = weights(mu_a, mu_b)
    del mu_a, mu_b  # per-face arrays go once spent: they set the assembly's peak memory
    g = faces.trans
    dlt = x[b] - x[a]
    dphi_a = g * (w_a * dmu_x[a] * dlt - mu_f)
    dphi_b = g * (w_b * dmu_x[b] * dlt + mu_f)
    del mu_f, w_a, w_b
    inv_a, inv_b = 1.0 / faces.measure[a], 1.0 / faces.measure[b]
    n = faces.measure.size
    # without faces bincount returns integers
    diag = np.bincount(a, weights=dphi_a * inv_a, minlength=n).astype(float, copy=False)
    diag -= np.bincount(b, weights=dphi_b * inv_b, minlength=n)

    ends = np.concatenate([a, b], dtype=np.intc)  # rows a, b; the columns swap them
    rows, cols = [ends], [np.concatenate([ends[a.size :], ends[: a.size]])]
    dphi_b *= inv_a
    dphi_a *= inv_b
    vals = [dphi_b, np.negative(dphi_a, out=dphi_a)]
    cross = dmu_y != 0
    f = np.flatnonzero(cross[a] | cross[b])
    a, b, g, dlt, inv_a, inv_b = a[f], b[f], g[f], dlt[f], inv_a[f], inv_b[f]
    w_a, w_b = weights(mu[a], mu[b])
    dphi_ya, dphi_yb = g * w_a * dmu_y[a] * dlt, g * w_b * dmu_y[b] * dlt
    ya, yb = y_cols[a], y_cols[b]
    rows += [np.concatenate([a, b], dtype=np.intc)] * 2
    cols += [ya, ya, yb, yb]
    vals += [dphi_ya * inv_a, -dphi_ya * inv_b, dphi_yb * inv_a, -dphi_yb * inv_b]
    return (
        np.concatenate(rows, dtype=np.intc),
        np.concatenate(cols, dtype=np.intc),
        np.concatenate(vals),
        diag,
    )


@dataclass(frozen=True, eq=False)
class CoupledMesh:
    """Immutable face set over bulk and surface cells, plus the trace map between them.

    Cells are stacked, the n_bulk bulk cells first and then surface cell j at
    ``n_bulk + j``; no face of ``faces`` joins a bulk cell to a surface cell.
    Every cell measure, bulk area and surface length alike, is
    ``faces.measure``, and the totals |Omega| and |Gamma| are its sums over
    the two parts.  Every measure is a positive normal float, so the rate's
    1/measure is finite, and every ``faces.trans`` entry is finite and > 0.
    ``surf_to_bulk[j]`` is the bulk cell whose boundary face hosts surface
    cell j, of which there is at least one; one bulk cell may host several.
    The centres, all finite, place the cells for initial data and output,
    and ``lx``, ``ly`` are the extents of the bulk domain.  A mesh that
    breaks this contract raises ValueError.
    """

    lx: float
    ly: float
    surf_to_bulk: np.ndarray = field(repr=False)
    surf_center_x: np.ndarray = field(repr=False)
    surf_center_y: np.ndarray = field(repr=False)
    cell_center_x: np.ndarray = field(repr=False)
    cell_center_y: np.ndarray = field(repr=False)
    faces: FaceSet = field(repr=False)

    def __post_init__(self):
        f, nb, tr = self.faces, self.n_bulk, self.surf_to_bulk
        if not f.cell_a.size == f.cell_b.size == f.trans.size:
            raise ValueError("the face arrays cell_a, cell_b and trans differ in length")
        cells = np.concatenate((f.cell_a, f.cell_b))
        if not 0 <= cells.min(initial=0) <= cells.max(initial=0) < f.measure.size:
            raise ValueError(f"a face cell index lies outside the {f.measure.size} cells")
        if np.any((f.cell_a < nb) != (f.cell_b < nb)):
            raise ValueError("a face joins a bulk cell to a surface cell")
        if not (tr.size and 0 <= tr.min() <= tr.max() < nb):  # so n_bulk >= 1 too
            raise ValueError(f"surf_to_bulk must be nonempty and index the n_bulk = {nb} bulk cells")
        if not np.all((f.measure >= np.finfo(float).tiny) & (f.measure < np.inf)):
            raise ValueError("every faces.measure entry must be a positive normal float")
        if not np.all((f.trans > 0) & (f.trans < np.inf)):
            raise ValueError("every faces.trans entry must be finite and > 0")
        centres = (self.surf_center_x, self.surf_center_y, self.cell_center_x, self.cell_center_y)
        if not all(np.all(np.isfinite(c)) for c in centres):
            raise ValueError("every cell centre must be finite")

    @property
    def n_bulk(self) -> int:
        """Bulk cell count: the cells of faces.measure that are not surface cells."""
        return self.faces.measure.size - self.surf_to_bulk.size

    @property
    def n_surface(self) -> int:
        """Surface cell count, one per entry of surf_to_bulk."""
        return self.surf_to_bulk.size

    @property
    def total_bulk_measure(self) -> float:
        """|Omega|, the sum of the bulk cell measures in faces.measure."""
        return float(np.sum(self.faces.measure[: self.n_bulk]))

    @property
    def total_surface_measure(self) -> float:
        """|Gamma|, the sum of the surface cell measures in faces.measure."""
        return float(np.sum(self.faces.measure[self.n_bulk :]))


def check_sizes(state, mesh: CoupledMesh) -> None:
    """Reject a state whose u and v do not hold one entry per bulk and per surface cell."""
    if state.u.size != mesh.n_bulk or state.v.size != mesh.n_surface:
        raise ValueError(
            f"state sizes ({state.u.size}, {state.v.size}) do not match mesh "
            f"({mesh.n_bulk}, {mesh.n_surface})"
        )


@np.errstate(all="ignore")
def build_mesh(
    nx: int,
    ny: int,
    lx: float,
    ly: float,
    active_edges,
    face_average: str = "arithmetic",
) -> CoupledMesh:
    """Build the coupled bulk/surface mesh of a rectangle.

    Bulk cells are indexed row-major: cell ``(ix, iy)`` has index
    ``iy * nx + ix`` and center ``((ix + 0.5) * lx / nx, (iy + 0.5) * ly / ny)``.
    The faces are the interior faces of the grid, then the chain's.

    Parameters
    ----------
    nx, ny : int
        Cell counts per axis, both integers >= 1 (not bool).
    lx, ly : float
        Rectangle side lengths.  Only counts and edge names are checked here; the
        CoupledMesh contract rejects a side or an empty edge set that makes no valid mesh.
    active_edges : iterable of str
        Subset of {"bottom", "right", "top", "left"} forming the active surface.
    face_average : str
        The face set's coefficient mean, one of FACE_AVERAGES.
    """
    if not (is_int(nx) and is_int(ny) and nx >= 1 and ny >= 1):
        raise ValueError(f"cell counts must be integers >= 1, got nx={nx!r}, ny={ny!r}")
    edges = set(active_edges)
    unknown = edges - set(EDGE_NAMES)
    if unknown:
        raise ValueError(f"unknown edge names: {sorted(unknown)}")

    dx, dy = np.float64(lx) / nx, np.float64(ly) / ny
    n_bulk = nx * ny
    ix, iy = np.arange(nx), np.arange(ny)
    xs, ys = (ix + 0.5) * dx, (iy + 0.5) * dy

    # The boundary faces side by side in counterclockwise cycle order, one
    # row per side of EDGE_NAMES: the bulk cells under its faces, their
    # length and their centres' x and y.  The top runs right to left, the
    # left side top to bottom.
    sides = (
        (ix, np.full(nx, dx), xs, np.zeros(nx)),
        (iy * nx + nx - 1, np.full(ny, dy), np.full(ny, nx * dx), ys),
        (n_bulk - 1 - ix, np.full(nx, dx), xs[::-1], np.full(nx, ny * dy)),
        ((ny - 1 - iy) * nx, np.full(ny, dy), np.zeros(ny), ys[::-1]),
    )

    # Surface cells in boundary-cycle order; chain faces join cycle-adjacent
    # active positions, wrapping only when the whole boundary is active.
    active = np.repeat([edge in edges for edge in EDGE_NAMES], [nx, ny, nx, ny])
    surf_to_bulk, surf_length, surf_cx, surf_cy = (
        np.concatenate(column)[active] for column in zip(*sides)
    )
    positions = np.flatnonzero(active)
    surf_index = np.cumsum(active) - 1  # surface cell of each active cycle position

    # Cyclic adjacency: position p borders (p + 1) mod n_cycle, so edges that
    # meet at a corner (including across the cycle seam at the origin) chain up.
    following = (positions + 1) % active.size
    linked = active[following]
    chain_a = surf_index[positions[linked]]
    chain_b = surf_index[following[linked]]
    chain_dist = 0.5 * (surf_length[chain_a] + surf_length[chain_b])

    # Interior bulk faces: horizontal-neighbor pairs share a face of length dy
    # at distance dx, vertical-neighbor pairs a face of length dx at distance dy.
    # The chain faces follow them, on the surface cells numbered from n_bulk.
    ii = np.arange(n_bulk).reshape(ny, nx)
    h, v = ii[:, :-1].size, ii[:-1, :].size
    faces = FaceSet(
        cell_a=np.concatenate([ii[:, :-1].ravel(), ii[:-1, :].ravel(), n_bulk + chain_a]),
        cell_b=np.concatenate([ii[:, 1:].ravel(), ii[1:, :].ravel(), n_bulk + chain_b]),
        trans=np.concatenate([np.full(h, dy / dx), np.full(v, dx / dy), 1.0 / chain_dist]),
        measure=np.concatenate([np.full(n_bulk, dx * dy), surf_length]),
        average=face_average,
    )

    return CoupledMesh(
        lx=float(lx),
        ly=float(ly),
        surf_to_bulk=surf_to_bulk,
        surf_center_x=surf_cx,
        surf_center_y=surf_cy,
        cell_center_x=np.tile(xs, ny),
        cell_center_y=np.repeat(ys, nx),
        faces=faces,
    )

