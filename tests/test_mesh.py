import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bulksurf as bs
from bulksurf import build_mesh
from bulksurf.mesh import EDGE_NAMES, FaceSet


def bulk_face_count(mesh):
    """The number of faces that join bulk cells."""
    return int(np.count_nonzero(mesh.faces.cell_a < mesh.n_bulk))


def split_faces(mesh):
    """The bulk and the chain faces of mesh.faces, as face sets of their own.

    The bulk faces come first, as build_mesh and disk_mesh put them.  The
    chain's cells are numbered from 0, as surface cells j; each part carries
    its own cells' measures and the mesh's face average.
    """
    f, m, nb = mesh.faces, bulk_face_count(mesh), mesh.n_bulk
    bulk = FaceSet(f.cell_a[:m], f.cell_b[:m], f.trans[:m], f.measure[:nb], f.average)
    chain = FaceSet(f.cell_a[m:] - nb, f.cell_b[m:] - nb, f.trans[m:], f.measure[nb:], f.average)
    return bulk, chain


def surface_edges(mesh):
    """The rectangle edge of every surface cell of a build_mesh mesh, read from its centre.

    A surface cell's centre is the midpoint of a boundary face, never a
    corner, so it lies on exactly one edge.
    """
    x, y = mesh.surf_center_x, mesh.surf_center_y
    on_edge = [y == 0, x == 0, x > mesh.cell_center_x.max(), y > mesh.cell_center_y.max()]
    return tuple(np.select(on_edge, ["bottom", "left", "right", "top"], "").tolist())


def disk_mesh(radii, sectors):
    """A polar CoupledMesh of the disk of radius R = radii[-1], with Gamma its whole circle.

    One centre cell of radius radii[0], then one ring of `sectors` cells
    between each pair of consecutive radii; sector k spans the angles
    [k, k + 1] * dth, dth = 2 pi / sectors, and the measures are exact sector
    areas.  A ring cell's centre sits at its mid radius r_c and mid angle,
    so the line between two neighbouring centres crosses their face at a
    right angle and the two-point flux is consistent: an arc at radius rho
    has transmissibility rho * dth over the distance of the centres, and a
    ray between two sectors of a ring of width dr has dr / (2 r_c sin(dth/2)).
    Gamma holds one surface cell per outer sector, an arc of length R * dth
    traced to that sector, and closes into a loop with transmissibility
    1 / (R * dth).  The bulk faces come first, then the loop; lx = ly = 2R.
    """
    r = np.asarray(radii, dtype=float)
    m, n_rings = sectors, r.size - 1
    dth = 2 * np.pi / m
    r_c = np.concatenate([[0.0], 0.5 * (r[:-1] + r[1:])])  # centre radius: the centre cell, then rings
    k = np.arange(m)
    ring = [1 + i * m + k for i in range(n_rings)]  # the cells of each ring, by sector
    nb = 1 + n_rings * m
    # arcs at radius r[j]: the centre cell to ring 0, then ring j - 1 to ring j
    arc_a = np.concatenate([np.zeros(m, int)] + ring[:-1])
    arc_b = np.concatenate(ring)
    arc_trans = np.repeat(r[:-1] * dth / (r_c[1:] - r_c[:-1]), m)
    # rays: sector k to sector k + 1 of each ring
    ray_a = np.concatenate(ring)
    ray_b = np.concatenate([cells[(k + 1) % m] for cells in ring])
    ray_trans = np.repeat((r[1:] - r[:-1]) / (2 * r_c[1:] * np.sin(dth / 2)), m)
    areas = np.repeat(0.5 * dth * (r[1:] ** 2 - r[:-1] ** 2), m)
    angle = (k + 0.5) * dth
    faces = FaceSet(
        cell_a=np.concatenate([arc_a, ray_a, nb + k]),
        cell_b=np.concatenate([arc_b, ray_b, nb + (k + 1) % m]),
        trans=np.concatenate([arc_trans, ray_trans, np.full(m, 1.0 / (r[-1] * dth))]),
        measure=np.concatenate([[np.pi * r[0] ** 2], areas, np.full(m, r[-1] * dth)]),
    )
    return bs.CoupledMesh(
        lx=2 * r[-1],
        ly=2 * r[-1],
        surf_to_bulk=ring[-1],
        surf_center_x=r[-1] * np.cos(angle),
        surf_center_y=r[-1] * np.sin(angle),
        cell_center_x=np.concatenate([[0.0], np.outer(r_c[1:], np.cos(angle)).ravel()]),
        cell_center_y=np.concatenate([[0.0], np.outer(r_c[1:], np.sin(angle)).ravel()]),
        faces=faces,
    )


def test_unit_single_cell():
    mesh = build_mesh(1, 1, 1.0, 1.0, {"bottom"})
    assert mesh.n_bulk == 1
    assert mesh.n_surface == 1
    assert mesh.total_bulk_measure == 1.0
    assert mesh.total_surface_measure == 1.0
    assert len(mesh.faces) == 0
    assert bulk_face_count(mesh) == 0
    np.testing.assert_array_equal(mesh.faces.measure, [1.0, 1.0])


def test_uniform_grid_arithmetic():
    mesh = build_mesh(4, 2, 2.0, 1.0, {"bottom"})
    assert mesh.n_bulk == 8
    np.testing.assert_allclose(mesh.faces.measure[: mesh.n_bulk], 0.25)
    assert mesh.n_surface == 4
    np.testing.assert_allclose(mesh.faces.measure[mesh.n_bulk :], 0.5)
    assert mesh.total_surface_measure == pytest.approx(2.0)


def test_two_edge_surface_count():
    # 3x3 grid with bottom+left: 3 + 3 boundary faces, |Gamma| = 1 + 1
    mesh = build_mesh(3, 3, 1.0, 1.0, {"bottom", "left"})
    assert mesh.n_bulk == 9
    assert mesh.n_surface == 6
    assert mesh.total_surface_measure == pytest.approx(2.0)


def test_interior_face_count():
    assert bulk_face_count(build_mesh(2, 1, 1.0, 1.0, {"top"})) == 1
    mesh = build_mesh(3, 3, 1.0, 1.0, {"bottom"})
    m = bulk_face_count(mesh)
    cell_a, cell_b = mesh.faces.cell_a[:m], mesh.faces.cell_b[:m]
    assert m == 12  # 3*2 + 3*2
    # every unordered pair appears exactly once
    pairs = {tuple(sorted(p)) for p in zip(cell_a, cell_b)}
    assert len(pairs) == 12


@pytest.mark.parametrize("nx,ny", [(1, 1), (4, 2), (5, 7)])
def test_face_count_formula(nx, ny):
    mesh = build_mesh(nx, ny, 1.5, 0.7, {"bottom"})
    assert bulk_face_count(mesh) == ny * (nx - 1) + nx * (ny - 1)
    # exactly the first bulk_face_count faces join bulk cells
    m, nb = bulk_face_count(mesh), mesh.n_bulk
    assert np.all(mesh.faces.cell_b[:m] < nb) and np.all(mesh.faces.cell_a[m:] >= nb)


@pytest.mark.parametrize("edges", [{"bottom"}, {"bottom", "left"}, set(EDGE_NAMES)])
def test_one_face_set_holds_the_bulk_faces_then_the_chain(edges):
    mesh = build_mesh(4, 3, 1.2, 0.9, edges)
    faces, m, nb = mesh.faces, bulk_face_count(mesh), mesh.n_bulk
    # the interior faces of the grid, then one link per pair of chain-adjacent
    # surface cells: the chain here is connected, and closes only with all
    # four edges
    assert m == 3 * 3 + 4 * 2
    assert len(faces) == m + mesh.n_surface - (edges != set(EDGE_NAMES))
    # no face joins a bulk cell to a surface cell; the chain sits on cells n_bulk + j
    assert np.all(faces.cell_a[:m] < nb) and np.all(faces.cell_b[:m] < nb)
    assert np.all(faces.cell_a[m:] >= nb) and np.all(faces.cell_b[m:] >= nb)
    assert np.all(faces.cell_a < nb + mesh.n_surface) and np.all(faces.cell_b < nb + mesh.n_surface)
    assert faces.cell_a.dtype == faces.cell_b.dtype == np.intp
    # one measure per stacked cell: the bulk areas, then the surface lengths
    assert faces.measure.size == nb + mesh.n_surface
    np.testing.assert_array_equal(faces.measure[:nb], (mesh.lx / 4) * (mesh.ly / 3))
    edge_length = {"bottom": 1.2 / 4, "top": 1.2 / 4, "left": 0.9 / 3, "right": 0.9 / 3}
    np.testing.assert_allclose(faces.measure[nb:], [edge_length[e] for e in surface_edges(mesh)], rtol=1e-15)


def test_trace_map_on_active_edges():
    nx, ny = 4, 3
    mesh = build_mesh(nx, ny, 1.0, 1.0, {"bottom", "right", "top", "left"})
    edges = surface_edges(mesh)
    # injective per edge, and the bulk cell of every surface cell touches its edge
    for edge in ("bottom", "right", "top", "left"):
        cells = [b for b, e in zip(mesh.surf_to_bulk, edges) if e == edge]
        assert len(cells) == len(set(cells))
    for j, cell in enumerate(mesh.surf_to_bulk):
        ix, iy = cell % nx, cell // nx
        edge = edges[j]
        assert {"bottom": iy == 0, "top": iy == ny - 1, "left": ix == 0, "right": ix == nx - 1}[edge]


def test_single_edge_chain_is_connected_path():
    mesh = build_mesh(6, 2, 3.0, 1.0, {"bottom"})
    _, faces = split_faces(mesh)
    assert len(faces) == mesh.n_surface - 1
    np.testing.assert_array_equal(faces.cell_a, np.arange(5))
    np.testing.assert_array_equal(faces.cell_b, np.arange(1, 6))
    np.testing.assert_allclose(1.0 / faces.trans, 0.5)


def test_corner_adjacent_edges_join_into_one_chain():
    mesh = build_mesh(3, 2, 1.0, 1.0, {"bottom", "left"})
    _, faces = split_faces(mesh)
    # 5 surface cells, one connected chain => 4 faces, including the corner join
    assert mesh.n_surface == 5
    assert len(faces) == 4
    degree = np.bincount(np.concatenate([faces.cell_a, faces.cell_b]), minlength=5)
    assert sorted(degree) == [1, 1, 2, 2, 2]
    # corner face distance is the mean of the two different face lengths
    edges = surface_edges(mesh)
    corner = [d for a, b, d in zip(faces.cell_a, faces.cell_b, 1.0 / faces.trans)
              if edges[a] != edges[b]]
    assert len(corner) == 1
    assert corner[0] == pytest.approx(0.5 * (1.0 / 3.0 + 0.5))


def test_opposite_edges_stay_disconnected():
    mesh = build_mesh(4, 3, 1.0, 1.0, {"bottom", "top"})
    _, faces = split_faces(mesh)
    assert len(faces) == 2 * 3  # two open chains of 4 cells
    edges = surface_edges(mesh)
    for a, b in zip(faces.cell_a, faces.cell_b):
        assert edges[a] == edges[b]


def test_full_boundary_closes_into_loop():
    mesh = build_mesh(3, 3, 1.0, 1.0, {"bottom", "right", "top", "left"})
    _, faces = split_faces(mesh)
    assert mesh.n_surface == 12
    assert len(faces) == 12  # closed loop: one face per cell
    degree = np.bincount(np.concatenate([faces.cell_a, faces.cell_b]), minlength=12)
    assert set(degree) == {2}


def test_surface_numbering_runs_counterclockwise_from_the_origin():
    # the start and direction of the numbering set the row order of
    # final_state.csv: bottom left to right, right upwards, top right to
    # left, left downwards, and each cell links to the next, closing the loop
    mesh = build_mesh(3, 2, 1.5, 1.0, set(EDGE_NAMES))
    np.testing.assert_array_equal(mesh.surf_to_bulk, [0, 1, 2, 2, 5, 5, 4, 3, 3, 0])
    assert surface_edges(mesh) == ("bottom",) * 3 + ("right",) * 2 + ("top",) * 3 + ("left",) * 2
    np.testing.assert_array_equal(
        mesh.surf_center_x, [0.25, 0.75, 1.25, 1.5, 1.5, 1.25, 0.75, 0.25, 0.0, 0.0]
    )
    np.testing.assert_array_equal(
        mesh.surf_center_y, [0.0, 0.0, 0.0, 0.25, 0.75, 1.0, 1.0, 1.0, 0.75, 0.25]
    )
    _, chain = split_faces(mesh)
    np.testing.assert_array_equal(chain.cell_a, np.arange(10))
    np.testing.assert_array_equal(chain.cell_b, (np.arange(10) + 1) % 10)


def test_surface_measure_additivity():
    mesh = build_mesh(7, 5, 2.5, 1.25, {"bottom", "left", "top"})
    assert mesh.total_surface_measure == pytest.approx(2.5 + 1.25 + 2.5, rel=1e-15)
    surf_measure = mesh.faces.measure[mesh.n_bulk :]
    assert mesh.total_surface_measure == pytest.approx(np.sum(surf_measure), rel=0, abs=0)


def _with_faces(mesh, **arrays):
    return dataclasses.replace(mesh, faces=dataclasses.replace(mesh.faces, **arrays))


def _changed(array, index, value):
    out = array.copy()
    out[index] = value
    return out


# Meshes that break the CoupledMesh contract, made from an intact one.
_BROKEN = {
    "face arrays of two lengths": lambda m: _with_faces(m, trans=m.faces.trans[:-1]),
    "face cell past the cells": lambda m: _with_faces(
        m, cell_b=_changed(m.faces.cell_b, -1, m.faces.measure.size)),
    "negative face cell": lambda m: _with_faces(m, cell_a=_changed(m.faces.cell_a, 0, -1)),
    "bulk-to-surface face": lambda m: _with_faces(
        m, cell_b=_changed(m.faces.cell_b, 0, m.n_bulk)),
    "surface cell traced to a surface cell": lambda m: dataclasses.replace(
        m, surf_to_bulk=_changed(m.surf_to_bulk, 0, m.n_bulk)),
    "negative trace": lambda m: dataclasses.replace(m, surf_to_bulk=_changed(m.surf_to_bulk, 0, -1)),
    "no bulk cell": lambda m: dataclasses.replace(
        m, surf_to_bulk=np.zeros(m.faces.measure.size, dtype=np.intp)),
    "no surface cell": lambda m: dataclasses.replace(m, surf_to_bulk=np.zeros(0, dtype=np.intp)),
    "zero cell measure": lambda m: _with_faces(m, measure=_changed(m.faces.measure, 0, 0.0)),
    "subnormal cell measure": lambda m: _with_faces(
        m, measure=_changed(m.faces.measure, 0, 1e-310)),
    "negative transmissibility": lambda m: _with_faces(m, trans=_changed(m.faces.trans, 0, -1.0)),
    "infinite transmissibility": lambda m: _with_faces(m, trans=_changed(m.faces.trans, -1, np.inf)),
    "NaN cell measure": lambda m: _with_faces(m, measure=_changed(m.faces.measure, -1, np.nan)),
    "infinite cell centre": lambda m: dataclasses.replace(
        m, surf_center_x=_changed(m.surf_center_x, -1, np.inf)),
}


@pytest.mark.parametrize("case", _BROKEN)
def test_a_mesh_that_breaks_the_contract_raises(case):
    mesh = build_mesh(4, 3, 1.0, 1.0, {"bottom", "left"})
    assert dataclasses.replace(mesh).n_bulk == 12  # the intact mesh constructs
    with pytest.raises(ValueError):
        _BROKEN[case](mesh)


@pytest.mark.parametrize("n", [8, 16])
def test_disk_mesh_measures_the_disk(n):
    mesh = disk_mesh(np.arange(1, n + 1) / n, 4 * n)
    assert (mesh.n_bulk, mesh.n_surface) == (1 + (n - 1) * 4 * n, 4 * n)
    assert mesh.total_bulk_measure == pytest.approx(np.pi, rel=1e-15, abs=0)
    assert mesh.total_surface_measure == pytest.approx(2 * np.pi, rel=1e-15, abs=0)
    # the centre cell borders every sector of the first ring, a ring cell its
    # four neighbours, but the outer ring has Gamma outside, which is no
    # face, and Gamma closes into a loop
    degree = np.bincount(np.concatenate([mesh.faces.cell_a, mesh.faces.cell_b]))
    outer = mesh.n_bulk - 4 * n
    assert degree[0] == 4 * n
    assert np.all(degree[1:outer] == 4) and np.all(degree[outer:mesh.n_bulk] == 3)
    assert np.all(degree[mesh.n_bulk:] == 2)
    # the trace of every surface cell is the outer sector beneath it
    r = np.hypot(mesh.cell_center_x[mesh.surf_to_bulk], mesh.cell_center_y[mesh.surf_to_bulk])
    np.testing.assert_allclose(r, 1 - 0.5 / n, rtol=1e-14)
    np.testing.assert_allclose(np.arctan2(mesh.surf_center_y, mesh.surf_center_x),
                               np.arctan2(mesh.cell_center_y[mesh.surf_to_bulk],
                                          mesh.cell_center_x[mesh.surf_to_bulk]), atol=1e-14)


@pytest.mark.parametrize("side,normal", [(1e-153, True), (1e-154, False)])
def test_a_cell_area_must_be_a_normal_float(side, normal):
    # 3x3 cells of side/3: an area of 1.1e-307 is normal, one of 1.1e-309
    # subnormal, and 1/area, which the rate divides by, overflows to inf
    area = (side / 3) ** 2
    assert (area >= np.finfo(float).tiny) == normal
    if normal:
        assert build_mesh(3, 3, side, side, {"bottom"}).faces.measure[0] == area
    else:
        with pytest.raises(ValueError, match="positive normal float"):
            build_mesh(3, 3, side, side, {"bottom"})


def test_a_centre_past_the_largest_float_is_rejected():
    # the right side's centre nx * dx = 3 * (1.797e308 / 3) rounds to inf
    with pytest.raises(ValueError, match="every cell centre must be finite"):
        build_mesh(3, 1, 1.7976931348623157e308, 0.5, {"right"})


def test_measures_and_transmissibilities_are_the_float_quotients():
    dx, dy = 0.7 / 3, 0.3 / 7
    faces = build_mesh(3, 7, 0.7, 0.3, EDGE_NAMES).faces
    bulk = faces.cell_a < 21
    horizontal = bulk & (faces.cell_b == faces.cell_a + 1)
    assert np.all(faces.measure[:21] == dx * dy)
    assert np.all(faces.trans[horizontal] == dy / dx)
    assert np.all(faces.trans[bulk & ~horizontal] == dx / dy)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_mesh(0, 1, 1.0, 1.0, {"bottom"})
    with pytest.raises(ValueError):
        build_mesh(1, 0, 1.0, 1.0, {"bottom"})
    for bad in (2.5, True):
        with pytest.raises(ValueError):
            build_mesh(bad, 2, 1.0, 1.0, {"bottom"})
        with pytest.raises(ValueError):
            build_mesh(2, bad, 1.0, 1.0, {"bottom"})
    with pytest.raises(ValueError):
        build_mesh(1, 1, 0.0, 1.0, {"bottom"})
    # a cell side 5e-324 / 2 is 0.0, and 1 / (1e-320 / 2) overflows
    for bad in (float("nan"), float("inf"), 5e-324, 1e-320):
        with pytest.raises(ValueError):
            build_mesh(2, 2, bad, 1.0, {"bottom"})
        with pytest.raises(ValueError):
            build_mesh(2, 2, 1.0, bad, {"bottom"})
    # a negative side, one or both, and sides whose cell area overflows
    for lx, ly in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (1e300, 1e300)):
        with pytest.raises(ValueError):
            build_mesh(3, 3, lx, ly, {"bottom"})
    with pytest.raises(ValueError):
        build_mesh(1, 1, 1.0, 1.0, set())
    with pytest.raises(ValueError):
        build_mesh(1, 1, 1.0, 1.0, {"bottom", "diagonal"})


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    edges=st.sets(st.sampled_from(EDGE_NAMES), min_size=1),
)
def test_chain_topology(nx, ny, edges):
    lx, ly = 1.5, 0.7
    mesh = build_mesh(nx, ny, lx, ly, edges)
    _, faces = split_faces(mesh)
    length = faces.measure  # the surface cells' lengths
    perimeter = 2 * (lx + ly)

    # arc length of each surface face centre along the counterclockwise
    # boundary from the origin, read from its edge and centre alone
    cx, cy = mesh.surf_center_x, mesh.surf_center_y
    start = {"bottom": 0.0, "right": lx, "top": lx + ly, "left": 2 * lx + ly}
    along = {"bottom": cx, "right": cy, "top": lx - cx, "left": ly - cy}
    surf_edge = surface_edges(mesh)
    arc = np.array([start[e] + along[e][j] for j, e in enumerate(surf_edge)])

    # every face joins cells that touch along the boundary, b following a
    gap = (arc[faces.cell_b] - arc[faces.cell_a]) % perimeter
    half = 0.5 * (length[faces.cell_a] + length[faces.cell_b])
    np.testing.assert_allclose(gap, half, rtol=1e-12)
    # and every such pair of surface cells has its face
    order = np.argsort(arc)
    touching = (np.roll(arc[order], -1) - arc[order]) % perimeter
    touching_half = 0.5 * (length[order] + np.roll(length[order], -1))
    expected = int(np.sum(np.isclose(touching, touching_half, rtol=1e-12))) if mesh.n_surface > 1 else 0
    assert len(faces) == expected

    # the chain is a loop exactly when all four edges are active
    degree = np.bincount(np.concatenate([faces.cell_a, faces.cell_b]), minlength=mesh.n_surface)
    assert np.all(degree == 2) == (set(edges) == set(EDGE_NAMES))

    # each surface cell sits on a boundary face of its bulk cell, on its edge
    ix, iy = mesh.surf_to_bulk % nx, mesh.surf_to_bulk // nx
    for j, edge in enumerate(surf_edge):
        assert edge in edges
        assert {"bottom": iy[j] == 0, "top": iy[j] == ny - 1, "left": ix[j] == 0, "right": ix[j] == nx - 1}[edge]
        assert abs(cx[j] - mesh.cell_center_x[mesh.surf_to_bulk[j]]) <= 0.5 * lx / nx * (1 + 1e-12)
        assert abs(cy[j] - mesh.cell_center_y[mesh.surf_to_bulk[j]]) <= 0.5 * ly / ny * (1 + 1e-12)

    assert mesh.total_surface_measure == pytest.approx(float(np.sum(length)), rel=1e-15)
    edge_lengths = {"bottom": lx, "top": lx, "left": ly, "right": ly}
    assert mesh.total_surface_measure == pytest.approx(sum(edge_lengths[e] for e in edges), rel=1e-12)
