import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulksurf import build_mesh
from bulksurf.mesh import EDGE_NAMES, FaceSet


def split_faces(mesh):
    """The bulk and the chain faces of mesh.faces, sliced at n_bulk_faces, as face sets of their own.

    The chain's cells are numbered from 0, as surface cells j; each part
    carries its own cells' measures.
    """
    f, m, nb = mesh.faces, mesh.n_bulk_faces, mesh.n_bulk
    bulk = FaceSet(f.cell_a[:m], f.cell_b[:m], f.trans[:m], f.measure[:nb])
    chain = FaceSet(f.cell_a[m:] - nb, f.cell_b[m:] - nb, f.trans[m:], f.measure[nb:])
    return bulk, chain


def test_unit_single_cell():
    mesh = build_mesh(1, 1, 1.0, 1.0, {"bottom"})
    assert mesh.n_bulk == 1
    assert mesh.n_surface == 1
    assert mesh.total_bulk_measure == 1.0
    assert mesh.total_surface_measure == 1.0
    assert len(mesh.faces) == 0
    assert mesh.n_bulk_faces == 0
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
    assert build_mesh(2, 1, 1.0, 1.0, {"top"}).n_bulk_faces == 1
    mesh = build_mesh(3, 3, 1.0, 1.0, {"bottom"})
    m = mesh.n_bulk_faces
    cell_a, cell_b = mesh.faces.cell_a[:m], mesh.faces.cell_b[:m]
    assert m == 12  # 3*2 + 3*2
    # every unordered pair appears exactly once
    pairs = {tuple(sorted(p)) for p in zip(cell_a, cell_b)}
    assert len(pairs) == 12


@pytest.mark.parametrize("nx,ny", [(1, 1), (4, 2), (5, 7)])
def test_face_count_formula(nx, ny):
    mesh = build_mesh(nx, ny, 1.5, 0.7, {"bottom"})
    assert mesh.n_bulk_faces == ny * (nx - 1) + nx * (ny - 1)
    # exactly the first n_bulk_faces faces join bulk cells
    m, nb = mesh.n_bulk_faces, mesh.n_bulk
    assert np.all(mesh.faces.cell_b[:m] < nb) and np.all(mesh.faces.cell_a[m:] >= nb)


@pytest.mark.parametrize("edges", [{"bottom"}, {"bottom", "left"}, set(EDGE_NAMES)])
def test_one_face_set_holds_the_bulk_faces_then_the_chain(edges):
    mesh = build_mesh(4, 3, 1.2, 0.9, edges)
    faces, m, nb = mesh.faces, mesh.n_bulk_faces, mesh.n_bulk
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
    np.testing.assert_array_equal(faces.measure[:nb], (mesh.lx / mesh.nx) * (mesh.ly / mesh.ny))
    edge_length = {"bottom": 1.2 / 4, "top": 1.2 / 4, "left": 0.9 / 3, "right": 0.9 / 3}
    np.testing.assert_allclose(faces.measure[nb:], [edge_length[e] for e in mesh.surf_edge], rtol=1e-15)


def test_trace_map_on_active_edges():
    mesh = build_mesh(4, 3, 1.0, 1.0, {"bottom", "right", "top", "left"})
    # injective per edge, and the bulk cell of every surface cell touches its edge
    for edge in ("bottom", "right", "top", "left"):
        cells = [b for b, e in zip(mesh.surf_to_bulk, mesh.surf_edge) if e == edge]
        assert len(cells) == len(set(cells))
    for j, cell in enumerate(mesh.surf_to_bulk):
        ix, iy = cell % mesh.nx, cell // mesh.nx
        edge = mesh.surf_edge[j]
        assert {"bottom": iy == 0, "top": iy == mesh.ny - 1, "left": ix == 0, "right": ix == mesh.nx - 1}[edge]


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
    corner = [d for a, b, d in zip(faces.cell_a, faces.cell_b, 1.0 / faces.trans)
              if mesh.surf_edge[a] != mesh.surf_edge[b]]
    assert len(corner) == 1
    assert corner[0] == pytest.approx(0.5 * (1.0 / 3.0 + 0.5))


def test_opposite_edges_stay_disconnected():
    mesh = build_mesh(4, 3, 1.0, 1.0, {"bottom", "top"})
    _, faces = split_faces(mesh)
    assert len(faces) == 2 * 3  # two open chains of 4 cells
    for a, b in zip(faces.cell_a, faces.cell_b):
        assert mesh.surf_edge[a] == mesh.surf_edge[b]


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
    assert mesh.surf_edge == ("bottom",) * 3 + ("right",) * 2 + ("top",) * 3 + ("left",) * 2
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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            build_mesh(2, 2, bad, 1.0, {"bottom"})
        with pytest.raises(ValueError):
            build_mesh(2, 2, 1.0, bad, {"bottom"})
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
    arc = np.array([start[e] + along[e][j] for j, e in enumerate(mesh.surf_edge)])

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
    for j, edge in enumerate(mesh.surf_edge):
        assert edge in edges
        assert {"bottom": iy[j] == 0, "top": iy[j] == ny - 1, "left": ix[j] == 0, "right": ix[j] == nx - 1}[edge]
        assert abs(cx[j] - mesh.cell_center_x[mesh.surf_to_bulk[j]]) <= 0.5 * lx / nx * (1 + 1e-12)
        assert abs(cy[j] - mesh.cell_center_y[mesh.surf_to_bulk[j]]) <= 0.5 * ly / ny * (1 + 1e-12)

    assert mesh.total_surface_measure == pytest.approx(float(np.sum(length)), rel=1e-15)
    edge_lengths = {"bottom": lx, "top": lx, "left": ly, "right": ly}
    assert mesh.total_surface_measure == pytest.approx(sum(edge_lengths[e] for e in edges), rel=1e-12)
