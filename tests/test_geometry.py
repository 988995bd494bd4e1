import numpy as np
import pytest

from crowdflow.geometry import (
    CellKind,
    CellMask,
    Domain,
    FaceKind,
    Grid,
    build_grid,
)


def room_domain():
    return Domain.rectangle(
        (0.0, 8.0, -4.0, 4.0),
        exits=[((8.0, -1.0), (8.0, 1.0))],
        obstacles=[(6.5, 7.0, 1.0, 1.625), (6.5, 7.0, -1.625, -1.0)],
    )


def test_plain_rectangle_all_interior():
    dom = Domain.rectangle((0.0, 8.0, -4.0, 4.0))
    grid, mask = build_grid(dom, 0.5)
    assert grid.shape == (16, 16)
    assert mask.interior_count == 256
    assert np.all(mask.cells == CellKind.INTERIOR)


def test_grid_geometry_fields():
    dom = Domain.rectangle((0.0, 2.0, -1.0, 1.0))
    grid, _ = build_grid(dom, 0.25)
    assert grid.shape == (8, 8)
    assert grid.cell_area == 0.0625
    assert np.isclose(grid.x_centers()[0], 0.125)
    assert np.isclose(grid.x_centers()[-1], 1.875)
    assert np.isclose(grid.y_centers()[0], -0.875)
    xm, ym = grid.center_mesh()
    assert xm.shape == (8, 8)
    assert np.isclose(xm[3, 0], grid.x_centers()[3])
    assert np.isclose(ym[0, 5], grid.y_centers()[5])


@pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1.0])
def test_grid_rejects_spacing_that_is_not_positive_and_finite(h):
    with pytest.raises(ValueError, match="positive and finite"):
        Grid(nx=4, ny=4, h=h, origin=(0.0, 0.0))


def test_grid_rejects_an_empty_extent():
    with pytest.raises(ValueError, match="positive extents"):
        Grid(nx=0, ny=4, h=0.25, origin=(0.0, 0.0))


def test_cell_mask_rejects_face_arrays_of_another_shape():
    cells = np.full((4, 3), CellKind.INTERIOR, dtype=np.int8)
    face_y = np.zeros((4, 4), dtype=np.int8)
    empty = np.zeros(0, dtype=int)
    for face_x in (np.zeros((4, 3), dtype=np.int8), np.zeros((5, 4), dtype=np.int8)):
        with pytest.raises(ValueError, match="face arrays do not match"):
            CellMask(cells=cells, face_x=face_x, face_y=face_y, exit_ids=(empty, empty))


def test_room_obstacle_cell_count():
    # each 0.5 x 0.625 block covers exactly 16 x 20 cell centers at h = 1/32
    grid, mask = build_grid(room_domain(), 0.03125)
    assert grid.shape == (256, 256)
    assert np.count_nonzero(mask.cells == CellKind.OBSTACLE) == 640
    assert mask.interior_count == 256 * 256 - 640


def test_disc_interior_count_matches_area():
    dom = Domain.disc((0.0, 0.0), 1.0)
    h = 1.0 / 64.0
    _, mask = build_grid(dom, h)
    measured = mask.interior_count * h * h
    assert abs(measured - np.pi) < 0.01 * np.pi


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
def test_disc_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ValueError, match="positive and finite"):
        Domain.disc((0.0, 0.0), radius)


def test_room_exit_faces():
    grid, mask = build_grid(room_domain(), 0.03125)
    exit_x = mask.face_x == FaceKind.EXIT
    assert np.count_nonzero(exit_x) == 64
    # all of them on the right boundary column
    assert np.all(np.nonzero(exit_x)[0] == grid.nx)
    assert np.count_nonzero(mask.face_y == FaceKind.EXIT) == 0


def test_corridor_exit_faces():
    dom = Domain.rectangle(
        (0.0, 16.0, -2.0, 2.0),
        exits=[((0.0, -2.0), (0.0, 2.0)), ((16.0, -2.0), (16.0, 2.0))],
    )
    _, mask = build_grid(dom, 0.0625)
    n_exit = np.count_nonzero(mask.face_x == FaceKind.EXIT)
    assert n_exit == 128  # 64 per end
    assert np.count_nonzero(mask.face_y == FaceKind.EXIT) == 0


def test_corridor_exit_ids_name_each_end():
    dom = Domain.rectangle(
        (0.0, 16.0, -2.0, 2.0),
        exits=[((0.0, -2.0), (0.0, 2.0)), ((16.0, -2.0), (16.0, 2.0))],
    )
    grid, mask = build_grid(dom, 0.0625)
    x_faces, y_faces = mask.face_sets
    f, _ = x_faces.exit_face
    assert np.all(x_faces.exit_id[f == 0] == 0)
    assert np.all(x_faces.exit_id[f == grid.nx] == 1)
    assert np.array_equal(np.bincount(x_faces.exit_id), [grid.ny, grid.ny])
    assert y_faces.exit_id.size == 0


def test_exits_sharing_a_face_are_rejected():
    # the face centred at y = 1/16 lies within half a cell of both segments
    dom = Domain.rectangle(
        (0.0, 8.0, -4.0, 4.0),
        exits=[((8.0, -1.0), (8.0, 0.1)), ((8.0, 0.05), (8.0, 1.0))],
    )
    with pytest.raises(ValueError, match="within half a cell"):
        build_grid(dom, 0.125)


def test_no_exit_means_all_wall():
    dom = Domain.rectangle((0.0, 4.0, 0.0, 4.0))
    _, mask = build_grid(dom, 0.5)
    assert np.count_nonzero(mask.face_x == FaceKind.EXIT) == 0
    assert np.count_nonzero(mask.face_y == FaceKind.EXIT) == 0
    n_wall = np.count_nonzero(mask.face_x == FaceKind.WALL) + np.count_nonzero(
        mask.face_y == FaceKind.WALL
    )
    assert n_wall == 32


def test_every_face_has_exactly_one_kind():
    _, mask = build_grid(room_domain(), 0.0625)
    kinds = (FaceKind.INACTIVE, FaceKind.INTERNAL, FaceKind.WALL, FaceKind.EXIT)
    for faces in (mask.face_x, mask.face_y):
        assert np.all(np.isin(faces, kinds))
    # internal faces join two interior cells
    internal = mask.face_x == FaceKind.INTERNAL
    fi, fj = np.nonzero(internal)
    assert np.all(mask.interior[fi - 1, fj])
    assert np.all(mask.interior[fi, fj])


def test_exit_must_lie_on_boundary():
    with pytest.raises(ValueError):
        Domain.rectangle((0.0, 8.0, -4.0, 4.0), exits=[((4.0, 0.0), (5.0, 0.0))])


@pytest.mark.parametrize("exit", [((1.0, -0.5), (1.0, 0.5)), ((-0.5, 1.0), (0.5, 1.0))])
def test_exit_must_stay_on_its_edge(exit):
    with pytest.raises(ValueError, match="extends past the boundary edge"):
        Domain.rectangle((0.0, 1.0, 0.0, 1.0), exits=[exit])


def test_exit_must_touch_the_discrete_boundary():
    # a zero-length exit is a point: no face midpoint lies within half a cell
    dom = Domain.rectangle((0.0, 8.0, -4.0, 4.0), exits=[((8.0, -1.0), (8.0, -1.0))])
    with pytest.raises(ValueError, match="does not touch the discrete boundary"):
        build_grid(dom, 0.125)


def test_obstacle_must_stay_inside():
    with pytest.raises(ValueError):
        Domain.rectangle((0.0, 8.0, -4.0, 4.0), obstacles=[(7.5, 8.5, 0.0, 1.0)])
    with pytest.raises(ValueError):
        Domain.rectangle((0.0, 8.0, -4.0, 4.0), obstacles=[(1.0, 1.0, 0.0, 1.0)])


def test_mesh_must_divide_extents():
    dom = Domain.rectangle((0.0, 8.0, -4.0, 4.0))
    with pytest.raises(ValueError):
        build_grid(dom, 0.3)
    with pytest.raises(ValueError):
        build_grid(dom, -0.125)
    with pytest.raises(ValueError):
        build_grid(dom, 0.0)


def test_nan_mesh_size_is_not_positive():
    with pytest.raises(ValueError, match="mesh size must be positive"):
        build_grid(Domain.rectangle((0.0, 8.0, -4.0, 4.0)), np.nan)


def test_domain_covered_by_an_obstacle_has_no_interior_cells():
    dom = Domain.rectangle((0.0, 1.0, 0.0, 1.0), obstacles=[(0.0, 1.0, 0.0, 1.0)])
    with pytest.raises(ValueError, match="no interior cells"):
        build_grid(dom, 0.25)


def test_degenerate_rectangle_rejected():
    with pytest.raises(ValueError):
        Domain.rectangle((0.0, 0.0, 0.0, 1.0))


def test_inside_predicate_open_set():
    dom = room_domain()
    assert dom.inside(4.0, 0.0)
    assert not dom.inside(0.0, 0.0)  # boundary point
    assert not dom.inside(6.75, 1.3)  # inside obstacle
    assert not dom.inside(6.5, 1.0)  # obstacle corner (obstacles are closed)
    assert not dom.inside(9.0, 0.0)


def test_classification_is_reproducible():
    grid_a, mask_a = build_grid(room_domain(), 0.0625)
    grid_b, mask_b = build_grid(room_domain(), 0.0625)
    assert grid_a.shape == grid_b.shape
    assert np.array_equal(mask_a.cells, mask_b.cells)
    assert np.array_equal(mask_a.face_x, mask_b.face_x)
    assert np.array_equal(mask_a.face_y, mask_b.face_y)
