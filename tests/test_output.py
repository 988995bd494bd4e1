import builtins

import numpy as np
import pytest

from crowdflow import output
from crowdflow.fields import ScalarField
from crowdflow.geometry import CellKind, Domain, build_grid
from crowdflow.output import read_snapshot, write_snapshot, write_series
from crowdflow.simulator import DiagnosticsRecord


def full_box(h=0.25, size=2.0):
    dom = Domain.rectangle((0.0, size, 0.0, size))
    return build_grid(dom, h)


def read_pgm(path):
    raw = path.read_bytes()
    magic, dims, maxval, rest = raw.split(b"\n", 3)
    assert magic == b"P5"
    nx, ny = (int(v) for v in dims.split())
    assert maxval == b"255"
    raster = np.frombuffer(rest, dtype=np.uint8, count=nx * ny).reshape(ny, nx)
    return raster, nx, ny


def test_snapshot_roundtrip(tmp_path):
    grid, mask = full_box()
    rng = np.random.default_rng(6)
    field = ScalarField(grid, rng.uniform(0, 3, grid.shape))
    csv_path, pgm_path = write_snapshot(field, mask, 0.375, tmp_path / "snap")
    assert csv_path.exists() and pgm_path.exists()
    values, meta = read_snapshot(csv_path)
    assert np.array_equal(values, field.values)
    assert meta["nx"] == 8 and meta["ny"] == 8
    assert meta["h"] == 0.25
    assert meta["t"] == 0.375


def test_snapshot_csv_layout(tmp_path):
    grid, mask = full_box()
    xm, _ = grid.center_mesh()
    field = ScalarField(grid, xm.copy())
    csv_path, _ = write_snapshot(field, mask, 0.0, tmp_path / "snap")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "nx,ny,h,t"
    assert len(lines) == 2 + grid.nx  # header, meta, one row per x-index
    first_row = [float(v) for v in lines[2].split(",")]
    assert len(first_row) == grid.ny
    assert np.allclose(first_row, field.values[0, :])


def test_snapshot_csv_bytes_are_per_cell_repr(tmp_path):
    grid, mask = full_box()
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 3, grid.shape)
    special = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, 123456789.0, 0.1]
    values.flat[: len(special)] = special
    field = ScalarField(grid, values)
    csv_path, _ = write_snapshot(field, mask, 0.375, tmp_path / "snap")
    lines = ["nx,ny,h,t", "8,8,0.25,0.375"]
    for i in range(grid.nx):
        lines.append(",".join(repr(float(values[i, j])) for j in range(grid.ny)))
    assert csv_path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
    back, _ = read_snapshot(csv_path)
    assert back.tobytes() == values.tobytes()


def write_as_per_cell_repr(tmp_path, monkeypatch, values, box=(0.0, 2.0, 0.0, 2.0)):
    """Write `values` as a snapshot and check it against per-cell repr.

    The CSV must hold, byte for byte, one ``repr`` per cell and read back
    bit for bit.  Returns the cell values the writer passed to ``repr``,
    in call order, so a test can tell which path formatted them.
    """
    grid, mask = build_grid(Domain.rectangle(box), 0.25)
    values = np.asarray(values, dtype=float).reshape(grid.shape)
    formatted = []

    def spy(value):
        formatted.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(output, "repr", spy, raising=False)
    csv_path, _ = write_snapshot(ScalarField(grid, values), mask, 0.5, tmp_path / "snap")
    monkeypatch.undo()
    lines = ["nx,ny,h,t", f"{grid.nx},{grid.ny},0.25,0.5"]
    lines += [",".join(repr(float(x)) for x in row) for row in values]
    assert csv_path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
    back, _ = read_snapshot(csv_path)
    assert back.tobytes() == values.tobytes()
    # the header's h and t are formatted first
    assert formatted[:2] == [0.25, 0.5]
    return formatted[2:]


def patterns(values):
    """The int64 bit patterns of `values`, in order."""
    return np.asarray(values, dtype=float).ravel().view(np.int64)


def test_snapshot_formats_each_distinct_bit_pattern_once(tmp_path, monkeypatch):
    # piecewise constant, zero and negative zero in separate blocks, so the
    # writer takes the once-per-value path
    values = np.zeros((8, 8))
    values[:4, :4] = 1.5
    values[4:, :2] = -0.0
    values[4:, 6:] = 0.1
    values[2, 3] = 5e-324
    values[7, 7] = 1.7976931348623157e308
    formatted = write_as_per_cell_repr(tmp_path, monkeypatch, values)
    distinct = np.unique(patterns(values))
    assert distinct.size == 6
    assert np.array_equal(patterns(formatted), distinct)


def test_snapshot_of_an_all_equal_field(tmp_path, monkeypatch):
    formatted = write_as_per_cell_repr(tmp_path, monkeypatch, np.full((8, 8), 2.0 / 3.0))
    assert formatted == [2.0 / 3.0]


def test_snapshot_of_an_all_distinct_field_is_formatted_cell_by_cell(tmp_path, monkeypatch):
    values = np.random.default_rng(3).uniform(-1.0, 1.0, (8, 8))
    values.flat[:2] = [0.0, -0.0]
    formatted = write_as_per_cell_repr(tmp_path, monkeypatch, values)
    assert np.array_equal(patterns(formatted), patterns(values))


@pytest.mark.parametrize("distinct, per_cell", [(32, False), (33, True)])
def test_snapshot_formats_cell_by_cell_above_half_distinct(
    tmp_path, monkeypatch, distinct, per_cell
):
    values = np.full(64, 7.0)
    values[: distinct - 1] = np.linspace(-2.0, 2.0, distinct - 1)[::-1]
    assert np.unique(patterns(values)).size == distinct
    formatted = write_as_per_cell_repr(tmp_path, monkeypatch, values)
    assert len(formatted) == (64 if per_cell else distinct)


@pytest.mark.parametrize("box", [(0.0, 0.25, 0.0, 2.0), (0.0, 2.0, 0.0, 0.25)], ids=["1xn", "nx1"])
def test_snapshot_of_a_one_cell_wide_grid(tmp_path, monkeypatch, box):
    values = [0.0, -0.0, 0.0, 3.25, 3.25, -0.0, 0.0, 3.25]
    formatted = write_as_per_cell_repr(tmp_path, monkeypatch, values, box)
    assert np.array_equal(patterns(formatted), np.unique(patterns([0.0, -0.0, 3.25])))


def test_snapshot_bases_with_a_dot_keep_their_full_name(tmp_path):
    grid, mask = full_box()
    paths = []
    for t, base in ((0.5, "snap_t0.5"), (0.75, "snap_t0.75")):
        field = ScalarField(grid, np.full(grid.shape, t))
        paths.append(write_snapshot(field, mask, t, tmp_path / base))
    assert [p.name for pair in paths for p in pair] == [
        "snap_t0.5.csv", "snap_t0.5.pgm", "snap_t0.75.csv", "snap_t0.75.pgm"
    ]
    for (csv_path, _), t in zip(paths, (0.5, 0.75)):
        values, meta = read_snapshot(csv_path)
        assert meta["t"] == t and np.all(values == t)


@pytest.mark.parametrize("text, message", [
    ("t,mass_1,sup_1\n0.0,1.0,2.0\n", "header lacks nx, ny, h$"),
    ("nx,ny,h\n2,2,0.5\n", "header lacks t$"),
    ("nx,ny,h,t\n", "no snapshot header and metadata rows"),
], ids=["series", "no-t", "header-only"])
def test_read_snapshot_names_missing_header_fields(tmp_path, text, message):
    path = tmp_path / "series.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_snapshot(path)


def test_pgm_encoding(tmp_path):
    grid, mask = full_box()
    const = ScalarField(grid, np.full(grid.shape, 1.3))
    _, pgm = write_snapshot(const, mask, 0.0, tmp_path / "const")
    raster, nx, ny = read_pgm(pgm)
    assert (nx, ny) == grid.shape
    assert np.all(raster == 0)  # the maximum is black
    _, pgm0 = write_snapshot(ScalarField.zeros(grid), mask, 0.0, tmp_path / "zero")
    raster0, _, _ = read_pgm(pgm0)
    assert np.all(raster0 == 255)


def test_pgm_marks_obstacles_and_orientation(tmp_path):
    dom = Domain.rectangle(
        (0.0, 2.0, 0.0, 2.0), obstacles=[(0.75, 1.25, 0.75, 1.25)]
    )
    grid, mask = build_grid(dom, 0.25)
    vals = np.where(mask.interior, 1.0, 0.0)
    # make the top row of the domain the brightest cells
    vals[:, -1] = 0.0
    field = ScalarField(grid, vals)
    _, pgm = write_snapshot(field, mask, 0.0, tmp_path / "obst")
    raster, _, _ = read_pgm(pgm)
    obstacle = (mask.cells == CellKind.OBSTACLE).T[::-1, :]
    assert np.all(raster[obstacle] == 128)
    assert np.all(raster[0, :] == 255)  # top raster row = top of the domain = 0


def test_read_snapshot_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nx,ny,h,t\n2,2,0.5,0.0\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_snapshot(path)


@pytest.mark.parametrize("change", ["missing-last-row", "extra-row"])
def test_read_snapshot_rejects_a_wrong_row_count(tmp_path, change):
    grid, mask = full_box(h=0.5)
    field = ScalarField(grid, np.arange(16.0).reshape(grid.shape))
    csv_path, _ = write_snapshot(field, mask, 0.0, tmp_path / "snap")
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2 + 4
    lines = lines[:-1] if change == "missing-last-row" else lines + [lines[-1]]
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="value rows, expected 4"):
        read_snapshot(csv_path)


def test_series_layout(tmp_path):
    records = [
        DiagnosticsRecord(
            t=0.0, mass=(4.0, 2.0), sup=(1.0, 1.0), tv=(0.5, 0.25),
            outflux=(0.0, 0.0), wallflux=(0.0, 0.0),
        ),
        DiagnosticsRecord(
            t=0.5, mass=(3.5, 1.75), sup=(0.9, 0.95), tv=(0.4, 0.2),
            outflux=(0.5, 0.25), wallflux=(0.0, 0.0),
        ),
    ]
    path = write_series(records, tmp_path / "series.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "t,mass_1,sup_1,tv_1,outflux_1,wallflux_1,"
        "mass_2,sup_2,tv_2,outflux_2,wallflux_2"
    )
    assert len(lines) == 3
    row = lines[2].split(",")
    assert float(row[0]) == 0.5
    assert float(row[1]) == 3.5
    assert float(row[10]) == 0.0


def test_series_requires_records(tmp_path):
    with pytest.raises(ValueError):
        write_series([], tmp_path / "series.csv")
