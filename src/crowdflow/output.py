"""Snapshot and time-series writers.

Snapshots are written twice per capture: a CSV with full-precision values
(shortest round-tripping decimal form, so reading the file back restores
the exact bits) and an 8-bit grayscale PGM raster for quick viewing.
Each cell's text is the ``repr`` of its float, but captures repeat values
heavily (piecewise-constant data, zero exteriors and obstacles, rows the
flow has not reached), so the writer formats each distinct bit pattern
once and joins the rows from those texts; when more than half the cells
are distinct it formats cell by cell instead.  Either way the bytes are
those of one ``repr`` per cell.
The time series is one CSV with per-population diagnostics per step.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .fields import ScalarField
from .geometry import CellKind, CellMask

__all__ = ["write_snapshot", "read_snapshot", "write_series"]


def _fmt(value: float) -> str:
    return repr(float(value))


def _value_rows(v: np.ndarray) -> Iterable[str]:
    """The CSV rows of `v`, one per x-index: each cell the repr of its float.

    Each distinct value is formatted once.  The key is the int64 bit
    pattern, not the float: 0.0 and -0.0 compare equal but print
    differently, and every pattern's text is its own repr.
    """
    keys, index = np.unique(v.view(np.int64), return_inverse=True)
    # repr costs about 1 us a value, looking a text up 0.1-0.2 us a cell and
    # the sort 40 ns a cell: once more than half the cells are distinct the
    # lookups save little, and with no repeats they cost 10-25% more than
    # repr alone, so such fields keep the per-value loop
    if 2 * keys.size > v.size:
        return (",".join(map(repr, row)) for row in v.tolist())
    texts = list(map(repr, keys.view(np.float64).tolist()))
    # the indices become Python ints one row at a time, so the peak memory
    # stays that of the per-value loop
    return (",".join(map(texts.__getitem__, row.tolist())) for row in index.reshape(v.shape))


def write_snapshot(
    field: ScalarField, mask: CellMask, t: float, base_path: str | Path
) -> tuple[Path, Path]:
    """Write `<base>.csv` and `<base>.pgm`; returns both paths.

    CSV layout: a header row ``nx,ny,h,t``, its values, then the cell
    values in row-major order -- one row per x-index, each holding that
    column's ny values with the y-index ascending, each the ``repr`` of its
    float.  Each distinct bit pattern is formatted once and the rows are
    joined from those texts; a field with more than half its cells
    distinct is formatted cell by cell.  Both give the same bytes.  The
    suffixes are appended to the base name, so a base such as
    ``snap_t0.5`` writes ``snap_t0.5.csv``.  The raster maps value 0 to
    white and the field maximum to black, with obstacle cells a fixed
    mid-gray.  The header's h is the grid's mesh width, the side of every
    square cell.
    """
    base = Path(base_path)
    grid = field.grid
    v = field.values

    csv_path = base.with_name(base.name + ".csv")
    lines = ["nx,ny,h,t", ",".join([str(grid.nx), str(grid.ny), _fmt(grid.h), _fmt(t)])]
    lines.extend(_value_rows(v))
    csv_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    pgm_path = base.with_name(base.name + ".pgm")
    sup = float(np.max(v))
    if sup > 0.0:
        gray = np.clip(np.rint(255.0 * (1.0 - v / sup)), 0, 255).astype(np.uint8)
    else:
        gray = np.full(grid.shape, 255, dtype=np.uint8)
    gray[mask.cells == CellKind.OBSTACLE] = 128
    # raster rows run top to bottom: highest y first, x left to right
    raster = gray.T[::-1, :]
    header = f"P5\n{grid.nx} {grid.ny}\n255\n".encode("ascii")
    pgm_path.write_bytes(header + raster.tobytes())
    return csv_path, pgm_path


def read_snapshot(path: str | Path) -> tuple[np.ndarray, dict]:
    """Read a snapshot CSV back into an (nx, ny) array plus its metadata."""
    text = Path(path).read_text(encoding="ascii").strip().split("\n")
    if len(text) < 2:
        raise ValueError(f"{path} has no snapshot header and metadata rows")
    meta = dict(zip(text[0].split(","), text[1].split(",")))
    missing = [name for name in ("nx", "ny", "h", "t") if name not in meta]
    if missing:
        raise ValueError(f"{path} is not a snapshot: its header lacks {', '.join(missing)}")
    nx, ny = int(meta["nx"]), int(meta["ny"])
    meta = {"nx": nx, "ny": ny, "h": float(meta["h"]), "t": float(meta["t"])}
    if len(text) - 2 != nx:
        raise ValueError(f"snapshot has {len(text) - 2} value rows, expected {nx}")
    values = np.empty((nx, ny))
    for i in range(nx):
        row = text[2 + i].split(",")
        if len(row) != ny:
            raise ValueError(f"snapshot row {i} has {len(row)} values, expected {ny}")
        values[i, :] = [float(s) for s in row]
    return values, meta


def write_series(records: Sequence, path: str | Path) -> Path:
    """Write the diagnostics series as CSV, one row per recorded time."""
    path = Path(path)
    if not records:
        raise ValueError("no diagnostics records to write")
    n_pop = len(records[0].mass)
    header = ["t"]
    for i in range(1, n_pop + 1):
        header += [f"mass_{i}", f"sup_{i}", f"tv_{i}", f"outflux_{i}", f"wallflux_{i}"]
    lines = [",".join(header)]
    for rec in records:
        row = [_fmt(rec.t)]
        for i in range(n_pop):
            row += [
                _fmt(rec.mass[i]),
                _fmt(rec.sup[i]),
                _fmt(rec.tv[i]),
                _fmt(rec.outflux[i]),
                _fmt(rec.wallflux[i]),
            ]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path
