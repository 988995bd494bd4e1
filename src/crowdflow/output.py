"""Snapshot and time-series writers.

Snapshots are written twice per capture: a CSV with full-precision values
(shortest round-tripping decimal form, so reading the file back restores
the exact bits) and an 8-bit grayscale PGM raster for quick viewing.
The time series is one CSV with per-population diagnostics per step.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .fields import ScalarField
from .geometry import CellKind, CellMask

__all__ = ["write_snapshot", "read_snapshot", "write_series"]


def _fmt(value: float) -> str:
    return repr(float(value))


def write_snapshot(
    field: ScalarField, mask: CellMask, t: float, base_path: str | Path
) -> tuple[Path, Path]:
    """Write `<base>.csv` and `<base>.pgm`; returns both paths.

    CSV layout: a header row ``nx,ny,h,t``, its values, then the cell
    values in row-major order -- one row per x-index, each holding that
    column's ny values with the y-index ascending.  The raster maps value
    0 to white and the field maximum to black, with obstacle cells a fixed
    mid-gray.
    """
    base = Path(base_path)
    grid = field.grid
    v = field.values

    csv_path = base.with_suffix(".csv")
    lines = ["nx,ny,h,t", ",".join([str(grid.nx), str(grid.ny), _fmt(grid.dx), _fmt(t)])]
    # repr of a Python float is what _fmt gives each value, row by row
    lines.extend(",".join(map(repr, row)) for row in v.tolist())
    csv_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    pgm_path = base.with_suffix(".pgm")
    sup = float(np.max(v)) if v.size else 0.0
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
    names = text[0].split(",")
    raw = text[1].split(",")
    meta = dict(zip(names, raw))
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
